//! # ms-chaos — deterministic fault-injection campaigns
//!
//! The multiscalar simulator's central invariant is that *speculation
//! never changes architectural results*: whatever the predictor guesses,
//! however the ring reorders deliveries, however often the ARB forces
//! stalls or squashes, the committed execution must equal the sequential
//! one. This crate stress-tests that invariant by perturbing the
//! microarchitecture on purpose and checking the result against the
//! reference oracle.
//!
//! A [`FaultPlan`] is a seeded, deterministic
//! [`FaultInjector`]: every decision is a pure
//! function of the seed-derived key and the hook inputs (cycle, unit,
//! assignment order), never of sequential RNG state, so a plan perturbs
//! identically no matter how many hooks fire in between. Plans may
//!
//! * force task mispredictions at chosen assignment orders,
//! * jitter ring-hop latencies and throttle ring width,
//! * tighten ARB capacity in pressure windows, and
//! * inject spurious squashes of speculative tasks (never the head),
//!
//! all of which the simulator must absorb. A [`Campaign`] runs each
//! (workload × plan × seed) point end-to-end and checks the oracle:
//! final memory equals the reference ([`Workload::verify_memory`]),
//! retired instruction and task counts equal an unperturbed baseline, and
//! the retirement sequence is identical and in order. Reports serialize
//! to deterministic JSON — same seed, byte-identical report.
//!
//! The `mschaos` binary is the campaign CLI; see `README.md` ("Chaos
//! testing") and `DESIGN.md` §9.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use ms_workloads::{Scale, Workload, WorkloadError};
use multiscalar::{FaultInjector, NoFaults, SimConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// splitmix64 finalizer: the pure mixing function behind every plan
/// decision (no sequential state, so decisions are call-order free).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub mod serve_chaos;

pub use serve_chaos::{
    run_serve_campaign, ServeCampaign, ServeCampaignReport, ServePointResult, HOST_PLAN_NAMES,
};

/// The built-in plan shapes, in campaign order.
pub const PLAN_NAMES: [&str; 5] = ["mispredict", "ring", "arb", "squash", "storm"];

/// A seeded, deterministic fault plan.
///
/// Construct with one of the named shapes ([`FaultPlan::by_name`] or the
/// specific constructors); each derives its parameters and mixing key
/// from the seed via the vendored `SmallRng`, then acts as a pure
/// function of its hook inputs.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Plan shape name (one of [`PLAN_NAMES`]).
    name: &'static str,
    /// Seed the plan was built from.
    seed: u64,
    /// Seed-derived mixing key.
    key: u64,
    /// Force a wrong target choice when `mix(key, order) % period == 0`.
    mispredict_period: Option<u64>,
    /// Max extra ring-hop cycles (0 disables jitter).
    ring_jitter_max: u64,
    /// Ring width throttled to `cap` while `cycle % period < duty`.
    ring_cap_window: Option<(u64, u64, usize)>,
    /// ARB per-bank capacity tightened to `cap` in the same window shape.
    arb_cap_window: Option<(u64, u64, usize)>,
    /// Request a spurious squash when `mix(key, cycle) % period == 0`.
    squash_period: Option<u64>,
}

impl FaultPlan {
    fn base(name: &'static str, seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        use rand::RngCore;
        FaultPlan {
            name,
            seed,
            key: rng.next_u64(),
            mispredict_period: None,
            ring_jitter_max: 0,
            ring_cap_window: None,
            arb_cap_window: None,
            squash_period: None,
        }
    }

    /// Forces a wrong successor prediction roughly every 5–8 assignments.
    pub fn mispredict(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::base("mispredict", seed);
        p.mispredict_period = Some(5 + mix(p.key ^ 1) % 4);
        p
    }

    /// Jitters ring-hop latency by 0–3 cycles and periodically throttles
    /// the ring to one message per hop.
    pub fn ring(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::base("ring", seed);
        p.ring_jitter_max = 3;
        p.ring_cap_window = Some((64 + mix(p.key ^ 2) % 64, 16, 1));
        p
    }

    /// Periodically tightens ARB per-bank capacity to a handful of lines
    /// (head allocation is exempt, so progress is preserved).
    pub fn arb(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::base("arb", seed);
        p.arb_cap_window = Some((96 + mix(p.key ^ 3) % 64, 32, 2));
        p
    }

    /// Injects spurious squashes of a speculative task roughly every
    /// 97–224 cycles.
    pub fn squash(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::base("squash", seed);
        p.squash_period = Some(97 + mix(p.key ^ 4) % 128);
        p
    }

    /// Everything at once.
    pub fn storm(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::base("storm", seed);
        p.mispredict_period = Some(7 + mix(p.key ^ 1) % 6);
        p.ring_jitter_max = 2;
        p.ring_cap_window = Some((128 + mix(p.key ^ 2) % 64, 24, 1));
        p.arb_cap_window = Some((160 + mix(p.key ^ 3) % 64, 32, 3));
        p.squash_period = Some(131 + mix(p.key ^ 4) % 128);
        p
    }

    /// Builds a named plan shape ([`PLAN_NAMES`]) for `seed`.
    pub fn by_name(name: &str, seed: u64) -> Option<FaultPlan> {
        match name {
            "mispredict" => Some(FaultPlan::mispredict(seed)),
            "ring" => Some(FaultPlan::ring(seed)),
            "arb" => Some(FaultPlan::arb(seed)),
            "squash" => Some(FaultPlan::squash(seed)),
            "storm" => Some(FaultPlan::storm(seed)),
            _ => None,
        }
    }

    /// The plan shape name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The seed the plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn in_window(window: Option<(u64, u64, usize)>, now: u64) -> Option<usize> {
        window.and_then(|(period, duty, cap)| (now % period < duty).then_some(cap))
    }
}

impl FaultInjector for FaultPlan {
    fn override_prediction(
        &mut self,
        _now: u64,
        order: u64,
        _task_entry: u32,
        ntargets: usize,
        predicted: usize,
    ) -> usize {
        match self.mispredict_period {
            Some(p)
                if ntargets > 1 && mix(self.key ^ order.wrapping_mul(0xa5a5)).is_multiple_of(p) =>
            {
                (predicted + 1) % ntargets
            }
            _ => predicted,
        }
    }

    fn ring_extra_delay(&mut self, now: u64, unit: usize) -> u64 {
        if self.ring_jitter_max == 0 {
            return 0;
        }
        mix(self.key ^ now.wrapping_mul(0x1234_5601) ^ unit as u64) % (self.ring_jitter_max + 1)
    }

    fn ring_width_cap(&mut self, now: u64) -> Option<usize> {
        FaultPlan::in_window(self.ring_cap_window, now)
    }

    fn arb_capacity_cap(&mut self, now: u64) -> Option<usize> {
        FaultPlan::in_window(self.arb_cap_window, now)
    }

    fn spurious_squash(&mut self, now: u64, active_len: usize) -> Option<usize> {
        let p = self.squash_period?;
        if active_len < 2 || !mix(self.key ^ now.wrapping_mul(0xdead_4bad)).is_multiple_of(p) {
            return None;
        }
        Some(1 + (mix(self.key ^ now ^ 0x51) % (active_len as u64 - 1)) as usize)
    }
}

/// Campaign parameters: the cross product of workloads, plan shapes and
/// seeds, each run on a `units`-wide machine at `scale`.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Workload names (paper row names, case-insensitive).
    pub workloads: Vec<String>,
    /// Plan shape names (subset of [`PLAN_NAMES`]).
    pub plans: Vec<String>,
    /// Number of seeds per (workload, plan): seeds are
    /// `seed_base .. seed_base + seeds`.
    pub seeds: u64,
    /// First seed.
    pub seed_base: u64,
    /// Processing units of the machine under test.
    pub units: usize,
    /// Workload scale.
    pub scale: Scale,
    /// Cycle bound per run.
    pub max_cycles: u64,
    /// Forward-progress watchdog per run (fault injection must never
    /// livelock the machine; a firing watchdog is a campaign failure).
    pub watchdog: Option<u64>,
}

impl Default for Campaign {
    fn default() -> Campaign {
        Campaign {
            workloads: Vec::new(),
            plans: PLAN_NAMES.iter().map(|s| s.to_string()).collect(),
            seeds: 8,
            seed_base: 0,
            units: 4,
            scale: Scale::Test,
            max_cycles: 50_000_000,
            watchdog: Some(2_000_000),
        }
    }
}

/// One (workload × plan × seed) campaign point.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Workload name.
    pub workload: String,
    /// Plan shape name.
    pub plan: String,
    /// Seed.
    pub seed: u64,
    /// Simulated cycles (perturbed run; 0 on failure before completion).
    pub cycles: u64,
    /// Tasks squashed in the perturbed run (baseline + injected).
    pub tasks_squashed: u64,
    /// `None` = oracle passed; `Some(reason)` = violation.
    pub failure: Option<String>,
}

impl PointResult {
    /// The minimal `mschaos` invocation that reproduces this point.
    pub fn repro(&self, campaign: &Campaign) -> String {
        format!(
            "mschaos --workloads {} --plans {} --seeds 1 --seed-base {} --units {} --scale {}",
            self.workload.to_lowercase(),
            self.plan,
            self.seed,
            campaign.units,
            campaign.scale.id(),
        )
    }
}

/// A finished campaign: every point, in deterministic order.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The campaign that was run.
    pub campaign: Campaign,
    /// One result per (workload × plan × seed), in that nesting order.
    pub points: Vec<PointResult>,
}

impl CampaignReport {
    /// Number of oracle violations.
    pub fn failures(&self) -> usize {
        self.points.iter().filter(|p| p.failure.is_some()).count()
    }

    /// Serializes the report as deterministic JSON (schema
    /// `multiscalar-chaos/v1`): same campaign and seeds, byte-identical
    /// output.
    pub fn to_json(&self) -> String {
        use ms_trace::json;
        let mut out = String::from("{\"schema\":\"multiscalar-chaos/v1\"");
        out.push_str(&format!(",\"scale\":{}", json::string(self.campaign.scale.id())));
        out.push_str(&format!(",\"units\":{}", self.campaign.units));
        out.push_str(&format!(
            ",\"seeds\":{},\"seed_base\":{}",
            self.campaign.seeds, self.campaign.seed_base
        ));
        out.push_str(",\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"workload\":{},\"plan\":{},\"seed\":{},\"cycles\":{},\"tasks_squashed\":{},\"failure\":{}}}",
                json::string(&p.workload),
                json::string(&p.plan),
                p.seed,
                p.cycles,
                p.tasks_squashed,
                p.failure.as_deref().map_or("null".into(), json::string),
            ));
        }
        out.push_str(&format!("],\"failures\":{}}}", self.failures()));
        out
    }
}

/// Architectural fingerprint of an unperturbed run, against which every
/// perturbed run is checked.
struct Baseline {
    instructions: u64,
    tasks_retired: u64,
    retirement_entries: Vec<u32>,
}

fn sim_config(c: &Campaign) -> SimConfig {
    SimConfig::multiscalar(c.units).max_cycles(c.max_cycles).watchdog(c.watchdog)
}

fn baseline(w: &Workload, c: &Campaign) -> Result<Baseline, WorkloadError> {
    let (stats, p) = w.run_multiscalar_with_injector(sim_config(c), NoFaults)?;
    Ok(Baseline {
        instructions: stats.instructions,
        tasks_retired: stats.tasks_retired,
        retirement_entries: p.retirement_log().iter().map(|r| r.entry).collect(),
    })
}

/// Runs one (workload, plan) point and applies the oracle.
fn run_point(w: &Workload, base: &Baseline, plan: FaultPlan, c: &Campaign) -> PointResult {
    let workload = w.name.to_string();
    let plan_name = plan.name().to_string();
    let seed = plan.seed();
    // `run_multiscalar_with_injector` already verifies final memory
    // against the reference implementation — the core oracle.
    match w.run_multiscalar_with_injector(sim_config(c), plan) {
        Ok((stats, p)) => {
            let mut failure = None;
            if stats.instructions != base.instructions {
                failure = Some(format!(
                    "retired {} instructions, baseline retired {}",
                    stats.instructions, base.instructions
                ));
            } else if stats.tasks_retired != base.tasks_retired {
                failure = Some(format!(
                    "retired {} tasks, baseline retired {}",
                    stats.tasks_retired, base.tasks_retired
                ));
            } else {
                let log = p.retirement_log();
                if log.windows(2).any(|w| w[1].cycle < w[0].cycle) {
                    failure = Some("retirement cycles are not non-decreasing".into());
                } else if log.iter().map(|r| r.entry).ne(base.retirement_entries.iter().copied()) {
                    failure = Some("retirement entry sequence diverges from baseline".into());
                }
            }
            PointResult {
                workload,
                plan: plan_name,
                seed,
                cycles: stats.cycles,
                tasks_squashed: stats.tasks_squashed,
                failure,
            }
        }
        Err(e) => PointResult {
            workload,
            plan: plan_name,
            seed,
            cycles: 0,
            tasks_squashed: 0,
            failure: Some(e.to_string()),
        },
    }
}

/// Resolves the campaign's workload selection against the suite.
///
/// # Errors
/// Returns the first unknown workload or plan name.
pub fn resolve(c: &Campaign) -> Result<Vec<Workload>, String> {
    for p in &c.plans {
        if !PLAN_NAMES.contains(&p.as_str()) {
            return Err(format!("unknown plan `{p}` (use {})", PLAN_NAMES.join(", ")));
        }
    }
    if c.workloads.is_empty() {
        return Ok(ms_workloads::suite(c.scale));
    }
    c.workloads
        .iter()
        .map(|n| ms_workloads::by_name(n, c.scale).ok_or_else(|| format!("unknown workload `{n}`")))
        .collect()
}

/// Runs the whole campaign: for every workload, an unperturbed baseline,
/// then every (plan × seed) perturbed run checked against it.
///
/// # Errors
/// Returns an error string for unknown names or a failing baseline (a
/// baseline failure means the simulator is broken even without faults).
pub fn run_campaign(c: &Campaign) -> Result<CampaignReport, String> {
    let workloads = resolve(c)?;
    let mut points = Vec::new();
    for w in &workloads {
        let base =
            baseline(w, c).map_err(|e| format!("{}: unperturbed baseline failed: {e}", w.name))?;
        for plan_name in &c.plans {
            for s in 0..c.seeds {
                let seed = c.seed_base + s;
                let plan = FaultPlan::by_name(plan_name, seed)
                    .unwrap_or_else(|| unreachable!("plan names pre-validated"));
                points.push(run_point(w, &base, plan, c));
            }
        }
    }
    Ok(CampaignReport { campaign: c.clone(), points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_decisions_are_pure_and_seeded() {
        let mut a = FaultPlan::storm(42);
        let mut b = FaultPlan::storm(42);
        // Call order must not matter: drain hooks differently.
        let _ = a.ring_extra_delay(9, 1);
        for cyc in [5u64, 900, 12_345] {
            assert_eq!(a.spurious_squash(cyc, 6), b.spurious_squash(cyc, 6));
            assert_eq!(a.ring_extra_delay(cyc, 2), b.ring_extra_delay(cyc, 2));
            assert_eq!(a.ring_width_cap(cyc), b.ring_width_cap(cyc));
            assert_eq!(a.arb_capacity_cap(cyc), b.arb_capacity_cap(cyc));
            assert_eq!(
                a.override_prediction(cyc, cyc, 0x100, 3, 0),
                b.override_prediction(cyc, cyc, 0x100, 3, 0)
            );
        }
        let mut c = FaultPlan::storm(43);
        let differs =
            (0..64u64).any(|cyc| a.ring_extra_delay(cyc, 0) != c.ring_extra_delay(cyc, 0));
        assert!(differs, "different seeds should perturb differently");
    }

    #[test]
    fn spurious_squash_never_targets_head() {
        let mut p = FaultPlan::squash(7);
        for cyc in 0..10_000 {
            if let Some(k) = p.spurious_squash(cyc, 4) {
                assert!((1..4).contains(&k), "cycle {cyc} chose {k}");
            }
            assert_eq!(p.spurious_squash(cyc, 1), None, "lone head must be exempt");
        }
    }

    #[cfg(not(feature = "broken-squash"))]
    #[test]
    fn storm_campaign_passes_oracle_and_is_deterministic() {
        let c = Campaign {
            workloads: vec!["wc".into(), "cmp".into()],
            plans: vec!["storm".into(), "squash".into()],
            seeds: 2,
            ..Campaign::default()
        };
        let r1 = run_campaign(&c).expect("campaign runs");
        assert_eq!(r1.failures(), 0, "{}", r1.to_json());
        assert!(
            r1.points.iter().any(|p| p.tasks_squashed > 0),
            "storm plans should actually squash"
        );
        let r2 = run_campaign(&c).expect("campaign runs");
        assert_eq!(r1.to_json(), r2.to_json(), "same seeds, byte-identical report");
    }

    #[cfg(feature = "broken-squash")]
    #[test]
    fn broken_squash_is_caught_by_the_campaign() {
        // With the seeded bug compiled in (a squash wave no longer
        // discards the squashed tasks' in-flight ring messages),
        // wrong-path register values can deliver to re-dispatched tasks
        // and corrupt architectural results. The effect needs a dense
        // squash/jitter mix to surface — this fixed-seed campaign is
        // known to catch it and serves as the harness's teeth check.
        let c = Campaign {
            workloads: vec!["gcc".into()],
            plans: vec!["storm".into()],
            seeds: 8,
            ..Campaign::default()
        };
        match run_campaign(&c) {
            Ok(report) => {
                assert!(report.failures() > 0, "seeded bug went undetected: {}", report.to_json());
                let fail = report.points.iter().find(|p| p.failure.is_some()).unwrap();
                assert!(fail.repro(&c).contains("--seed-base"), "{}", fail.repro(&c));
            }
            // Also acceptable: the bug corrupts even the unperturbed
            // baseline (control/memory squashes leak stores too).
            Err(e) => assert!(e.contains("baseline failed"), "{e}"),
        }
    }
}
