//! Service-layer chaos: seeded host-level faults against the sweep
//! cache and a live `msserve` daemon, with a byte-identity oracle.
//!
//! The microarchitectural campaigns in the crate root perturb the
//! simulator *inside* one process and check sequential semantics. This
//! module perturbs the *host layer* — the sweep cache on disk and the
//! daemon's connections — and checks the service invariant instead:
//! **no host fault may change an artifact byte**. Every plan runs the
//! same job list on the in-process executor (behind a live [`Server`]
//! for `conn-drop`) while a seeded fault fires, then compares the merged
//! `results.json` bytes against an undisturbed run.
//!
//! The host-fault plans ([`HOST_PLAN_NAMES`]):
//!
//! * `torn-cache` — sweep-cache entries are truncated/corrupted on
//!   disk; reads must quarantine to `.corrupt` and recompute.
//! * `conn-drop` — a client vanishes mid-request/mid-response; the
//!   daemon must shrug and serve the next connection identical bytes.
//!
//! Faults are derived from the seed with the same splitmix64 mixing the
//! microarchitectural plans use, so a campaign point is reproducible
//! from `(plan, seed)` alone. The report (schema
//! `multiscalar-chaos-serve/v2`) carries per-point quarantine counts and
//! the oracle columns `identical` and `failure`.

use crate::mix;
use ms_serve::protocol::{self, Response};
use ms_serve::{Server, ServerConfig};
use ms_sweep::{artifacts, run_jobs_with, InProcessExecutor};
use ms_sweep::{SweepCache, SweepOptions, SweepSpec};
use ms_workloads::Scale;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The built-in host-fault plan shapes, in campaign order.
pub const HOST_PLAN_NAMES: [&str; 2] = ["torn-cache", "conn-drop"];

/// A service-layer chaos campaign: every (plan × seed) point runs the
/// full job list under one seeded host fault and checks byte identity.
#[derive(Clone, Debug)]
pub struct ServeCampaign {
    /// Workloads in the job list (each contributes a scalar and a
    /// multiscalar design point, so both engine kinds are exercised).
    pub workloads: Vec<String>,
    /// Plans to run (subset of [`HOST_PLAN_NAMES`]).
    pub plans: Vec<String>,
    /// Seeds per plan.
    pub seeds: usize,
    /// First seed; point `s` uses `seed_base + s`.
    pub seed_base: u64,
    /// Units for the multiscalar design points.
    pub units: usize,
    /// Workload scale.
    pub scale: Scale,
    /// Scratch directory for the `torn-cache` plan's cache dirs
    /// (default: the system temp dir). Each point uses a fresh
    /// subdirectory and removes it afterwards.
    pub scratch: Option<PathBuf>,
    /// If set, every point's merged `results.json` bytes are written
    /// here (atomically) as `<plan>-<seed>.results.json`, next to the
    /// undisturbed `baseline.results.json` — so CI can `cmp` them
    /// independently of this module's own oracle.
    pub artifacts_dir: Option<PathBuf>,
}

impl Default for ServeCampaign {
    fn default() -> ServeCampaign {
        ServeCampaign {
            workloads: vec!["wc".into(), "cmp".into()],
            plans: HOST_PLAN_NAMES.iter().map(|s| s.to_string()).collect(),
            seeds: 2,
            seed_base: 0,
            units: 4,
            scale: Scale::Test,
            scratch: None,
            artifacts_dir: None,
        }
    }
}

/// One finished (plan × seed) point.
#[derive(Clone, Debug)]
pub struct ServePointResult {
    /// Plan shape name (one of [`HOST_PLAN_NAMES`]).
    pub plan: String,
    /// Seed this point ran with.
    pub seed: u64,
    /// Whether the merged artifact was byte-identical to the
    /// undisturbed run.
    pub identical: bool,
    /// Torn cache entries quarantined to `.corrupt` and recomputed
    /// (non-zero only for the `torn-cache` plan).
    pub cache_quarantined: u64,
    /// `None` when every check held; otherwise a `;`-joined list of the
    /// violated expectations.
    pub failure: Option<String>,
}

/// A finished service-layer campaign.
#[derive(Clone, Debug)]
pub struct ServeCampaignReport {
    /// The campaign that was run.
    pub campaign: ServeCampaign,
    /// One result per (plan × seed), in that nesting order.
    pub points: Vec<ServePointResult>,
}

impl ServeCampaignReport {
    /// Number of points that violated a check.
    pub fn failures(&self) -> usize {
        self.points.iter().filter(|p| p.failure.is_some()).count()
    }

    /// Torn cache entries quarantined and recomputed, across every point.
    pub fn cache_quarantined(&self) -> u64 {
        self.points.iter().map(|p| p.cache_quarantined).sum()
    }

    /// The robustness floor of a full campaign: at least one
    /// quarantine-and-recompute when `torn-cache` ran. The returned list
    /// names every unmet expectation (empty = floor met).
    pub fn robustness_gaps(&self) -> Vec<String> {
        let ran_torn = self.campaign.plans.iter().any(|p| p == "torn-cache");
        if ran_torn && self.cache_quarantined() == 0 {
            vec!["no cache quarantine-and-recompute recorded".to_string()]
        } else {
            Vec::new()
        }
    }

    /// Serializes the report as JSON, schema `multiscalar-chaos-serve/v2`
    /// (fixed field order).
    pub fn to_json(&self) -> String {
        use ms_trace::json;
        let mut out = String::from("{\"schema\":\"multiscalar-chaos-serve/v2\"");
        out.push_str(&format!(",\"scale\":{}", json::string(self.campaign.scale.id())));
        out.push_str(&format!(",\"units\":{}", self.campaign.units));
        out.push_str(&format!(
            ",\"seeds\":{},\"seed_base\":{}",
            self.campaign.seeds, self.campaign.seed_base
        ));
        out.push_str(",\"workloads\":[");
        for (i, w) in self.campaign.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::string(w));
        }
        out.push_str("],\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"plan\":{},\"seed\":{},\"identical\":{},\"cache_quarantined\":{},\
                 \"failure\":{}}}",
                json::string(&p.plan),
                p.seed,
                p.identical,
                p.cache_quarantined,
                p.failure.as_deref().map_or("null".into(), json::string),
            ));
        }
        out.push_str(&format!(
            "],\"totals\":{{\"cache_quarantined\":{}}}",
            self.cache_quarantined()
        ));
        out.push_str(&format!(",\"failures\":{}}}", self.failures()));
        out
    }
}

/// The sweep spec every point (and the baseline) expands: both engine
/// kinds per workload, one multiscalar width/order, `units` units.
fn spec(c: &ServeCampaign) -> SweepSpec {
    SweepSpec {
        workloads: c.workloads.clone(),
        scale: c.scale,
        widths: vec![1],
        orders: vec![false],
        unit_counts: vec![c.units],
        include_scalar: true,
        partitions: Vec::new(),
    }
}

/// Accumulates violated expectations for one point.
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            self.0.push(what.to_string());
        }
    }

    fn into_failure(self) -> Option<String> {
        if self.0.is_empty() {
            None
        } else {
            Some(self.0.join("; "))
        }
    }
}

/// `torn-cache`: populate a real cache, corrupt a seeded subset of its
/// entries on disk, then re-run the sweep. Every torn entry must be
/// quarantined to `.corrupt` and recomputed.
fn run_torn_cache(c: &ServeCampaign, seed: u64, baseline: &str) -> (String, u64, Checks) {
    let root = c.scratch.clone().unwrap_or_else(std::env::temp_dir);
    let dir = root.join(format!("ms-chaos-serve-cache-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = SweepCache::at(&dir);
    let opts = SweepOptions { cache: cache.clone(), ..SweepOptions::default() };

    let mut ck = Checks(Vec::new());
    // Populate the cache with an undisturbed run.
    run_jobs_with(spec(c).expand(), &opts, &InProcessExecutor::new());

    // Tear a seeded subset of the published entries (always >= 1): a
    // truncation models a crash mid-write, a flipped tail models rot.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "entry"))
                .collect()
        })
        .unwrap_or_default();
    entries.sort();
    ck.expect(!entries.is_empty(), "populate pass published no cache entries");
    let mut torn = 0u64;
    for (i, path) in entries.iter().enumerate() {
        let pick = mix(seed ^ 0x7042 ^ i as u64);
        if pick.is_multiple_of(2) && !(i == entries.len() - 1 && torn == 0) {
            continue;
        }
        torn += 1;
        let bytes = std::fs::read(path).unwrap_or_default();
        let tear: Vec<u8> = if pick % 4 < 2 {
            bytes[..bytes.len() / 2].to_vec()
        } else {
            let mut b = bytes;
            b.extend_from_slice(b"torn by mschaos serve\n");
            b
        };
        if std::fs::write(path, tear).is_err() {
            ck.expect(false, "could not tear a cache entry");
        }
    }

    // The perturbed run: torn entries must be quarantined and recomputed;
    // intact entries still serve as hits.
    let report = run_jobs_with(spec(c).expand(), &opts, &InProcessExecutor::new());
    let merged = artifacts::results_json(&report);

    ck.expect(merged == baseline, "merged bytes diverged from baseline");
    ck.expect(cache.quarantined() == torn, "quarantine count != torn entries");
    ck.expect(report.executed as u64 == torn, "quarantined entries were not recomputed");
    let _ = std::fs::remove_dir_all(&dir);
    (merged, cache.quarantined(), ck)
}

/// `conn-drop`: against a live daemon, a seeded misbehaving client
/// vanishes (after a full request, or mid request line); the next
/// well-behaved connection must still get byte-identical artifacts.
fn run_conn_drop(c: &ServeCampaign, seed: u64, baseline: &str) -> (String, u64, Checks) {
    use ms_trace::json;
    let mut ck = Checks(Vec::new());
    let cfg = ServerConfig { cache: SweepCache::disabled(), ..ServerConfig::default() };
    let server = match Server::start(cfg, Arc::new(InProcessExecutor::new())) {
        Ok(server) => server,
        Err(e) => {
            ck.expect(false, &format!("daemon failed to bind: {e}"));
            return (String::new(), 0, ck);
        }
    };
    let addr = server.addr();

    let workloads = c.workloads.iter().map(|w| json::string(w)).collect::<Vec<_>>().join(",");
    let line = format!(
        "{{\"op\":\"sweep\",\"id\":1,\"workloads\":[{workloads}],\"scale\":{},\
         \"widths\":[1],\"order\":\"inorder\",\"units\":[{}],\"scalar\":true}}",
        json::string(c.scale.id()),
        c.units,
    );

    // The vanishing client: drop after the full request (the daemon
    // computes, then writes into a dead socket) or mid request line
    // (the daemon reads a torn line) — seed decides.
    let dropped = (|| -> std::io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut hello = String::new();
        reader.read_line(&mut hello)?;
        if mix(seed ^ 0xd409).is_multiple_of(2) {
            writer.write_all(line.as_bytes())?;
            writer.write_all(b"\n")?;
        } else {
            writer.write_all(&line.as_bytes()[..line.len() / 2])?;
        }
        Ok(()) // both handles drop here: RST/EOF mid-conversation
    })();
    ck.expect(dropped.is_ok(), "the dropping client could not even connect");

    // The well-behaved client, on a fresh connection.
    let served = (|| -> Result<String, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let mut buf = String::new();
        reader.read_line(&mut buf).map_err(|e| e.to_string())?; // hello
        writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        writer.write_all(b"\n").map_err(|e| e.to_string())?;
        buf.clear();
        reader.read_line(&mut buf).map_err(|e| e.to_string())?;
        match protocol::parse_response(&buf) {
            Ok(Response::SweepResult { payload, .. }) => Ok(payload),
            Ok(other) => Err(format!("unexpected response: {other:?}")),
            Err(e) => Err(format!("unparseable response: {e}")),
        }
    })();
    let merged = match served {
        Ok(payload) => payload,
        Err(e) => {
            ck.expect(false, &format!("well-behaved client failed after the drop: {e}"));
            String::new()
        }
    };
    ck.expect(merged == baseline, "served bytes diverged from baseline after the drop");

    server.shutdown();
    let computed = server.stats().computed;
    server.join();
    ck.expect(computed >= spec(c).expand().len() as u64, "the daemon computed nothing");
    (merged, 0, ck)
}

/// Runs the campaign: every (plan × seed) point, each under its seeded
/// host fault, each checked against the undisturbed baseline bytes.
///
/// `Err` is reserved for campaign-level misconfiguration (unknown plan,
/// empty job list, unwritable artifact dir); per-point violations land
/// in [`ServePointResult::failure`] so one bad point never hides the
/// others.
pub fn run_serve_campaign(c: &ServeCampaign) -> Result<ServeCampaignReport, String> {
    for plan in &c.plans {
        if !HOST_PLAN_NAMES.contains(&plan.as_str()) {
            return Err(format!(
                "unknown serve plan `{plan}` (expected one of {})",
                HOST_PLAN_NAMES.join(", ")
            ));
        }
    }
    let jobs = spec(c).expand();
    if jobs.is_empty() {
        return Err("campaign expands to an empty job list".to_string());
    }

    // The undisturbed truth every point is held to.
    let baseline = artifacts::results_json(&run_jobs_with(
        jobs,
        &SweepOptions::default(),
        &InProcessExecutor::new(),
    ));
    let write_artifact = |name: &str, bytes: &str| -> Result<(), String> {
        let Some(dir) = &c.artifacts_dir else { return Ok(()) };
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(name);
        artifacts::write_atomic(&path, bytes.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write_artifact("baseline.results.json", &baseline)?;

    let mut points = Vec::new();
    for plan in &c.plans {
        for s in 0..c.seeds.max(1) {
            let seed = c.seed_base.wrapping_add(s as u64);
            let (merged, cache_quarantined, ck) = match plan.as_str() {
                "torn-cache" => run_torn_cache(c, seed, &baseline),
                _ => run_conn_drop(c, seed, &baseline),
            };
            write_artifact(&format!("{plan}-{seed}.results.json"), &merged)?;
            points.push(ServePointResult {
                plan: plan.clone(),
                seed,
                identical: merged == baseline,
                cache_quarantined,
                failure: ck.into_failure(),
            });
        }
    }
    Ok(ServeCampaignReport { campaign: c.clone(), points })
}
