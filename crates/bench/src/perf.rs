//! Host-side throughput measurement (the `msperf` harness).
//!
//! Everything else in this crate measures *simulated* time — cycles,
//! IPC, speedups. This module measures the *simulator itself*: wall
//! seconds per workload, simulated cycles per host second, and retired
//! instructions per host second. Those numbers bound experiment
//! turnaround (a 120-point sweep pays the per-point cost 120 times), so
//! they are tracked as a first-class artifact, `BENCH_perf.json`.
//!
//! ## `BENCH_perf.json` schema
//!
//! One JSON object, fixed field order, stable across runs of the same
//! build (the timing values themselves naturally vary):
//!
//! ```json
//! {
//!   "schema": "multiscalar-perf/v1",
//!   "scale": "full",                // workload scale measured
//!   "reps": 3,                      // timed repetitions per point
//!   "points": [
//!     {
//!       "workload": "Compress",     // paper row name
//!       "machine": "ms8",           // "scalar" or "ms<N>"
//!       "sim_cycles": 201335,       // simulated cycles (one run)
//!       "instructions": 160902,     // retired instructions (one run)
//!       "wall_secs": [0.021, ...],  // every rep, in run order
//!       "best_wall_secs": 0.0201,   // min over reps (least noise)
//!       "mean_wall_secs": 0.0214,   // arithmetic mean over reps
//!       "sim_cycles_per_sec": 1.0e7,  // sim_cycles / best_wall_secs
//!       "instrs_per_sec": 8.0e6       // instructions / best_wall_secs
//!     }
//!   ],
//!   "total_wall_secs": 1.84,        // sum of best_wall_secs
//!   "total_sim_cycles": 5923110,
//!   "total_instructions": 4310992
//! }
//! ```
//!
//! `best_wall_secs` (not the mean) feeds the throughput rates: the
//! minimum over repetitions is the standard estimator for the noise
//! floor of a deterministic computation. Simulated counts are taken
//! from the first repetition and asserted identical across reps — a
//! repetition that disagreed would mean the simulator lost determinism,
//! which this harness treats as an error, not a data point.

use ms_workloads::{Workload, WorkloadError};
use multiscalar::{CpiAccountant, SimConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// A named machine configuration `msperf` can time.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Stable machine name: `scalar` or `ms<N>`.
    pub name: String,
    /// `true` for multiscalar machines, `false` for the scalar baseline.
    pub multiscalar: bool,
    /// The simulator configuration this name denotes.
    pub cfg: SimConfig,
}

impl MachineSpec {
    /// Parses a machine name: `scalar`, or `ms<N>` for an `N`-unit
    /// multiscalar machine, `N` up to [`SimConfig::MAX_UNITS`] (e.g.
    /// `ms4`, `ms8`).
    pub fn parse(name: &str) -> Option<MachineSpec> {
        if name == "scalar" {
            return Some(MachineSpec {
                name: name.to_string(),
                multiscalar: false,
                cfg: SimConfig::scalar(),
            });
        }
        let units = ms_workloads::cli::units(name.strip_prefix("ms")?)?;
        Some(MachineSpec {
            name: name.to_string(),
            multiscalar: true,
            cfg: SimConfig::multiscalar(units),
        })
    }

    /// The default machine set: the scalar baseline plus the paper's
    /// 4- and 8-unit multiscalar configurations.
    pub fn defaults() -> Vec<MachineSpec> {
        ["scalar", "ms4", "ms8"].iter().map(|n| MachineSpec::parse(n).unwrap()).collect()
    }
}

/// One timed (workload, machine) point.
#[derive(Clone, Debug)]
pub struct PerfPoint {
    /// Benchmark name (paper row name).
    pub workload: String,
    /// Machine name (`scalar` or `ms<N>`).
    pub machine: String,
    /// Simulated cycles for one run.
    pub sim_cycles: u64,
    /// Retired instructions for one run.
    pub instructions: u64,
    /// Wall seconds of every repetition, in run order.
    pub wall_secs: Vec<f64>,
}

impl PerfPoint {
    /// Minimum wall seconds over repetitions — the noise-floor estimate
    /// used for throughput rates.
    pub fn best_wall_secs(&self) -> f64 {
        self.wall_secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Arithmetic mean of wall seconds over repetitions.
    pub fn mean_wall_secs(&self) -> f64 {
        self.wall_secs.iter().sum::<f64>() / self.wall_secs.len() as f64
    }

    /// Simulated cycles per host second (against the best repetition).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.best_wall_secs()
    }

    /// Retired instructions per host second (against the best repetition).
    pub fn instrs_per_sec(&self) -> f64 {
        self.instructions as f64 / self.best_wall_secs()
    }
}

/// Times one workload on one machine for `reps` repetitions.
///
/// Each repetition assembles and runs the workload end-to-end (assembly
/// is part of the measured pipeline cost a sweep pays per design
/// point) and validates the simulated memory against the reference
/// implementation — `msperf` never times an unvalidated run.
///
/// # Errors
/// Propagates assembly/simulation/validation failures.
///
/// # Panics
/// Panics if repetitions disagree on simulated cycle or instruction
/// counts (the simulator must be deterministic).
pub fn measure(w: &Workload, m: &MachineSpec, reps: usize) -> Result<PerfPoint, WorkloadError> {
    measure_with(w, m, reps, false)
}

/// [`measure`] with live CPI-stack accounting on multiscalar runs.
///
/// Times the *accounting-enabled* simulation path (a
/// [`CpiAccountant`] as the run's trace sink) instead of the default
/// untraced path; the scalar baseline is timed unchanged (it has no
/// accountant). CI compares this against [`measure`] to bound the
/// runtime cost of cycle accounting — the zero-cost claim for the
/// *disabled* path is structural (monomorphization), but the *enabled*
/// path must also stay cheap enough to leave on in sweeps.
///
/// # Errors
/// Propagates assembly/simulation/validation failures.
pub fn measure_accounted(
    w: &Workload,
    m: &MachineSpec,
    reps: usize,
) -> Result<PerfPoint, WorkloadError> {
    measure_with(w, m, reps, true)
}

fn measure_with(
    w: &Workload,
    m: &MachineSpec,
    reps: usize,
    accounted: bool,
) -> Result<PerfPoint, WorkloadError> {
    assert!(reps > 0, "msperf needs at least one repetition");
    let mut wall_secs = Vec::with_capacity(reps);
    let mut counts: Option<(u64, u64)> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let stats = match (m.multiscalar, accounted) {
            (true, false) => w.run_multiscalar(m.cfg),
            (true, true) => w.run_multiscalar_with_sink(m.cfg, CpiAccountant::new()).0,
            (false, _) => w.run_scalar(m.cfg),
        }?;
        wall_secs.push(t0.elapsed().as_secs_f64());
        let got = (stats.cycles, stats.instructions);
        match counts {
            None => counts = Some(got),
            Some(first) => assert_eq!(
                first, got,
                "{} on {}: repetitions disagree on simulated counts — determinism lost",
                w.name, m.name
            ),
        }
    }
    let (sim_cycles, instructions) = counts.unwrap();
    Ok(PerfPoint {
        workload: w.name.to_string(),
        machine: m.name.clone(),
        sim_cycles,
        instructions,
        wall_secs,
    })
}

/// Renders measured points as the `BENCH_perf.json` document (schema
/// `multiscalar-perf/v1`, documented at module level).
pub fn perf_to_json(scale: &str, reps: usize, points: &[PerfPoint]) -> String {
    use ms_trace::json::{number, string};
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", string("multiscalar-perf/v1"));
    let _ = writeln!(out, "  \"scale\": {},", string(scale));
    let _ = writeln!(out, "  \"reps\": {reps},");
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"workload\": {}, ", string(&p.workload));
        let _ = write!(out, "\"machine\": {}, ", string(&p.machine));
        let _ = write!(out, "\"sim_cycles\": {}, ", p.sim_cycles);
        let _ = write!(out, "\"instructions\": {}, ", p.instructions);
        out.push_str("\"wall_secs\": [");
        for (j, s) in p.wall_secs.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&number(*s));
        }
        out.push_str("], ");
        let _ = write!(out, "\"best_wall_secs\": {}, ", number(p.best_wall_secs()));
        let _ = write!(out, "\"mean_wall_secs\": {}, ", number(p.mean_wall_secs()));
        let _ = write!(out, "\"sim_cycles_per_sec\": {}, ", number(p.sim_cycles_per_sec()));
        let _ = write!(out, "\"instrs_per_sec\": {}", number(p.instrs_per_sec()));
        out.push_str(if i + 1 < points.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n");
    let total_wall: f64 = points.iter().map(PerfPoint::best_wall_secs).sum();
    let total_cycles: u64 = points.iter().map(|p| p.sim_cycles).sum();
    let total_instrs: u64 = points.iter().map(|p| p.instructions).sum();
    let _ = writeln!(out, "  \"total_wall_secs\": {},", number(total_wall));
    let _ = writeln!(out, "  \"total_sim_cycles\": {total_cycles},");
    let _ = writeln!(out, "  \"total_instructions\": {total_instrs}");
    out.push_str("}\n");
    out
}

/// Renders a human-readable throughput table for terminal output.
pub fn render_perf(points: &[PerfPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>12} {:>14} {:>12} {:>14} {:>14}",
        "workload", "machine", "sim cycles", "instructions", "wall (s)", "Mcycles/s", "Minstrs/s"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12} {:>14} {:>12.4} {:>14.2} {:>14.2}",
            p.workload,
            p.machine,
            p.sim_cycles,
            p.instructions,
            p.best_wall_secs(),
            p.sim_cycles_per_sec() / 1e6,
            p.instrs_per_sec() / 1e6,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_workloads::Scale;

    #[test]
    fn machine_spec_parses_known_names() {
        let s = MachineSpec::parse("scalar").unwrap();
        assert!(!s.multiscalar);
        let m = MachineSpec::parse("ms4").unwrap();
        assert!(m.multiscalar);
        assert_eq!(m.cfg.units, 4);
        assert!(MachineSpec::parse("ms0").is_none());
        assert!(MachineSpec::parse("vliw").is_none());
        assert!(MachineSpec::parse("ms").is_none());
        assert_eq!(MachineSpec::defaults().len(), 3);
    }

    #[test]
    fn accounted_measurement_is_cycle_identical() {
        let w = ms_workloads::by_name("Wc", Scale::Test).unwrap();
        let m = MachineSpec::parse("ms4").unwrap();
        let plain = measure(&w, &m, 1).unwrap();
        let acct = measure_accounted(&w, &m, 1).unwrap();
        // Accounting is observational: it must not perturb the
        // simulated machine.
        assert_eq!(plain.sim_cycles, acct.sim_cycles);
        assert_eq!(plain.instructions, acct.instructions);
    }

    #[test]
    fn measure_and_emit_round_trip() {
        let w = ms_workloads::by_name("Wc", Scale::Test).unwrap();
        let m = MachineSpec::parse("ms4").unwrap();
        let p = measure(&w, &m, 2).unwrap();
        assert_eq!(p.wall_secs.len(), 2);
        assert!(p.sim_cycles > 0 && p.instructions > 0);
        assert!(p.best_wall_secs() <= p.mean_wall_secs());
        let json = perf_to_json("test", 2, std::slice::from_ref(&p));
        assert!(json.contains("\"schema\": \"multiscalar-perf/v1\""));
        assert!(json.contains("\"machine\": \"ms4\""));
        assert!(json.contains("\"total_sim_cycles\""));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in-tree (CI validates with python3 -m json).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let table = render_perf(std::slice::from_ref(&p));
        assert!(table.contains("Wc"));
    }
}
