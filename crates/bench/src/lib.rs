//! # ms-bench — the evaluation harness
//!
//! Regenerates the paper's evaluation artifacts:
//!
//! * **Table 2** — dynamic instruction counts, scalar vs. multiscalar
//!   binaries ([`table2`]),
//! * **Table 3** — scalar IPC, 4-/8-unit speedups and task-prediction
//!   accuracy with in-order units, 1-way and 2-way ([`evaluate_suite`]
//!   with `ooo = false`, rendered by [`render_table34`]),
//! * **Table 4** — the same with out-of-order units (`ooo = true`),
//! * the **Section 3 cycle-distribution** report ([`cycle_distribution`]),
//! * **Table 1** — the functional-unit latency configuration
//!   ([`table1`]).
//!
//! Run `cargo run --release -p ms-bench --bin tables -- all` to print
//! everything. Table 3/4 regeneration runs on the `ms-sweep` engine —
//! parallel across design points and memoized in an on-disk cache by
//! default (`--jobs 1` recovers the serial path; see the `mssweep` CLI
//! for arbitrary axis sweeps).
//!
//! The [`perf`] module (and its `msperf` CLI) measures the *simulator's
//! own* throughput — wall seconds, simulated cycles/sec — and emits
//! `BENCH_perf.json`; see `PERFORMANCE.md`.
//!
//! The [`prof`] module (and its `msprof` CLI) profiles the *simulated*
//! machine instead: conservation-checked CPI stacks per workload ×
//! machine, recorded as `multiscalar-prof/v1` JSON and diffable across
//! builds; see the "Profiling" section of the README.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// `JobFailure` deliberately carries the whole failed `Job` (see
// ms-sweep); each `Result` spans an entire table sweep, so the
// Err-variant size does not matter.
#![allow(clippy::result_large_err)]

pub mod perf;
pub mod prof;

use ms_sweep::{run_sweep, JobFailure, JobKind, SweepOptions, SweepReport, SweepSpec};
use ms_workloads::{by_name, suite, Scale, Workload, WorkloadError};
use multiscalar::{RunStats, SimConfig};
use std::fmt::Write;

/// One multiscalar design point's result against a benchmark.
#[derive(Clone, Copy, Debug)]
pub struct MultiResult {
    /// Number of processing units.
    pub units: usize,
    /// Speedup over the scalar baseline at the same issue width/order.
    pub speedup: f64,
    /// Task-prediction accuracy.
    pub pred: f64,
    /// Total cycles.
    pub cycles: u64,
}

/// Results for one benchmark at one issue width.
#[derive(Clone, Debug)]
pub struct WidthResult {
    /// Issue width (1 or 2).
    pub width: usize,
    /// Scalar-baseline IPC.
    pub scalar_ipc: f64,
    /// Scalar-baseline cycles.
    pub scalar_cycles: u64,
    /// Multiscalar results per unit count.
    pub multi: Vec<MultiResult>,
}

/// One row of Table 3/4.
#[derive(Clone, Debug)]
pub struct EvalRow {
    /// Benchmark name.
    pub name: String,
    /// Per-issue-width results.
    pub per_width: Vec<WidthResult>,
}

/// A design point that failed, identified precisely: the workload, the
/// machine kind, and the configuration axes are all in `job`.
#[derive(Debug)]
pub struct EvalError {
    /// Which design point failed, e.g. `compress ms8 w2 ooo`.
    pub job: String,
    /// The underlying assembly/simulation/validation failure.
    pub source: WorkloadError,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.job, self.source)
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Runs the sweep behind Table 3 (`ooo = false`) or Table 4
/// (`ooo = true`) for one benchmark, serially in the calling thread.
///
/// # Errors
/// Returns the first design point that fails assembly, simulation, or
/// output validation, identified by workload and configuration — the
/// harness never reports numbers from an unvalidated run.
pub fn evaluate_workload(
    w: &Workload,
    ooo: bool,
    widths: &[usize],
    unit_counts: &[usize],
) -> Result<EvalRow, EvalError> {
    let order = if ooo { "ooo" } else { "inorder" };
    let mut per_width = Vec::new();
    for &width in widths {
        let scfg = SimConfig::scalar().issue(width).out_of_order(ooo);
        let s = w.run_scalar(scfg).map_err(|source| EvalError {
            job: format!("{} scalar w{width} {order}", w.name),
            source,
        })?;
        let mut multi = Vec::new();
        for &units in unit_counts {
            let mcfg = SimConfig::multiscalar(units).issue(width).out_of_order(ooo);
            let m = w.run_multiscalar(mcfg).map_err(|source| EvalError {
                job: format!("{} ms{units} w{width} {order}", w.name),
                source,
            })?;
            multi.push(MultiResult {
                units,
                speedup: s.cycles as f64 / m.cycles as f64,
                pred: m.prediction_accuracy(),
                cycles: m.cycles,
            });
        }
        per_width.push(WidthResult { width, scalar_ipc: s.ipc(), scalar_cycles: s.cycles, multi });
    }
    Ok(EvalRow { name: w.name.to_string(), per_width })
}

/// Assembles Table 3/4 rows from a sweep report (the outcomes of a
/// [`SweepSpec`] that included scalar baselines). Rows keep the report's
/// workload order; widths and unit counts keep their order of appearance.
///
/// # Errors
/// Returns the first failed design point whose issue order matches
/// `ooo`, with its full job identity.
pub fn rows_from_sweep(report: &SweepReport, ooo: bool) -> Result<Vec<EvalRow>, JobFailure> {
    if let Some(f) = report.failures().find(|f| f.job.cfg.ooo == ooo) {
        return Err(f.clone());
    }
    // Scalar baselines per (workload, width).
    let scalars: Vec<(&str, usize, &RunStats)> = report
        .successes()
        .filter(|o| o.job.kind == JobKind::Scalar && o.job.cfg.ooo == ooo)
        .map(|o| (o.job.workload.as_str(), o.job.cfg.issue_width, &o.stats))
        .collect();
    let mut rows: Vec<EvalRow> = Vec::new();
    for o in report.successes() {
        if o.job.kind != JobKind::Multiscalar || o.job.cfg.ooo != ooo {
            continue;
        }
        let width = o.job.cfg.issue_width;
        let &(_, _, s) =
            scalars.iter().find(|(w, wd, _)| *w == o.job.workload && *wd == width).unwrap_or_else(
                || panic!("sweep is missing the scalar baseline for {} w{width}", o.job.workload),
            );
        let row = match rows.iter_mut().find(|r| r.name == o.job.workload) {
            Some(r) => r,
            None => {
                rows.push(EvalRow { name: o.job.workload.clone(), per_width: Vec::new() });
                rows.last_mut().expect("just pushed")
            }
        };
        let wres = match row.per_width.iter_mut().find(|wr| wr.width == width) {
            Some(wr) => wr,
            None => {
                row.per_width.push(WidthResult {
                    width,
                    scalar_ipc: s.ipc(),
                    scalar_cycles: s.cycles,
                    multi: Vec::new(),
                });
                row.per_width.last_mut().expect("just pushed")
            }
        };
        wres.multi.push(MultiResult {
            units: o.job.cfg.units,
            speedup: s.cycles as f64 / o.stats.cycles as f64,
            pred: o.stats.prediction_accuracy(),
            cycles: o.stats.cycles,
        });
    }
    Ok(rows)
}

/// Runs the Table 3 (`ooo = false`) or Table 4 (`ooo = true`) sweep for
/// the whole suite on the `ms-sweep` engine — parallel across design
/// points and served from the result cache where possible, with row
/// assembly independent of worker count.
///
/// # Errors
/// Returns the first failed design point with its job identity.
pub fn evaluate_suite(
    ooo: bool,
    scale: Scale,
    opts: &SweepOptions,
) -> Result<Vec<EvalRow>, JobFailure> {
    rows_from_sweep(&run_sweep(&SweepSpec::table34(scale, ooo), opts), ooo)
}

/// Renders Table 3/4 in the paper's layout.
pub fn render_table34(rows: &[EvalRow], ooo: bool) -> String {
    let mut out = String::new();
    let kind = if ooo { "Out-Of-Order" } else { "In-Order" };
    let num = if ooo { 4 } else { 3 };
    let _ = writeln!(out, "Table {num}: {kind} Issue Processing Units");
    let _ =
        writeln!(out, "{:10} | {:-^37} | {:-^37}", "", "1-Way Issue Units", "2-Way Issue Units");
    let _ = writeln!(
        out,
        "{:10} | {:>6} {:>7} {:>6} {:>7} {:>6} | {:>6} {:>7} {:>6} {:>7} {:>6}",
        "Program",
        "Scalar",
        "4-Unit",
        "Pred",
        "8-Unit",
        "Pred",
        "Scalar",
        "4-Unit",
        "Pred",
        "8-Unit",
        "Pred"
    );
    let _ = writeln!(
        out,
        "{:10} | {:>6} {:>7} {:>6} {:>7} {:>6} | {:>6} {:>7} {:>6} {:>7} {:>6}",
        "", "IPC", "Speedup", "", "Speedup", "", "IPC", "Speedup", "", "Speedup", ""
    );
    for r in rows {
        let mut line = format!("{:10} |", r.name);
        for wres in &r.per_width {
            let _ = write!(line, " {:6.2}", wres.scalar_ipc);
            for m in &wres.multi {
                let _ = write!(line, " {:7.2} {:5.1}%", m.speedup, 100.0 * m.pred);
            }
            let _ = write!(line, " |");
        }
        let _ = writeln!(out, "{}", line.trim_end_matches(" |"));
    }
    out
}

fn rows_to_json_array(rows: &[EvalRow]) -> String {
    use ms_trace::json;
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":{},\"widths\":[", json::string(&r.name));
        for (j, wr) in r.per_width.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"width\":{},\"scalar_ipc\":{},\"scalar_cycles\":{},\"multi\":[",
                wr.width,
                json::number(wr.scalar_ipc),
                wr.scalar_cycles
            );
            for (k, m) in wr.multi.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"units\":{},\"speedup\":{},\"pred\":{},\"cycles\":{}}}",
                    m.units,
                    json::number(m.speedup),
                    json::number(m.pred),
                    m.cycles
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// Machine-readable Table 3/4 results (the `BENCH_tables.json` format
/// written by `tables --json` and `mssweep`). Either table may be absent
/// when only half the sweep was run. Field order is fixed, so identical
/// results render byte-identically.
pub fn tables_to_json(table3: Option<&[EvalRow]>, table4: Option<&[EvalRow]>) -> String {
    let mut out = String::from("{\"version\":1");
    if let Some(rows) = table3 {
        let _ = write!(out, ",\"table3\":{}", rows_to_json_array(rows));
    }
    if let Some(rows) = table4 {
        let _ = write!(out, ",\"table4\":{}", rows_to_json_array(rows));
    }
    out.push('}');
    out
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct CountRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Scalar-binary dynamic instruction count.
    pub scalar: u64,
    /// Multiscalar-binary dynamic instruction count.
    pub multiscalar: u64,
}

impl CountRow {
    /// Percentage increase of the multiscalar binary's dynamic count.
    pub fn increase(&self) -> f64 {
        if self.scalar == 0 {
            0.0
        } else {
            100.0 * (self.multiscalar as f64 - self.scalar as f64) / self.scalar as f64
        }
    }
}

/// Runs the Table-2 comparison: dynamic instruction counts of the scalar
/// binary vs. the multiscalar binary built from the same source.
///
/// # Panics
/// Panics if a run fails or produces wrong outputs.
pub fn table2(scale: Scale) -> Vec<CountRow> {
    suite(scale)
        .iter()
        .map(|w| {
            let s = w
                .run_scalar(SimConfig::scalar())
                .unwrap_or_else(|e| panic!("{} scalar: {e}", w.name));
            let m = w
                .run_multiscalar(SimConfig::multiscalar(4))
                .unwrap_or_else(|e| panic!("{} ms: {e}", w.name));
            CountRow { name: w.name, scalar: s.instructions, multiscalar: m.instructions }
        })
        .collect()
}

/// Renders Table 2 in the paper's layout.
pub fn render_table2(rows: &[CountRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: Benchmark Instruction Counts");
    let _ = writeln!(
        out,
        "{:10} | {:>12} {:>12} {:>9}",
        "Program", "Scalar", "Multiscalar", "Increase"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:10} | {:>12} {:>12} {:>8.1}%",
            r.name,
            r.scalar,
            r.multiscalar,
            r.increase()
        );
    }
    out
}

/// Runs one benchmark on an 8-unit in-order multiscalar processor and
/// returns the Section-3 cycle-distribution report.
///
/// # Panics
/// Panics if the run fails or produces wrong outputs.
pub fn cycle_distribution(w: &Workload, units: usize) -> RunStats {
    w.run_multiscalar(SimConfig::multiscalar(units)).unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// Renders the cycle-distribution report for the whole suite.
pub fn render_cycles(scale: Scale, units: usize) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "Section 3 cycle distribution ({units}-unit multiscalar, 1-way in-order)\n");
    let _ = writeln!(
        out,
        "{:10} {:>8} {:>9} {:>7} {:>7} {:>7} {:>6} {:>6}",
        "Program", "useful", "nonuseful", "inter", "intra", "retire", "arb", "idle"
    );
    for w in suite(scale) {
        let st = cycle_distribution(&w, units);
        let b = st.breakdown;
        let t = b.total().max(1) as f64;
        let pct = |v: u64| 100.0 * v as f64 / t;
        let _ = writeln!(
            out,
            "{:10} {:>7.1}% {:>8.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>5.1}% {:>5.1}%",
            w.name,
            pct(b.useful),
            pct(b.non_useful),
            pct(b.no_comp_inter_task),
            pct(b.no_comp_intra_task),
            pct(b.no_comp_wait_retire),
            pct(b.no_comp_arb),
            pct(b.idle),
        );
    }
    out
}

/// Renders Table 1 (the functional-unit latency configuration actually
/// used by the simulator).
pub fn table1() -> String {
    let t = ms_pipeline_latency_table();
    format!(
        "Table 1: Functional Unit Latencies\n\
         Integer                     Float\n\
         Add/Sub       {:>2}           SP Add/Sub   {:>2}\n\
         Shift/Logic   {:>2}           SP Multiply  {:>2}\n\
         Multiply      {:>2}           SP Divide    {:>2}\n\
         Divide        {:>2}           DP Add/Sub   {:>2}\n\
         Mem Store     {:>2}           DP Multiply  {:>2}\n\
         Mem Load      {:>2}           DP Divide    {:>2}\n\
         Branch        {:>2}\n",
        t.int_alu,
        t.fp_add_s,
        t.int_alu,
        t.fp_mul_s,
        t.int_mul,
        t.fp_div_s,
        t.int_div,
        t.fp_add_d,
        t.store,
        t.fp_mul_d,
        t.load + 1, // address generation + first cache cycle, as in Table 1
        t.fp_div_d,
        t.branch,
    )
}

fn ms_pipeline_latency_table() -> ms_pipeline::LatencyTable {
    SimConfig::scalar().latencies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_have_positive_increase_shape() {
        let rows = table2(Scale::Test);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.multiscalar >= r.scalar, "{}", r.name);
            assert!(r.increase() >= 0.0);
        }
        let rendered = render_table2(&rows);
        assert!(rendered.contains("Example"));
        assert!(rendered.contains("Compress"));
    }

    #[test]
    fn table3_one_row_renders() {
        let w = ms_workloads::by_name("Wc", Scale::Test).unwrap();
        let row = evaluate_workload(&w, false, &[1], &[4]).expect("Wc evaluates");
        assert_eq!(row.per_width.len(), 1);
        assert!(row.per_width[0].scalar_ipc > 0.0);
        assert!(row.per_width[0].multi[0].speedup > 0.5);
        let s = render_table34(&[row], false);
        assert!(s.contains("Table 3"));
        assert!(s.contains("Wc"));
    }

    #[test]
    fn sweep_rows_match_the_direct_serial_path() {
        let spec = SweepSpec {
            workloads: vec!["Wc".into(), "Cmp".into()],
            widths: vec![1],
            unit_counts: vec![4, 8],
            ..SweepSpec::table34(Scale::Test, false)
        };
        let report = run_sweep(&spec, &SweepOptions { jobs: 1, ..SweepOptions::default() });
        let rows = rows_from_sweep(&report, false).expect("sweep succeeds");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let w = ms_workloads::by_name(&row.name, Scale::Test).unwrap();
            let direct = evaluate_workload(&w, false, &[1], &[4, 8]).unwrap();
            assert_eq!(
                render_table34(&[direct], false),
                render_table34(std::slice::from_ref(row), false)
            );
        }
    }

    #[test]
    fn tables_json_is_deterministic_and_shaped() {
        let w = ms_workloads::by_name("Wc", Scale::Test).unwrap();
        let row = evaluate_workload(&w, false, &[1], &[4]).unwrap();
        let j1 = tables_to_json(Some(std::slice::from_ref(&row)), None);
        let j2 = tables_to_json(Some(std::slice::from_ref(&row)), None);
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"version\":1,\"table3\":[{\"name\":\"Wc\""));
        assert!(j1.contains("\"multi\":[{\"units\":4,\"speedup\":"));
        assert!(!j1.contains("table4"));
    }

    #[test]
    fn eval_error_carries_job_identity() {
        // An impossible cycle bound produces a real WorkloadError; the
        // EvalError wrapper must surface the design point identity.
        let w = ms_workloads::by_name("Wc", Scale::Test).unwrap();
        let source =
            w.run_multiscalar(SimConfig::multiscalar(4).max_cycles(1)).expect_err("must fail");
        let e = EvalError { job: "Wc ms4 w1 inorder".into(), source };
        let msg = e.to_string();
        assert!(msg.starts_with("Wc ms4 w1 inorder: "), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn table1_matches_paper_numbers() {
        let t = table1();
        assert!(t.contains("Divide        12"), "{t}");
        assert!(t.contains("DP Divide    18"), "{t}");
        assert!(t.contains("Mem Load       2"), "{t}");
    }

    #[test]
    fn cycles_report_covers_suite() {
        let s = render_cycles(Scale::Test, 4);
        for name in ["Compress", "Xlisp", "Example"] {
            assert!(s.contains(name), "{s}");
        }
    }
}

/// One ablation data point.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Knob description.
    pub config: String,
    /// Speedup over the default-config scalar baseline.
    pub speedup: f64,
    /// Task-prediction accuracy.
    pub pred: f64,
    /// Squashes (control + memory + ARB).
    pub squashes: u64,
}

/// Runs the design-space ablation of DESIGN.md §4 on one workload:
/// ring latency, ring width, prediction scheme, and ARB-overflow policy,
/// each varied against the paper's 8-unit in-order configuration.
///
/// # Panics
/// Panics if any run fails (all runs validate outputs).
pub fn ablation(w: &Workload) -> Vec<AblationRow> {
    use multiscalar::{ArbFullPolicy, PredictorKind};
    let s = w.run_scalar(SimConfig::scalar()).expect("scalar baseline");
    let mut rows = Vec::new();
    let mut point = |name: &str, cfg: SimConfig| {
        let m = w.run_multiscalar(cfg).unwrap_or_else(|e| panic!("{} [{name}]: {e}", w.name));
        rows.push(AblationRow {
            config: name.to_string(),
            speedup: s.cycles as f64 / m.cycles as f64,
            pred: m.prediction_accuracy(),
            squashes: m.control_squashes + m.memory_squashes + m.arb_squashes,
        });
    };
    let base = SimConfig::multiscalar(8);
    point("baseline (8u, ring=1, PAs, stall)", base);
    point("ring latency 2", base.ring_latency(2));
    point("ring latency 4", base.ring_latency(4));
    point("ring width 4", base.ring_width(4));
    point("static prediction", base.predictor(PredictorKind::StaticFirstTarget));
    point("last-outcome prediction", base.predictor(PredictorKind::LastOutcome));
    point("ARB overflow: squash", base.arb_policy(ArbFullPolicy::Squash));
    let mut tiny = base;
    tiny.arb_capacity = 8;
    point("tiny ARB (8 lines/bank), stall", tiny);
    let mut tiny_squash = base.arb_policy(ArbFullPolicy::Squash);
    tiny_squash.arb_capacity = 8;
    point("tiny ARB (8 lines/bank), squash", tiny_squash);
    rows
}

/// Renders an ablation table.
pub fn render_ablation(name: &str, rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Ablation: {name} (8-unit, 1-way, in-order)");
    let _ =
        writeln!(out, "{:38} {:>8} {:>7} {:>9}", "configuration", "speedup", "pred", "squashes");
    for r in rows {
        let _ = writeln!(
            out,
            "{:38} {:>8.2} {:>6.1}% {:>9}",
            r.config,
            r.speedup,
            100.0 * r.pred,
            r.squashes
        );
    }
    out
}

/// Speedup-vs-units scaling curve (an extension beyond the paper's 4/8
/// design points, using the same machine scaling rule: 2 x units banks).
///
/// # Panics
/// Panics if any run fails (all runs validate outputs).
pub fn scaling(w: &Workload, unit_counts: &[usize]) -> Vec<(usize, f64)> {
    let s = w.run_scalar(SimConfig::scalar()).expect("scalar baseline");
    unit_counts
        .iter()
        .map(|&u| {
            let m = w
                .run_multiscalar(SimConfig::multiscalar(u))
                .unwrap_or_else(|e| panic!("{} @{u}: {e}", w.name));
            (u, s.cycles as f64 / m.cycles as f64)
        })
        .collect()
}

/// Renders the scaling curves for a few representative workloads.
pub fn render_scaling(scale: Scale) -> String {
    let units = [1usize, 2, 4, 6, 8, 12, 16];
    let mut out = String::new();
    let _ = writeln!(out, "Speedup vs. processing units (1-way in-order)\n");
    let _ = write!(out, "{:10}", "Program");
    for u in units {
        let _ = write!(out, " {u:>6}");
    }
    let _ = writeln!(out);
    for name in ["Cmp", "Example", "Eqntott", "Compress", "Xlisp"] {
        let w = by_name(name, scale).expect("workload");
        let curve = scaling(&w, &units);
        let _ = write!(out, "{:10}", name);
        for (_, sp) in curve {
            let _ = write!(out, " {sp:>6.2}");
        }
        let _ = writeln!(out);
    }
    out
}
