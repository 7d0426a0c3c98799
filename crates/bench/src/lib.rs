//! # ms-bench — the evaluation harness
//!
//! Regenerates the paper's evaluation artifacts, one [`Table`] each:
//!
//! * **Table 1** — the functional-unit latency configuration
//!   ([`table1`]),
//! * **Table 2** — dynamic instruction counts, scalar vs. multiscalar
//!   binaries,
//! * **Table 3** — scalar IPC, 4-/8-unit speedups and task-prediction
//!   accuracy with in-order units, 1-way and 2-way ([`table34_rows`],
//!   rendered by [`render_table34`]),
//! * **Table 4** — the same with out-of-order units,
//! * the **Section 3 cycle-distribution** report,
//! * and two extensions: speedup against the number of units, and the
//!   DESIGN.md §4 ablations.
//!
//! A table is a list of `ms-sweep` design points ([`Table::jobs`]) and a
//! rendering of their outcomes ([`Table::render`]); nothing here runs a
//! simulation itself. Run `cargo run --release -p ms-bench --bin tables
//! -- all` to print everything: the binary merges the selected tables'
//! points, runs each distinct point once on the `ms-sweep` engine
//! (parallel across points and memoized in an on-disk cache by default;
//! `--jobs 1` is the serial path), and renders each table from its own
//! points. See the `mssweep` CLI for arbitrary axis sweeps.
//!
//! The [`perf`] module (and its `msperf` CLI) measures the *simulator's
//! own* throughput — wall seconds, simulated cycles/sec — and emits
//! `BENCH_perf.json`; see `PERFORMANCE.md`.
//!
//! The [`prof`] module (and its `msprof` CLI) profiles the *simulated*
//! machine instead: conservation-checked CPI stacks per workload ×
//! machine, swept on the same engine, recorded as `multiscalar-prof/v1`
//! JSON and diffable across builds; see the "Profiling" section of the
//! README.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// `JobFailure` deliberately carries the whole failed `Job` (see
// ms-sweep); each `Result` spans an entire table, so the Err-variant
// size does not matter.
#![allow(clippy::result_large_err)]

pub mod perf;
pub mod prof;

use ms_sweep::{Job, JobFailure, JobKind, JobOutcome, SweepReport, SweepSpec};
use ms_workloads::{suite, Scale};
use multiscalar::{ArbFullPolicy, PredictorKind, SimConfig};
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

/// The machine of the Section 3 cycle distribution, and the workloads
/// and unit counts of the scaling curves and the ablation (extensions
/// beyond the paper's 4/8 design points, same machine scaling rule).
const CYCLE_UNITS: usize = 8;
const SCALING_WORKLOADS: [&str; 5] = ["Cmp", "Example", "Eqntott", "Compress", "Xlisp"];
const SCALING_UNITS: [usize; 7] = [1, 2, 4, 6, 8, 12, 16];
const ABLATION_WORKLOADS: [&str; 3] = ["Example", "Wc", "Compress"];

/// The ablation's knobs of DESIGN.md §4 — ring latency, ring width,
/// prediction scheme and ARB-overflow policy — each varied against the
/// paper's 8-unit in-order configuration, with its row label.
fn ablation_points() -> [(&'static str, SimConfig); 9] {
    let base = SimConfig::multiscalar(8);
    let tiny = |policy| SimConfig { arb_capacity: 8, ..base.arb_policy(policy) };
    [
        ("baseline (8u, ring=1, PAs, stall)", base),
        ("ring latency 2", base.ring_latency(2)),
        ("ring latency 4", base.ring_latency(4)),
        ("ring width 4", base.ring_width(4)),
        ("static prediction", base.predictor(PredictorKind::StaticFirstTarget)),
        ("last-outcome prediction", base.predictor(PredictorKind::LastOutcome)),
        ("ARB overflow: squash", base.arb_policy(ArbFullPolicy::Squash)),
        ("tiny ARB (8 lines/bank), stall", tiny(ArbFullPolicy::Stall)),
        ("tiny ARB (8 lines/bank), squash", tiny(ArbFullPolicy::Squash)),
    ]
}

fn job(workload: &str, scale: Scale, kind: JobKind, cfg: SimConfig) -> Job {
    Job { workload: workload.to_string(), scale, kind, cfg, partition: None }
}

/// Per workload in `names`: the scalar baseline, then `cfgs` on the
/// multiscalar machine.
fn curves<'a>(
    names: impl IntoIterator<Item = &'a str>,
    scale: Scale,
    cfgs: impl Iterator<Item = SimConfig> + Clone,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    for name in names {
        jobs.push(job(name, scale, JobKind::Scalar, SimConfig::scalar()));
        jobs.extend(cfgs.clone().map(|cfg| job(name, scale, JobKind::Multiscalar, cfg)));
    }
    jobs
}

/// One of the artifacts the `tables` binary prints, in print order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table {
    /// Table 1: the functional-unit latencies (no design points).
    Latencies,
    /// Table 2: scalar-binary vs. 4-unit multiscalar-binary counts.
    Counts,
    /// Table 3 (in-order units) or Table 4 (`ooo`).
    Speedups {
        /// Out-of-order units (Table 4).
        ooo: bool,
    },
    /// The Section 3 cycle distribution on 8 units.
    Cycles,
    /// Speedup against 1 to 16 units for five workloads.
    Scaling,
    /// The DESIGN.md §4 ablation on three workloads.
    Ablation,
}

impl Table {
    /// Every table, in the order `tables all` prints them.
    pub const ALL: [Table; 7] = [
        Table::Latencies,
        Table::Counts,
        Table::Speedups { ooo: false },
        Table::Speedups { ooo: true },
        Table::Cycles,
        Table::Scaling,
        Table::Ablation,
    ];

    /// The `tables` selector that prints this table alone.
    pub fn selector(self) -> &'static str {
        match self {
            Table::Latencies => "table1",
            Table::Counts => "table2",
            Table::Speedups { ooo: false } => "table3",
            Table::Speedups { ooo: true } => "table4",
            Table::Cycles => "cycles",
            Table::Scaling => "scaling",
            Table::Ablation => "ablation",
        }
    }

    /// The design points this table reads, in the order
    /// [`Table::render`] takes their outcomes. Tables share points (all
    /// of Table 2 and of the cycle distribution are Table 3 points), so a
    /// caller printing several tables runs each distinct job once.
    pub fn jobs(self, scale: Scale) -> Vec<Job> {
        let names = || suite(scale).into_iter().map(|w| w.name);
        match self {
            Table::Latencies => Vec::new(),
            Table::Counts => curves(names(), scale, [SimConfig::multiscalar(4)].into_iter()),
            Table::Speedups { ooo } => SweepSpec::table34(scale, ooo).expand(),
            Table::Cycles => names()
                .map(|w| job(w, scale, JobKind::Multiscalar, SimConfig::multiscalar(CYCLE_UNITS)))
                .collect(),
            Table::Scaling => curves(
                SCALING_WORKLOADS,
                scale,
                SCALING_UNITS.into_iter().map(SimConfig::multiscalar),
            ),
            Table::Ablation => {
                curves(ABLATION_WORKLOADS, scale, ablation_points().into_iter().map(|(_, c)| c))
            }
        }
    }

    /// Renders the table from the outcomes of its own [`Table::jobs`],
    /// in that order.
    pub fn render(self, outcomes: &[&JobOutcome]) -> String {
        match self {
            Table::Latencies => table1(),
            Table::Counts => render_table2(outcomes),
            Table::Speedups { ooo } => render_table34(&table34_rows(outcomes), ooo),
            Table::Cycles => render_cycles(outcomes),
            Table::Scaling => render_scaling(outcomes),
            Table::Ablation => render_ablation(outcomes),
        }
    }
}

/// The outcomes of `jobs`, in their order, out of a `report` that ran
/// them among other points: how each table reads its own points from the
/// one sweep that `tables` runs for all of them.
///
/// # Errors
/// Returns the first of `jobs` that failed, with its job identity.
///
/// # Panics
/// Panics if `report` holds no outcome for one of `jobs`.
pub fn select<'r>(
    report: &'r SweepReport,
    jobs: &[Job],
) -> Result<Vec<&'r JobOutcome>, JobFailure> {
    jobs.iter()
        .map(|job| {
            report
                .outcome(job)
                .unwrap_or_else(|| panic!("the sweep ran no {}", job.id()))
                .map_err(JobFailure::clone)
        })
        .collect()
}

fn speedup(scalar: &JobOutcome, multi: &JobOutcome) -> f64 {
    scalar.stats.cycles as f64 / multi.stats.cycles as f64
}

/// Assembles Table 3/4 rows from successful outcomes of one issue order
/// that include the scalar baselines. Rows keep the outcomes' workload
/// order; widths and unit counts keep their order of appearance.
///
/// # Panics
/// Panics if a multiscalar point has no scalar baseline at its width.
pub fn table34_rows(outcomes: &[&JobOutcome]) -> Vec<EvalRow> {
    let mut rows: Vec<EvalRow> = Vec::new();
    for o in outcomes.iter().filter(|o| o.job.kind == JobKind::Multiscalar) {
        let width = o.job.cfg.issue_width;
        let s = outcomes
            .iter()
            .find(|s| {
                s.job.kind == JobKind::Scalar
                    && s.job.workload == o.job.workload
                    && s.job.cfg.issue_width == width
            })
            .unwrap_or_else(|| {
                panic!("sweep is missing the scalar baseline for {} w{width}", o.job.workload)
            });
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
                    scalar_ipc: s.stats.ipc(),
                    scalar_cycles: s.stats.cycles,
                    multi: Vec::new(),
                });
                row.per_width.last_mut().expect("just pushed")
            }
        };
        wres.multi.push(MultiResult {
            units: o.job.cfg.units,
            speedup: speedup(s, o),
            pred: o.stats.prediction_accuracy(),
            cycles: o.stats.cycles,
        });
    }
    rows
}

/// Assembles Table 3/4 rows from a sweep report (the outcomes of a
/// [`SweepSpec`] that included scalar baselines), from its points whose
/// issue order is `ooo`; see [`table34_rows`].
///
/// # Errors
/// Returns the first failed design point whose issue order matches
/// `ooo`, with its full job identity.
pub fn rows_from_sweep(report: &SweepReport, ooo: bool) -> Result<Vec<EvalRow>, JobFailure> {
    if let Some(f) = report.failures().find(|f| f.job.cfg.ooo == ooo) {
        return Err(f.clone());
    }
    let outcomes: Vec<&JobOutcome> = report.successes().filter(|o| o.job.cfg.ooo == ooo).collect();
    Ok(table34_rows(&outcomes))
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

/// Renders Table 2 from its points: per workload, the scalar run, then
/// the 4-unit run.
fn render_table2(outcomes: &[&JobOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: Benchmark Instruction Counts");
    let _ = writeln!(
        out,
        "{:10} | {:>12} {:>12} {:>9}",
        "Program", "Scalar", "Multiscalar", "Increase"
    );
    for pair in outcomes.chunks_exact(2) {
        let (scalar, multi) = (pair[0].stats.instructions, pair[1].stats.instructions);
        let increase =
            if scalar == 0 { 0.0 } else { 100.0 * (multi as f64 - scalar as f64) / scalar as f64 };
        let _ = writeln!(
            out,
            "{:10} | {:>12} {:>12} {:>8.1}%",
            pair[0].job.workload, scalar, multi, increase
        );
    }
    out
}

/// Renders the cycle-distribution report from one 8-unit run per
/// workload.
fn render_cycles(outcomes: &[&JobOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Section 3 cycle distribution ({CYCLE_UNITS}-unit multiscalar, 1-way in-order)\n"
    );
    let _ = writeln!(
        out,
        "{:10} {:>8} {:>9} {:>7} {:>7} {:>7} {:>6} {:>6}",
        "Program", "useful", "nonuseful", "inter", "intra", "retire", "arb", "idle"
    );
    for o in outcomes {
        let b = o.stats.breakdown;
        let t = b.total().max(1) as f64;
        let pct = |v: u64| 100.0 * v as f64 / t;
        let _ = writeln!(
            out,
            "{:10} {:>7.1}% {:>8.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>5.1}% {:>5.1}%",
            o.job.workload,
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

/// Renders the scaling curves: per workload, the scalar run, then one
/// run per unit count.
fn render_scaling(outcomes: &[&JobOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Speedup vs. processing units (1-way in-order)\n");
    let _ = write!(out, "{:10}", "Program");
    for u in SCALING_UNITS {
        let _ = write!(out, " {u:>6}");
    }
    let _ = writeln!(out);
    for curve in outcomes.chunks_exact(1 + SCALING_UNITS.len()) {
        let _ = write!(out, "{:10}", curve[0].job.workload);
        for m in &curve[1..] {
            let _ = write!(out, " {:>6.2}", speedup(curve[0], m));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders one ablation table per workload: per workload, the scalar
/// run, then one run per ablation point.
fn render_ablation(outcomes: &[&JobOutcome]) -> String {
    let points = ablation_points();
    let mut tables = Vec::new();
    for runs in outcomes.chunks_exact(1 + points.len()) {
        let mut out = String::new();
        let _ = writeln!(out, "Ablation: {} (8-unit, 1-way, in-order)", runs[0].job.workload);
        let _ = writeln!(
            out,
            "{:38} {:>8} {:>7} {:>9}",
            "configuration", "speedup", "pred", "squashes"
        );
        for ((label, _), m) in points.iter().zip(&runs[1..]) {
            let s = &m.stats;
            let _ = writeln!(
                out,
                "{:38} {:>8.2} {:>6.1}% {:>9}",
                label,
                speedup(runs[0], m),
                100.0 * s.prediction_accuracy(),
                s.control_squashes + s.memory_squashes + s.arb_squashes
            );
        }
        tables.push(out);
    }
    tables.join("\n")
}

/// Renders Table 1 (the functional-unit latency configuration actually
/// used by the simulator).
pub fn table1() -> String {
    let t = SimConfig::scalar().latencies;
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

#[cfg(test)]
mod tests {
    use super::*;
    use ms_sweep::{run_jobs, run_sweep, SweepOptions};

    /// Runs `table`'s own points at test scale and renders it.
    fn render_alone(table: Table) -> String {
        let jobs = table.jobs(Scale::Test);
        let report = run_jobs(jobs.clone(), &SweepOptions::default());
        table.render(&select(&report, &jobs).expect("every point succeeds"))
    }

    #[test]
    fn table2_rows_have_positive_increase_shape() {
        let rendered = render_alone(Table::Counts);
        let rows: Vec<&str> = rendered.lines().skip(2).collect();
        assert_eq!(rows.len(), 10, "{rendered}");
        for row in rows {
            let increase = row.split_whitespace().last().unwrap().trim_end_matches('%');
            assert!(increase.parse::<f64>().unwrap() >= 0.0, "{row}");
        }
        assert!(rendered.contains("Example"));
        assert!(rendered.contains("Compress"));
    }

    #[test]
    fn table3_one_row_renders() {
        let spec = SweepSpec {
            workloads: vec!["Wc".into()],
            widths: vec![1],
            unit_counts: vec![4],
            ..SweepSpec::table34(Scale::Test, false)
        };
        let rows = rows_from_sweep(&run_sweep(&spec, &SweepOptions::default()), false).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].per_width.len(), 1);
        assert!(rows[0].per_width[0].scalar_ipc > 0.0);
        assert!(rows[0].per_width[0].multi[0].speedup > 0.5);
        let s = render_table34(&rows, false);
        assert!(s.contains("Table 3"));
        assert!(s.contains("Wc"));
    }

    /// The scaling and ablation points are in-order multiscalar points
    /// too; a table read from a merged report must take only its own.
    #[test]
    fn each_table_reads_only_its_own_points_from_a_merged_sweep() {
        let tables = [Table::Speedups { ooo: false }, Table::Scaling, Table::Cycles];
        let own: Vec<Vec<Job>> = tables.iter().map(|t| t.jobs(Scale::Test)).collect();
        let mut merged: Vec<Job> = Vec::new();
        for j in own.iter().flatten() {
            if !merged.contains(j) {
                merged.push(j.clone());
            }
        }
        assert!(merged.len() < own.iter().map(Vec::len).sum(), "the tables share points");
        let report = run_jobs(merged, &SweepOptions { jobs: 2, ..SweepOptions::default() });
        for (table, jobs) in tables.into_iter().zip(&own) {
            assert_eq!(
                table.render(&select(&report, jobs).unwrap()),
                render_alone(table),
                "{table:?}"
            );
        }
        let t3 = &own[0];
        assert_eq!(
            table34_rows(&select(&report, t3).unwrap()).len(),
            10,
            "one Table 3 row per workload"
        );
    }

    #[test]
    fn tables_json_is_deterministic_and_shaped() {
        let row = EvalRow {
            name: "Wc".into(),
            per_width: vec![WidthResult {
                width: 1,
                scalar_ipc: 0.5,
                scalar_cycles: 100,
                multi: vec![MultiResult { units: 4, speedup: 1.25, pred: 0.9, cycles: 80 }],
            }],
        };
        let j1 = tables_to_json(Some(std::slice::from_ref(&row)), None);
        let j2 = tables_to_json(Some(std::slice::from_ref(&row)), None);
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"version\":1,\"table3\":[{\"name\":\"Wc\""));
        assert!(j1.contains("\"multi\":[{\"units\":4,\"speedup\":"));
        assert!(!j1.contains("table4"));
    }

    #[test]
    fn failed_point_carries_job_identity() {
        // An impossible cycle bound produces a real failure; selecting the
        // point must surface its design-point identity.
        let jobs = vec![job(
            "Wc",
            Scale::Test,
            JobKind::Multiscalar,
            SimConfig::multiscalar(4).max_cycles(1),
        )];
        let report = run_jobs(jobs.clone(), &SweepOptions::default());
        let msg = select(&report, &jobs).expect_err("must fail").to_string();
        assert!(msg.starts_with("wc@test/ms4/w1/inorder: "), "{msg}");
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
        let s = render_alone(Table::Cycles);
        for name in ["Compress", "Xlisp", "Example"] {
            assert!(s.contains(name), "{s}");
        }
    }
}
