//! `perfbench`: the repository's benchmark. One run measures one
//! workload for a fixed time from a seed, checks every output, and prints
//! its metrics; see `README.md` next to this crate for what each metric
//! means and which layer it belongs to.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|test] [--expect <file>] [--out-dir <dir>]
//! perfbench --bless [--scale full|test] [--expect <file>]
//! perfbench diff <a.trace.json> <b.trace.json>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod expect;
mod passes;
mod serve;
mod sim;
mod toolchain;
mod trace;
mod util;

use ms_workloads::Scale;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["ms-lowipc", "ms-highipc", "serve", "toolchain"];

/// Seed used when `--seed` is absent. Seed 1995 is held out: tuning
/// never used it, so a claimed speed-up must also hold there.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// End-to-end metrics (`--trace 0`): name and unit. The latency
/// quantiles (`op_ms_p50`, `op_ms_p95`) are printed on the lines before
/// the result but not gated: on a shared host a single operation's time
/// spreads too far between runs for any bound the benchmark may set.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.generate_ms", "ms"),
    ("asm.assemble_ms", "ms"),
    ("core.new_ms", "ms"),
    ("workloads.verify_ms", "ms"),
    ("core.run_s.scalar", "s"),
    ("core.run_s.ms4", "s"),
    ("core.run_s.ms8", "s"),
    ("core.run_s.ms8w2ooo", "s"),
    ("core.unit_cycle_ns", "ns"),
    ("core.scalar_cycle_ns", "ns"),
    ("cfg.partition_ms", "ms"),
    ("cfg.check_ms", "ms"),
    ("asm.reassemble_ms", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.simulate_ms_p50", "ms"),
    ("serve.miss_overhead_ms_p50", "ms"),
    ("serve.ping_us_p50", "us"),
    ("sweep.cache_load_us_p50", "us"),
    ("core.skip.cycle_frac", "frac"),
    ("core.skip.probe_yield", "frac"),
    ("pipeline.park.unit_cycle_frac", "frac"),
    ("pipeline.park.probe_yield", "frac"),
    ("pipeline.issued_frac", "frac"),
    ("pipeline.stall.remote_dep_frac", "frac"),
    ("pipeline.stall.local_dep_frac", "frac"),
    ("pipeline.stall.wait_retire_frac", "frac"),
    ("pipeline.stall.fetch_empty_frac", "frac"),
    ("pipeline.stall.squash_recovery_frac", "frac"),
    ("pipeline.stall.no_task_frac", "frac"),
    ("core.squashed_task_frac", "frac"),
    ("predictor.accuracy", "frac"),
    ("ring.sends_per_kinstr", "1/kinstr"),
    ("ring.hops_per_kinstr", "1/kinstr"),
    ("memsys.arb_loads_per_kinstr", "1/kinstr"),
    ("memsys.arb_stores_per_kinstr", "1/kinstr"),
    ("memsys.arb_violations", "count"),
    ("memsys.dcache_miss_rate", "frac"),
    ("memsys.icache_miss_rate", "frac"),
    ("memsys.bus_wait_cycles", "cycles"),
    ("cfg.tasks_emitted", "count"),
    ("serve.hit_ratio", "frac"),
    ("serve.dedup_joins", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.overloaded", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.span_coverage", "frac"),
    ("trace.spans", "count"),
];

/// How one run was asked for.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub expect: PathBuf,
    pub out_dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Median set-up seconds over [`SETUP_REPS`].
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for standard error.
    pub errors: Vec<String>,
    pub ops_per_s: f64,
    pub op_ms_p50: f64,
    pub op_ms_p95: f64,
    /// Per-layer metrics this workload exercises.
    pub layers: BTreeMap<&'static str, f64>,
    /// Figures under the names the metric map uses, printed for people.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// Exact simulated counts, written to the trace file for `diff`.
    pub counters: BTreeMap<String, u64>,
    /// Every span the traced run recorded.
    pub spans: Vec<trace::Span>,
}

impl Report {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }
}

fn usage() -> String {
    "usage: perfbench --workload <ms-lowipc|ms-highipc|serve|toolchain> [--seed N] \
     [--seconds S] [--trace 0|1] [--scale full|test] [--expect FILE] [--out-dir DIR]\n\
     \x20      perfbench --bless [--scale full|test] [--expect FILE]\n\
     \x20      perfbench diff A.trace.json B.trace.json"
        .to_string()
}

fn default_expect(scale: Scale) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expect").join(format!("{}.txt", scale.id()))
}

enum Mode {
    Run(Opts),
    Bless { scale: Scale, path: PathBuf },
    Diff(String, String),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("diff") {
        return match args {
            [_, a, b] => Ok(Mode::Diff(a.clone(), b.clone())),
            _ => Err(usage()),
        };
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut expect = None;
    let mut out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut bless = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => scale = Scale::parse(value).ok_or_else(bad)?,
            "--expect" => expect = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    let expect = expect.unwrap_or_else(|| default_expect(scale));
    if bless {
        return Ok(Mode::Bless { scale, path: expect });
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Mode::Run(Opts { workload, seed, seconds, trace, scale, expect, out_dir }))
}

/// Re-measures every pinned count and writes the expectation file.
fn bless(scale: Scale, path: &std::path::Path) -> Result<(), String> {
    let mut counts = sim::bless(scale)?;
    counts.extend(toolchain::bless(scale)?);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, expect::render(&counts))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} counts to {}", counts.len(), path.display());
    Ok(())
}

fn run(opts: &Opts) -> Result<Report, String> {
    let expect = expect::load(&opts.expect)?;
    let tracer = Arc::new(Tracer::new(opts.trace));
    match opts.workload.as_str() {
        "ms-lowipc" => sim::run(opts, &tracer, &expect, &sim::LOW_IPC),
        "ms-highipc" => sim::run(opts, &tracer, &expect, &sim::HIGH_IPC),
        "toolchain" => toolchain::run(opts, &tracer, &expect),
        _ => serve::run(opts, &tracer, &expect),
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    use ms_trace::json::{number, string};
    format!("{}:{{\"value\":{},\"unit\":{}}}", string(name), number(value), string(unit))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Mode::Run(opts)) => opts,
        Ok(Mode::Bless { scale, path }) => {
            return match bless(scale, &path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Mode::Diff(a, b)) => {
            return match trace::diff(&a, &b) {
                Ok((text, changed)) => {
                    print!("{text}");
                    if changed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: set-up failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("perfbench: {}: error: {e}", opts.workload);
    }
    let correct = report.failed == 0;
    let error_rate = util::ratio(report.failed as f64, report.attempted as f64);
    let rss = util::peak_rss_mb();

    println!(
        "workload {} seed {} scale {} trace {}",
        opts.workload,
        opts.seed,
        opts.scale.id(),
        u8::from(opts.trace)
    );
    let mut lines: Vec<(&str, f64, &str)> = vec![
        ("setup_s", report.setup_s, "s"),
        ("ops_per_s", report.ops_per_s, "1/s"),
        ("op_ms_p50", report.op_ms_p50, "ms"),
        ("op_ms_p95", report.op_ms_p95, "ms"),
    ];
    lines.extend(report.notes.iter().copied());
    lines.push(("error_rate", error_rate, "frac"));
    lines.push(("peak_rss_mb", rss, "MiB"));
    for (name, value, unit) in &lines {
        println!("  {name:<36} {value:>16.6} {unit}");
    }

    let metrics: Vec<String> = if opts.trace {
        let mut layers = report.layers.clone();
        let path = opts.out_dir.join(format!("{}-seed{}.trace.json", opts.workload, opts.seed));
        layers.insert("trace.spans", report.spans.len() as f64);
        for (name, _) in PER_LAYER {
            layers.entry(name).or_insert(0.0);
        }
        for (name, value) in &layers {
            println!("  {name:<36} {value:>16.6}");
        }
        let header = [
            ("workload", opts.workload.clone()),
            ("seed", opts.seed.to_string()),
            ("scale", opts.scale.id().to_string()),
        ];
        if let Err(e) = trace::write(&path, &header, &report.spans, &report.counters, &layers) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace written to {}", path.display());
        PER_LAYER.iter().map(|(name, unit)| metric_json(name, layers[name], unit)).collect()
    } else {
        let values = [report.setup_s, report.ops_per_s, rss];
        END_TO_END.iter().zip(values).map(|((name, unit), v)| metric_json(name, v, unit)).collect()
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
