//! Experiment-sweep runner over the `ms-sweep` engine.
//!
//! Expands workload × configuration axes into independent simulation
//! jobs, executes them on a worker pool with an on-disk result cache,
//! and writes deterministic artifacts:
//!
//! ```text
//! cargo run --release -p ms-bench --bin mssweep -- \
//!     [--workloads wc,cmp,...] [--scale test|full] [--widths 1,2] \
//!     [--units 4,8] [--order inorder|ooo|both] [--partition AXES]... \
//!     [--jobs N] [--out-dir DIR] [--cache-dir DIR] [--no-cache] \
//!     [--metrics] [--cpi] [--quiet] [--list]
//! ```
//!
//! `--partition` adds an automatic-partitioning point to the multiscalar
//! axis: `AXES` is a `ms_cfg::PartitionPolicy` override list such as
//! `size=8,loops=0` (or `none` for the hand-annotated source), and the
//! flag repeats to sweep several policies side by side — task-partition
//! heuristics become an experiment knob like any `SimConfig` axis.
//! Without the flag, every job runs the hand-annotated sources exactly
//! as before.
//!
//! Defaults reproduce the paper's full Table 3 + Table 4 design space.
//! Under `--out-dir` (default `mssweep-out`) it writes:
//!
//! * `results.json` — every design point with its full `RunStats`,
//! * `results.csv`  — the flat sweep matrix,
//! * `BENCH_tables.json` — Table 3/4 rows (speedups, prediction
//!   accuracy) in the same format as `tables --json`,
//! * `metrics/` (with `--metrics`) — one `ms_trace::MetricsReport` JSON
//!   per executed multiscalar job.
//!
//! With `--cpi`, every multiscalar design point runs with a live cycle
//! accountant and its `results.json` entry gains a `"cpi"` object (the
//! conservation-checked CPI stack). Cache keys and cached bytes are
//! unaffected; multiscalar points simply bypass the cache probe, as with
//! `--metrics`.
//!
//! All artifacts are byte-identical regardless of `--jobs` and of
//! whether points came from the cache. The cache lives in
//! `.ms-sweep-cache` unless `--cache-dir` or `$MS_SWEEP_CACHE` says
//! otherwise; a warm re-run of an identical sweep executes zero
//! simulation jobs. Exits non-zero if any design point fails (the
//! failure is reported with its job identity; other points still
//! complete and appear in the artifacts).

use ms_bench::{render_table34, rows_from_sweep, tables_to_json};
use ms_sweep::{artifacts, run_sweep, SweepCache, SweepOptions, SweepSpec};
use ms_workloads::cli::{parse_cli, parsed, positive, CliArgs, CliError, CliSpec};
use ms_workloads::Scale;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    spec: SweepSpec,
    opts: SweepOptions,
    out_dir: PathBuf,
    quiet: bool,
    list: bool,
}

const USAGE: &str = "usage: mssweep [--workloads a,b,c] [--scale test|full] [--widths 1,2] \
                     [--units 4,8] [--order inorder|ooo|both] [--partition AXES|none]... \
                     [--jobs N] [--out-dir DIR] [--cache-dir DIR] [--no-cache] [--metrics] \
                     [--cpi] [--quiet]\n       mssweep --list";
const SPEC: CliSpec = CliSpec {
    flags: &["--list", "--no-cache", "--metrics", "--cpi", "--quiet"],
    options: &[
        "--workloads",
        "--scale",
        "--widths",
        "--units",
        "--order",
        "--partition",
        "--jobs",
        "--out-dir",
        "--cache-dir",
    ],
};

fn parse_args(args: &CliArgs) -> Result<Args, CliError> {
    if let Some(extra) = args.positional.first() {
        return Err(format!("unexpected argument `{extra}`").into());
    }
    let mut spec = SweepSpec::tables34(args.scale(Scale::Full)?);
    if let Some(names) = args.list("--workloads", parsed)? {
        spec.workloads = names;
    }
    // The paper's machine space (§5.1): 1- or 2-way issue, one unit or more.
    if let Some(widths) = args.list("--widths", |v| parsed(v).filter(|w| matches!(w, 1 | 2)))? {
        spec.widths = widths;
    }
    if let Some(units) = args.list("--units", positive)? {
        spec.unit_counts = units;
    }
    let order = |v: &str| match v {
        "inorder" => Some(vec![false]),
        "ooo" => Some(vec![true]),
        "both" => Some(vec![false, true]),
        _ => None,
    };
    if let Some(orders) = args.get("--order", order)? {
        spec.orders = orders;
    }
    for axes in args.values("--partition") {
        // Normalize to the policy's stable key so equivalent spellings
        // (`size=8` vs `loops=1,size=8`) share one design point and one
        // cache entry.
        spec.partitions.push(if axes == "none" {
            None
        } else {
            let policy = ms_cfg::PartitionPolicy::parse(axes);
            Some(policy.map_err(|e| format!("--partition: {e}"))?.stable_key())
        });
    }
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("mssweep-out"));
    let quiet = args.has("--quiet");
    let opts = SweepOptions {
        jobs: args.get("--jobs", parsed)?.unwrap_or(0),
        cache: SweepCache::from_cli(args),
        progress: !quiet,
        metrics_dir: args.has("--metrics").then(|| out_dir.join("metrics")),
        cpi: args.has("--cpi"),
    };
    Ok(Args { spec, opts, out_dir, quiet, list: args.has("--list") })
}

fn main() -> ExitCode {
    let args = match parse_cli(&SPEC, std::env::args().skip(1)).and_then(|a| parse_args(&a)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mssweep: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in ms_workloads::suite(Scale::Test) {
            println!("{:<12} {}", w.name, w.description);
        }
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    // Validate the cache directory up front (creating it if missing):
    // a bad --cache-dir is one structured startup error naming the
    // path, not a warning repeated on every job. msserve does the same.
    if let Err(e) = args.opts.cache.ensure_ready() {
        eprintln!("mssweep: {e}");
        return ExitCode::FAILURE;
    }

    let njobs = args.spec.expand().len();
    if !args.quiet {
        let workers = args.opts.worker_count(njobs);
        let cache_note = match args.opts.cache.dir() {
            Some(d) => format!("cache {}", d.display()),
            None => "cache disabled".to_string(),
        };
        eprintln!("mssweep: {njobs} jobs on {workers} workers ({cache_note})");
    }

    let started = Instant::now();
    let report = run_sweep(&args.spec, &args.opts);
    let elapsed = started.elapsed();

    let mut artifacts_written = Vec::new();
    let mut write = |name: &str, contents: String| -> bool {
        let path = args.out_dir.join(name);
        match artifacts::write_atomic(&path, contents.as_bytes()) {
            Ok(()) => {
                artifacts_written.push(path.display().to_string());
                true
            }
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                false
            }
        }
    };

    let mut io_ok = write("results.json", artifacts::results_json(&report));
    io_ok &= write("results.csv", artifacts::results_csv(&report));

    // Assemble Table 3/4 rows for whichever orders the sweep covered and
    // whose points all succeeded; a partial sweep still yields the rest.
    let mut table_rows = Vec::new();
    if report.failures().next().is_none() && args.spec.include_scalar {
        for &ooo in &args.spec.orders {
            if let Ok(rows) = rows_from_sweep(&report, ooo) {
                table_rows.push((ooo, rows));
            }
        }
    }
    if !table_rows.is_empty() {
        let find =
            |ooo: bool| table_rows.iter().find(|(o, _)| *o == ooo).map(|(_, rows)| rows.as_slice());
        io_ok &= write("BENCH_tables.json", tables_to_json(find(false), find(true)));
        for (ooo, rows) in &table_rows {
            println!("{}", render_table34(rows, *ooo));
        }
    }

    let failed = report.failures().count();
    println!(
        "sweep: {} jobs, {} executed, {} cached, {failed} failed in {:.2}s",
        report.total(),
        report.executed,
        report.cache_hits,
        elapsed.as_secs_f64(),
    );
    for f in report.failures() {
        eprintln!("FAILED {f}");
    }
    for path in &artifacts_written {
        println!("wrote {path}");
    }

    if failed > 0 || !io_ok {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
