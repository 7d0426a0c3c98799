//! Regenerates the paper's evaluation tables.
//!
//! ```text
//! cargo run --release -p ms-bench --bin tables -- \
//!     [all|table1|table2|table3|table4|cycles|ablation|scaling] \
//!     [--test-scale] [--jobs N] [--json PATH] [--cache-dir DIR] [--no-cache]
//! ```
//!
//! Every selector runs on the `ms-sweep` engine: the selected tables'
//! design points are merged, a point two tables share runs once, and the
//! points execute in parallel (`--jobs`, default = available cores;
//! `--jobs 1` is the exact serial path) and are memoized in the on-disk
//! result cache (default `.ms-sweep-cache`, overridable with
//! `--cache-dir` or `$MS_SWEEP_CACHE`; `--no-cache` disables). Each
//! table is rendered from its own points only, so the output is
//! byte-identical across worker counts and cache states. `--json PATH`
//! additionally writes Tables 3 and 4 as machine-readable JSON (the
//! `BENCH_tables.json` format). A failed design point prints
//! `design point failed: <job id>: <error>` after the tables before it
//! and exits 1.

use ms_bench::{select, table34_rows, tables_to_json, Table};
use ms_sweep::{artifacts, run_jobs, Job, SweepCache, SweepOptions};
use ms_workloads::cli::{parse_cli, parsed, CliSpec};
use ms_workloads::Scale;

const USAGE: &str = "usage: tables [all|table1|table2|table3|table4|cycles|ablation|scaling] \
                     [--test-scale] [--jobs N] [--json PATH] [--cache-dir DIR] [--no-cache]";
const SPEC: CliSpec = CliSpec {
    flags: &["--test-scale", "--no-cache"],
    options: &["--jobs", "--json", "--cache-dir"],
};

fn usage(err: impl std::fmt::Display) -> ! {
    eprintln!("tables: {err}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = parse_cli(&SPEC, std::env::args().skip(1)).unwrap_or_else(|e| usage(e));
    let what = match args.positional.as_slice() {
        [] => "all",
        [what] => what.as_str(),
        _ => usage("more than one selector named"),
    };
    let selector = if what == "config" { Table::Latencies.selector() } else { what };
    let tables: Vec<Table> =
        Table::ALL.into_iter().filter(|t| what == "all" || selector == t.selector()).collect();
    if tables.is_empty() {
        usage(format!("unknown selector `{what}`"));
    }
    let scale = if args.has("--test-scale") { Scale::Test } else { Scale::Full };
    let jobs = args.get("--jobs", parsed).unwrap_or_else(|e| usage(e)).unwrap_or(0);
    let json_path = args.value("--json");
    if json_path.is_some() && !tables.iter().any(|t| matches!(t, Table::Speedups { .. })) {
        usage(format!("--json requires table3 and/or table4 (selector `{what}` computes neither)"));
    }

    // Tables share points (all of Table 2 is Table 3's), so each distinct
    // point runs once; each table still reads only its own jobs, since
    // the in-order scaling and ablation points would otherwise join
    // Table 3's rows.
    let own: Vec<Vec<Job>> = tables.iter().map(|t| t.jobs(scale)).collect();
    let mut merged: Vec<Job> = Vec::new();
    for job in own.iter().flatten() {
        if !merged.contains(job) {
            merged.push(job.clone());
        }
    }
    let opts = SweepOptions { jobs, cache: SweepCache::from_cli(&args), ..SweepOptions::default() };
    let report = run_jobs(merged, &opts);

    let mut rows = [None, None]; // Table 3 and Table 4, for `--json`
    for (table, jobs) in tables.into_iter().zip(&own) {
        let outcomes = select(&report, jobs).unwrap_or_else(|f| {
            eprintln!("design point failed: {f}");
            std::process::exit(1);
        });
        println!("{}", table.render(&outcomes));
        if let Table::Speedups { ooo } = table {
            rows[usize::from(ooo)] = Some(table34_rows(&outcomes));
        }
    }
    if let Some(path) = json_path {
        let json = tables_to_json(rows[0].as_deref(), rows[1].as_deref());
        if let Err(e) = artifacts::write_atomic(std::path::Path::new(path), json.as_bytes()) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
