//! Regenerates the paper's evaluation tables.
//!
//! ```text
//! cargo run --release -p ms-bench --bin tables -- \
//!     [all|table1|table2|table3|table4|cycles|ablation|scaling] \
//!     [--test-scale] [--jobs N] [--json PATH] [--cache-dir DIR] [--no-cache]
//! ```
//!
//! Table 3/4 regeneration runs on the `ms-sweep` engine: design points
//! execute in parallel (`--jobs`, default = available cores; `--jobs 1`
//! is the exact serial path) and are memoized in the on-disk result
//! cache (default `.ms-sweep-cache`, overridable with `--cache-dir` or
//! `$MS_SWEEP_CACHE`; `--no-cache` disables). Output is byte-identical
//! across worker counts. `--json PATH` additionally writes the computed
//! tables as machine-readable JSON (the `BENCH_tables.json` format).

use ms_bench::{
    ablation, evaluate_suite, render_ablation, render_cycles, render_scaling, render_table2,
    render_table34, table1, table2, tables_to_json, EvalRow,
};
use ms_sweep::{artifacts, JobFailure, SweepCache, SweepOptions};
use ms_workloads::cli::{parse_cli, parsed, CliSpec};
use ms_workloads::Scale;

const USAGE: &str = "usage: tables [all|table1|table2|table3|table4|cycles|ablation|scaling] \
                     [--test-scale] [--jobs N] [--json PATH] [--cache-dir DIR] [--no-cache]";
const SPEC: CliSpec = CliSpec {
    flags: &["--test-scale", "--no-cache"],
    options: &["--jobs", "--json", "--cache-dir"],
};
const SELECTORS: [&str; 9] =
    ["all", "table1", "config", "table2", "table3", "table4", "cycles", "ablation", "scaling"];

fn usage(err: impl std::fmt::Display) -> ! {
    eprintln!("tables: {err}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = parse_cli(&SPEC, std::env::args().skip(1)).unwrap_or_else(|e| usage(e));
    let what = match args.positional.as_slice() {
        [] => "all",
        [what] if SELECTORS.contains(&what.as_str()) => what.as_str(),
        [what] => usage(format!("unknown selector `{what}`")),
        _ => usage("more than one selector named"),
    };
    let run = |name: &str| what == "all" || what == name;
    let scale = if args.has("--test-scale") { Scale::Test } else { Scale::Full };
    let jobs = args.get("--jobs", parsed).unwrap_or_else(|e| usage(e)).unwrap_or(0);
    let json_path = args.value("--json");
    if json_path.is_some() && !["all", "table3", "table4"].contains(&what) {
        usage(format!("--json requires table3 and/or table4 (selector `{what}` computes neither)"));
    }

    let opts = SweepOptions { jobs, cache: SweepCache::from_cli(&args), ..SweepOptions::default() };
    let sweep_or_die = |ooo: bool| -> Vec<EvalRow> {
        evaluate_suite(ooo, scale, &opts).unwrap_or_else(|f: JobFailure| {
            eprintln!("design point failed: {f}");
            std::process::exit(1);
        })
    };

    if run("table1") || run("config") {
        println!("{}", table1());
    }
    if run("table2") {
        println!("{}", render_table2(&table2(scale)));
    }
    let mut rows3: Option<Vec<EvalRow>> = None;
    let mut rows4: Option<Vec<EvalRow>> = None;
    if run("table3") {
        let rows = sweep_or_die(false);
        println!("{}", render_table34(&rows, false));
        rows3 = Some(rows);
    }
    if run("table4") {
        let rows = sweep_or_die(true);
        println!("{}", render_table34(&rows, true));
        rows4 = Some(rows);
    }
    if run("cycles") {
        println!("{}", render_cycles(scale, 8));
    }
    if run("scaling") {
        println!("{}", render_scaling(scale));
    }
    if run("ablation") {
        for name in ["Example", "Wc", "Compress"] {
            let Some(w) = ms_workloads::by_name(name, scale) else {
                eprintln!("tables: ablation workload `{name}` is missing from the suite");
                std::process::exit(1);
            };
            println!("{}", render_ablation(name, &ablation(&w)));
        }
    }
    if let Some(path) = json_path {
        let json = tables_to_json(rows3.as_deref(), rows4.as_deref());
        if let Err(e) = artifacts::write_atomic(std::path::Path::new(path), json.as_bytes()) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
