//! `msperf` — host-side simulator throughput harness.
//!
//! ```text
//! cargo run --release -p ms-bench --bin msperf -- \
//!     [--workloads a,b,...] [--scale test|full] \
//!     [--machines scalar,ms4,ms8] [--reps N] [--out PATH] [--cpi]
//! ```
//!
//! Times each (workload, machine) point for `--reps` repetitions
//! (default 3), prints a throughput table (simulated cycles/sec,
//! retired instructions/sec, wall seconds per workload), and writes
//! `BENCH_perf.json` (default `--out BENCH_perf.json`; schema
//! `multiscalar-perf/v1`, documented in `ms_bench::perf`). Defaults
//! measure the full suite at full scale on scalar/ms4/ms8 — the same
//! grid the Table 3 sweep pays for, so these numbers predict sweep
//! turnaround.
//!
//! With `--cpi`, multiscalar points are timed with live CPI-stack
//! accounting (a `CpiAccountant` as the run's trace sink). CI runs
//! msperf with and without this flag and asserts the accounted timings
//! regress by less than 2%, bounding the cost of leaving accounting on
//! in sweeps.

use ms_bench::perf::{
    measure, measure_accounted, perf_to_json, render_perf, MachineSpec, PerfPoint,
};
use ms_sweep::artifacts;
use ms_workloads::cli::{parse_cli, positive, CliSpec};
use ms_workloads::Scale;

const USAGE: &str = "usage: msperf [--workloads a,b,...] [--scale test|full] \
                     [--machines scalar,ms4,ms8] [--reps N] [--out PATH] [--cpi]";
const SPEC: CliSpec = CliSpec {
    flags: &["--cpi"],
    options: &["--workloads", "--scale", "--machines", "--reps", "--out"],
};

fn usage(err: impl std::fmt::Display) -> ! {
    eprintln!("msperf: {err}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = parse_cli(&SPEC, std::env::args().skip(1)).unwrap_or_else(|e| usage(e));
    if let Some(extra) = args.positional.first() {
        usage(format!("unexpected argument `{extra}`"));
    }
    let scale = args.scale(Scale::Full).unwrap_or_else(|e| usage(e));
    let machines = args.list("--machines", MachineSpec::parse).unwrap_or_else(|e| usage(e));
    let machines = machines.unwrap_or_else(MachineSpec::defaults);
    let reps = args.get("--reps", positive).unwrap_or_else(|e| usage(e)).unwrap_or(3);
    let out_path = args.value("--out").unwrap_or("BENCH_perf.json");
    let cpi = args.has("--cpi");
    let suite = ms_workloads::suite(scale);
    let selected = args.workloads(&suite).unwrap_or_else(|e| usage(e));

    let mut points: Vec<PerfPoint> = Vec::new();
    for w in &selected {
        for m in &machines {
            let point = if cpi { measure_accounted(w, m, reps) } else { measure(w, m, reps) };
            match point {
                Ok(p) => points.push(p),
                Err(e) => {
                    eprintln!("{} on {}: {e}", w.name, m.name);
                    std::process::exit(1);
                }
            }
        }
    }

    print!("{}", render_perf(&points));
    let total: f64 = points.iter().map(PerfPoint::best_wall_secs).sum();
    println!("total best wall time: {total:.3} s over {} points (reps = {reps})", points.len());

    let json = perf_to_json(scale.id(), reps, &points);
    if let Err(e) = artifacts::write_atomic(std::path::Path::new(out_path), json.as_bytes()) {
        eprintln!("writing {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
