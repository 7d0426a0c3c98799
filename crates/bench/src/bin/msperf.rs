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
//! accounting (`run_multiscalar_with_accountant`). CI runs msperf with
//! and without this flag and asserts the accounted timings regress by
//! less than 2%, bounding the cost of leaving accounting on in sweeps.

use ms_bench::perf::{
    measure, measure_accounted, perf_to_json, render_perf, MachineSpec, PerfPoint,
};
use ms_sweep::artifacts;
use ms_workloads::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: msperf [--workloads a,b,...] [--scale test|full] \
         [--machines scalar,ms4,ms8] [--reps N] [--out PATH] [--cpi]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workloads: Option<Vec<String>> = None;
    let mut scale = Scale::Full;
    let mut machines = MachineSpec::defaults();
    let mut reps = 3usize;
    let mut out_path = "BENCH_perf.json".to_string();
    let mut cpi = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workloads" => {
                let list = it.next().unwrap_or_else(|| {
                    eprintln!("--workloads needs a comma-separated list");
                    usage()
                });
                workloads = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--scale" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--scale needs test|full");
                    usage()
                });
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale `{v}` (use test|full)");
                    usage()
                });
            }
            "--machines" => {
                let list = it.next().unwrap_or_else(|| {
                    eprintln!("--machines needs a comma-separated list");
                    usage()
                });
                machines = list
                    .split(',')
                    .map(|name| {
                        MachineSpec::parse(name.trim()).unwrap_or_else(|| {
                            eprintln!("unknown machine `{name}` (use scalar or ms<N>)");
                            usage()
                        })
                    })
                    .collect();
            }
            "--reps" => {
                reps = it.next().and_then(|v| v.parse().ok()).filter(|&r| r > 0).unwrap_or_else(
                    || {
                        eprintln!("--reps needs a positive integer");
                        usage()
                    },
                );
            }
            "--out" => {
                out_path = it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    usage()
                });
            }
            "--cpi" => cpi = true,
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }

    let suite = ms_workloads::suite(scale);
    let selected: Vec<_> = match &workloads {
        None => suite.iter().collect(),
        Some(names) => names
            .iter()
            .map(|n| {
                suite.iter().find(|w| w.name.eq_ignore_ascii_case(n)).unwrap_or_else(|| {
                    eprintln!("unknown workload `{n}`");
                    std::process::exit(2);
                })
            })
            .collect(),
    };

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
    if let Err(e) = artifacts::write_atomic(std::path::Path::new(&out_path), json.as_bytes()) {
        eprintln!("writing {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
