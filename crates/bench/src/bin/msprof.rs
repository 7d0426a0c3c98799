//! `msprof` — CPI-stack profiler for the simulated machine.
//!
//! ```text
//! cargo run --release -p ms-bench --bin msprof -- \
//!     run [--workloads a,b,...] [--scale test|full] [--machines ms4,ms8] \
//!         [--out PATH] [--csv PATH] [--quiet]
//! cargo run --release -p ms-bench --bin msprof -- diff OLD.json NEW.json
//! ```
//!
//! `msprof run` sweeps each (workload, machine) point on the `ms-sweep`
//! engine, in parallel and with a live cycle accountant (never from the
//! result cache, which keeps no CPI stacks), prints the per-point
//! CPI-stack tables in workload-major order, and records the profile as
//! `multiscalar-prof/v1` JSON (default `BENCH_prof.json`; `--csv`
//! additionally writes the flat bucket matrix). Every number in
//! the profile is a simulated quantity, so the output is byte-identical
//! across runs of the same build — CI `cmp`s two runs to enforce this.
//!
//! `msprof diff` reads two recorded profiles and prints where the
//! unit-cycles moved: per shared point the cycle/CPI change plus every
//! bucket whose count changed, with its CPI contribution. This replaces
//! ad-hoc before/after notes in PERFORMANCE.md — record a profile on
//! `main`, record one on your branch, and diff them.
//!
//! Machines must be multiscalar (`ms<N>`): the scalar baseline has no
//! unit queue and no stall-attribution path to profile.

use ms_bench::perf::MachineSpec;
use ms_bench::prof::{
    self, diff_profiles, parse_profile, profile_to_csv, profile_to_json, render_profile,
};
use ms_sweep::artifacts;
use ms_workloads::cli::{parse_cli, CliArgs, CliSpec};
use ms_workloads::Scale;

const USAGE: &str = "usage: msprof run [--workloads a,b,...] [--scale test|full] \
                     [--machines ms4,ms8] [--out PATH] [--csv PATH] [--quiet]\n       \
                     msprof diff OLD.json NEW.json";
const RUN_SPEC: CliSpec = CliSpec {
    flags: &["--quiet"],
    options: &["--workloads", "--scale", "--machines", "--out", "--csv"],
};
const DIFF_SPEC: CliSpec = CliSpec { flags: &[], options: &[] };

fn usage(err: impl std::fmt::Display) -> ! {
    eprintln!("msprof: {err}\n{USAGE}");
    std::process::exit(2);
}

fn cmd_run(args: &CliArgs) {
    if let Some(extra) = args.positional.first() {
        usage(format!("unexpected argument `{extra}`"));
    }
    let scale = args.scale(Scale::Full).unwrap_or_else(|e| usage(e));
    // Only multiscalar machines have a unit queue to profile.
    let machines = args.list("--machines", |n| MachineSpec::parse(n).filter(|m| m.multiscalar));
    let machines = machines
        .unwrap_or_else(|e| usage(e))
        .unwrap_or_else(|| ["ms4", "ms8"].iter().filter_map(|n| MachineSpec::parse(n)).collect());
    let out_path = args.value("--out").unwrap_or("BENCH_prof.json");
    let suite = ms_workloads::suite(scale);
    let selected = args.workloads(&suite).unwrap_or_else(|e| usage(e));

    let names: Vec<&str> = selected.iter().map(|w| w.name).collect();
    let points = prof::sweep(&names, &machines, scale).unwrap_or_else(|f| {
        eprintln!("msprof: design point failed: {f}");
        std::process::exit(1);
    });

    if !args.has("--quiet") {
        print!("{}", render_profile(&points));
    }

    let json = profile_to_json(scale.id(), &points);
    if let Err(e) = artifacts::write_atomic(std::path::Path::new(out_path), json.as_bytes()) {
        eprintln!("writing {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path} ({} points)", points.len());

    if let Some(path) = args.value("--csv") {
        if let Err(e) =
            artifacts::write_atomic(std::path::Path::new(path), profile_to_csv(&points).as_bytes())
        {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}

fn cmd_diff(args: &CliArgs) {
    let [old_path, new_path] = args.positional.as_slice() else {
        usage("diff takes exactly two profiles")
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("reading {path}: {e}");
            std::process::exit(1);
        });
        parse_profile(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    if old.scale != new.scale {
        eprintln!("note: profiles taken at different scales ({} vs {})", old.scale, new.scale);
    }
    print!("{}", diff_profiles(&old, &new));
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let (spec, cmd): (_, fn(&CliArgs)) = match argv.next().as_deref() {
        Some("run") => (RUN_SPEC, cmd_run),
        Some("diff") => (DIFF_SPEC, cmd_diff),
        _ => usage("expected `run` or `diff`"),
    };
    cmd(&parse_cli(&spec, argv).unwrap_or_else(|e| usage(e)));
}
