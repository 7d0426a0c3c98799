//! Debug driver: run one workload by name at test scale and print stats.
//!
//! Usage: `wldbg [name] [scalar|ms] [units] [--max-cycles N]`
//!
//! The workload defaults to `Example`, the mode to the scalar baseline,
//! the unit count (for `ms`) to 4 and the cycle bound to 3,000,000. On a
//! timeout or a stalled run the full diagnostic snapshot is printed.

use ms_workloads::cli::{self, parse_cli, parsed, CliSpec};
use ms_workloads::{by_name, Scale, WorkloadError};
use multiscalar::SimConfig;

const USAGE: &str = "usage: wldbg [name] [scalar|ms] [units] [--max-cycles N]";
const SPEC: CliSpec = CliSpec { flags: &[], options: &["--max-cycles"] };

fn usage(err: impl std::fmt::Display) -> ! {
    eprintln!("wldbg: {err}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = parse_cli(&SPEC, std::env::args().skip(1)).unwrap_or_else(|e| usage(e));
    let max_cycles = args.get("--max-cycles", parsed).unwrap_or_else(|e| usage(e));
    let max_cycles = max_cycles.unwrap_or(3_000_000);
    let (name, mode, units) = match args.positional.as_slice() {
        [] => ("Example", "scalar", "4"),
        [name] => (name.as_str(), "scalar", "4"),
        [name, mode] => (name.as_str(), mode.as_str(), "4"),
        [name, mode, units] => (name.as_str(), mode.as_str(), units.as_str()),
        [_, _, _, extra, ..] => usage(format!("unexpected argument `{extra}`")),
    };
    let Some(w) = by_name(name, Scale::Test) else { usage(format!("unknown workload `{name}`")) };
    let Some(units) = cli::units(units) else { usage(format!("invalid unit count `{units}`")) };
    let result = match mode {
        "scalar" => w.run_scalar(SimConfig::scalar().max_cycles(max_cycles)),
        "ms" => w.run_multiscalar(SimConfig::multiscalar(units).max_cycles(max_cycles)),
        _ => usage(format!("unknown mode `{mode}`")),
    };
    match result {
        Ok(stats) => println!("{name} {mode}: ok\n{stats}"),
        Err(e) => {
            println!("{name} {mode}: ERROR {e}");
            if let WorkloadError::Sim(sim) = &e {
                if let Some(snap) = sim.snapshot() {
                    println!("{snap}");
                }
            }
            std::process::exit(1);
        }
    }
}
