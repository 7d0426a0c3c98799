//! `mschaos` — the fault-injection campaign runner.
//!
//! ```text
//! cargo run --release -p ms-chaos --bin mschaos -- \
//!     [--workloads a,b,...] [--plans mispredict,ring,arb,squash,storm] \
//!     [--seeds N] [--seed-base B] [--units N] [--scale test|full] \
//!     [--max-cycles N] [--watchdog N|off] [--out PATH]
//! ```
//!
//! Runs every (workload × plan × seed) point of the microarchitectural
//! campaign, checks the sequential-semantics oracle, prints a summary,
//! and writes a deterministic JSON report (default `CHAOS_report.json`;
//! schema `multiscalar-chaos/v1`). Exits non-zero on any oracle
//! violation, printing a minimal repro line per failing point.

use ms_chaos::{run_campaign, Campaign, PLAN_NAMES};
use ms_sweep::artifacts;
use ms_workloads::cli::{parse_cli, parsed, positive, units, CliArgs, CliError, CliSpec};

fn usage(err: impl std::fmt::Display) -> ! {
    eprintln!(
        "mschaos: {err}\n\
         usage: mschaos [--workloads a,b,...] [--plans {}] \
         [--seeds N] [--seed-base B] [--units N] [--scale test|full] \
         [--max-cycles N] [--watchdog N|off] [--out PATH]",
        PLAN_NAMES.join(","),
    );
    std::process::exit(2);
}

const SPEC: CliSpec = CliSpec {
    flags: &[],
    options: &[
        "--workloads",
        "--plans",
        "--seeds",
        "--seed-base",
        "--units",
        "--scale",
        "--out",
        "--max-cycles",
        "--watchdog",
    ],
};

/// Writes a report artifact crash-safely; exits on failure.
fn write_report(path: &str, bytes: &str) {
    if let Err(e) = artifacts::write_atomic(std::path::Path::new(path), bytes.as_bytes()) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

fn campaign(args: &CliArgs) -> Result<Campaign, CliError> {
    let d = Campaign::default();
    let watchdog = |v: &str| if v == "off" { Some(None) } else { positive(v).map(Some) };
    Ok(Campaign {
        workloads: args.list("--workloads", parsed)?.unwrap_or(d.workloads),
        plans: args.list("--plans", parsed)?.unwrap_or(d.plans),
        seeds: args.get("--seeds", positive)?.unwrap_or(d.seeds),
        seed_base: args.get("--seed-base", parsed)?.unwrap_or(d.seed_base),
        units: args.get("--units", units)?.unwrap_or(d.units),
        scale: args.scale(d.scale)?,
        max_cycles: args.get("--max-cycles", positive)?.unwrap_or(d.max_cycles),
        watchdog: args.get("--watchdog", watchdog)?.unwrap_or(d.watchdog),
    })
}

fn main() {
    let args = parse_cli(&SPEC, std::env::args().skip(1)).unwrap_or_else(|e| usage(e));
    if let Some(extra) = args.positional.first() {
        usage(format!("unexpected argument `{extra}`"));
    }
    let campaign = campaign(&args).unwrap_or_else(|e| usage(e));
    let out_path = args.value("--out").unwrap_or("CHAOS_report.json");

    let report = run_campaign(&campaign).unwrap_or_else(|e| {
        eprintln!("mschaos: {e}");
        std::process::exit(2);
    });

    let failures = report.failures();
    println!(
        "mschaos: {} points ({} workloads x {} plans x {} seeds): {} passed, {} failed",
        report.points.len(),
        report.points.iter().map(|p| &p.workload).collect::<std::collections::BTreeSet<_>>().len(),
        campaign.plans.len(),
        campaign.seeds,
        report.points.len() - failures,
        failures,
    );
    for p in report.points.iter().filter(|p| p.failure.is_some()) {
        println!(
            "FAIL {} {} seed {}: {}\n  repro: {}",
            p.workload,
            p.plan,
            p.seed,
            p.failure.as_deref().unwrap_or(""),
            p.repro(&campaign),
        );
    }

    write_report(out_path, &report.to_json());
    if failures > 0 {
        std::process::exit(1);
    }
}
