//! `mschaos` — the fault-injection campaign runner.
//!
//! ```text
//! cargo run --release -p ms-chaos --bin mschaos -- \
//!     [--workloads a,b,...] [--plans mispredict,ring,arb,squash,storm] \
//!     [--seeds N] [--seed-base B] [--units N] [--scale test|full] \
//!     [--max-cycles N] [--watchdog N|off] [--out PATH]
//!
//! cargo run --release -p ms-chaos --bin mschaos -- serve \
//!     [--workloads a,b,...] [--plans torn-cache,conn-drop] \
//!     [--seeds N] [--seed-base B] [--units N] [--scale test|full] \
//!     [--artifacts DIR] [--out PATH]
//! ```
//!
//! The default mode runs every (workload × plan × seed) point of the
//! *microarchitectural* campaign, checks the sequential-semantics
//! oracle, prints a summary, and writes a deterministic JSON report
//! (default `CHAOS_report.json`; schema `multiscalar-chaos/v1`). Exits
//! non-zero on any oracle violation, printing a minimal repro line per
//! failing point.
//!
//! The `serve` subcommand runs the *service-layer* campaign instead:
//! seeded host faults (torn cache files, dropped connections to a live
//! daemon), checking that the merged artifact stays byte-identical to an
//! undisturbed run (report `CHAOS_serve_report.json`; schema
//! `multiscalar-chaos-serve/v2`). `--artifacts DIR` additionally writes
//! every point's merged bytes next to the baseline so CI can `cmp` them.
//! Exits non-zero on any violated check or unmet robustness floor.

use ms_chaos::{run_campaign, run_serve_campaign, Campaign, ServeCampaign};
use ms_chaos::{HOST_PLAN_NAMES, PLAN_NAMES};
use ms_sweep::artifacts;
use ms_workloads::cli::{parse_cli, parsed, positive, CliArgs, CliError, CliSpec};

fn usage(err: impl std::fmt::Display) -> ! {
    eprintln!(
        "mschaos: {err}\n\
         usage: mschaos [--workloads a,b,...] [--plans {}] \
         [--seeds N] [--seed-base B] [--units N] [--scale test|full] \
         [--max-cycles N] [--watchdog N|off] [--out PATH]\n\
         \x20      mschaos serve [--workloads a,b,...] [--plans {}] \
         [--seeds N] [--seed-base B] [--units N] [--scale test|full] \
         [--artifacts DIR] [--out PATH]",
        PLAN_NAMES.join(","),
        HOST_PLAN_NAMES.join(","),
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
const SERVE_SPEC: CliSpec = CliSpec {
    flags: &[],
    options: &[
        "--workloads",
        "--plans",
        "--seeds",
        "--seed-base",
        "--units",
        "--scale",
        "--out",
        "--artifacts",
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

fn serve_campaign(args: &CliArgs) -> Result<ServeCampaign, CliError> {
    let d = ServeCampaign::default();
    Ok(ServeCampaign {
        workloads: args.list("--workloads", parsed)?.unwrap_or(d.workloads),
        plans: args.list("--plans", parsed)?.unwrap_or(d.plans),
        seeds: args.get("--seeds", positive)?.unwrap_or(d.seeds),
        seed_base: args.get("--seed-base", parsed)?.unwrap_or(d.seed_base),
        units: args.get("--units", positive)?.unwrap_or(d.units),
        scale: args.scale(d.scale)?,
        artifacts_dir: args.value("--artifacts").map(Into::into).or(d.artifacts_dir),
        ..d
    })
}

fn serve_main(args: &CliArgs) -> ! {
    let campaign = serve_campaign(args).unwrap_or_else(|e| usage(e));
    let out_path = args.value("--out").unwrap_or("CHAOS_serve_report.json");

    let report = run_serve_campaign(&campaign).unwrap_or_else(|e| {
        eprintln!("mschaos serve: {e}");
        std::process::exit(2);
    });

    let failures = report.failures();
    println!(
        "mschaos serve: {} points ({} plans x {} seeds): {} passed, {} failed",
        report.points.len(),
        campaign.plans.len(),
        campaign.seeds,
        report.points.len() - failures,
        failures,
    );
    println!("  cache-quarantined {}", report.cache_quarantined());
    for p in report.points.iter().filter(|p| p.failure.is_some()) {
        println!(
            "FAIL {} seed {}: {}\n  repro: mschaos serve --plans {} --seeds 1 --seed-base {} \
             --units {} --scale {}",
            p.plan,
            p.seed,
            p.failure.as_deref().unwrap_or(""),
            p.plan,
            p.seed,
            campaign.units,
            campaign.scale.id(),
        );
    }
    let gaps = report.robustness_gaps();
    for gap in &gaps {
        println!("FLOOR {gap}");
    }

    write_report(out_path, &report.to_json());
    if failures > 0 || !gaps.is_empty() {
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn campaign(args: &CliArgs) -> Result<Campaign, CliError> {
    let d = Campaign::default();
    let watchdog = |v: &str| if v == "off" { Some(None) } else { positive(v).map(Some) };
    Ok(Campaign {
        workloads: args.list("--workloads", parsed)?.unwrap_or(d.workloads),
        plans: args.list("--plans", parsed)?.unwrap_or(d.plans),
        seeds: args.get("--seeds", positive)?.unwrap_or(d.seeds),
        seed_base: args.get("--seed-base", parsed)?.unwrap_or(d.seed_base),
        units: args.get("--units", positive)?.unwrap_or(d.units),
        scale: args.scale(d.scale)?,
        max_cycles: args.get("--max-cycles", positive)?.unwrap_or(d.max_cycles),
        watchdog: args.get("--watchdog", watchdog)?.unwrap_or(d.watchdog),
    })
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    let serve = argv.next_if_eq("serve").is_some();
    let args =
        parse_cli(if serve { &SERVE_SPEC } else { &SPEC }, argv).unwrap_or_else(|e| usage(e));
    if let Some(extra) = args.positional.first() {
        usage(format!("unexpected argument `{extra}`"));
    }
    if serve {
        serve_main(&args);
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
