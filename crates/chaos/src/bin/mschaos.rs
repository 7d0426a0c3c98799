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
use ms_workloads::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: mschaos [--workloads a,b,...] [--plans {}] \
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

/// Writes a report artifact crash-safely; exits on failure.
fn write_report(path: &str, bytes: &str) {
    if let Err(e) = artifacts::write_atomic(std::path::Path::new(path), bytes.as_bytes()) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

fn serve_main(mut it: std::iter::Skip<std::env::Args>) -> ! {
    let mut campaign = ServeCampaign::default();
    let mut out_path = "CHAOS_serve_report.json".to_string();

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workloads" => {
                let list = it.next().unwrap_or_else(|| {
                    eprintln!("--workloads needs a comma-separated list");
                    usage()
                });
                campaign.workloads = list.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--plans" => {
                let list = it.next().unwrap_or_else(|| {
                    eprintln!("--plans needs a comma-separated list");
                    usage()
                });
                campaign.plans = list.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--seeds" => {
                campaign.seeds =
                    it.next().and_then(|v| v.parse().ok()).filter(|&s| s > 0).unwrap_or_else(
                        || {
                            eprintln!("--seeds needs a positive integer");
                            usage()
                        },
                    );
            }
            "--seed-base" => {
                campaign.seed_base = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed-base needs an integer");
                    usage()
                });
            }
            "--units" => {
                campaign.units =
                    it.next().and_then(|v| v.parse().ok()).filter(|&u| u > 0).unwrap_or_else(
                        || {
                            eprintln!("--units needs a positive integer");
                            usage()
                        },
                    );
            }
            "--scale" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--scale needs test|full");
                    usage()
                });
                campaign.scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale `{v}` (use test|full)");
                    usage()
                });
            }
            "--artifacts" => {
                campaign.artifacts_dir = Some(
                    it.next()
                        .unwrap_or_else(|| {
                            eprintln!("--artifacts needs a directory");
                            usage()
                        })
                        .into(),
                );
            }
            "--out" => {
                out_path = it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    usage()
                });
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }

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

    write_report(&out_path, &report.to_json());
    if failures > 0 || !gaps.is_empty() {
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let mut it = std::env::args().skip(1);
    let mut first = it.next();
    if first.as_deref() == Some("serve") {
        serve_main(it);
    }

    let mut campaign = Campaign::default();
    let mut out_path = "CHAOS_report.json".to_string();
    while let Some(arg) = first.take().or_else(|| it.next()) {
        match arg.as_str() {
            "--workloads" => {
                let list = it.next().unwrap_or_else(|| {
                    eprintln!("--workloads needs a comma-separated list");
                    usage()
                });
                campaign.workloads = list.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--plans" => {
                let list = it.next().unwrap_or_else(|| {
                    eprintln!("--plans needs a comma-separated list");
                    usage()
                });
                campaign.plans = list.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--seeds" => {
                campaign.seeds =
                    it.next().and_then(|v| v.parse().ok()).filter(|&s| s > 0).unwrap_or_else(
                        || {
                            eprintln!("--seeds needs a positive integer");
                            usage()
                        },
                    );
            }
            "--seed-base" => {
                campaign.seed_base = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed-base needs an integer");
                    usage()
                });
            }
            "--units" => {
                campaign.units =
                    it.next().and_then(|v| v.parse().ok()).filter(|&u| u > 0).unwrap_or_else(
                        || {
                            eprintln!("--units needs a positive integer");
                            usage()
                        },
                    );
            }
            "--scale" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--scale needs test|full");
                    usage()
                });
                campaign.scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale `{v}` (use test|full)");
                    usage()
                });
            }
            "--max-cycles" => {
                campaign.max_cycles =
                    it.next().and_then(|v| v.parse().ok()).filter(|&c| c > 0).unwrap_or_else(
                        || {
                            eprintln!("--max-cycles needs a positive integer");
                            usage()
                        },
                    );
            }
            "--watchdog" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--watchdog needs a cycle count or `off`");
                    usage()
                });
                campaign.watchdog = if v == "off" {
                    None
                } else {
                    Some(v.parse().ok().filter(|&w| w > 0).unwrap_or_else(|| {
                        eprintln!("--watchdog needs a positive integer or `off`");
                        usage()
                    }))
                };
            }
            "--out" => {
                out_path = it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    usage()
                });
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }

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

    write_report(&out_path, &report.to_json());
    if failures > 0 {
        std::process::exit(1);
    }
}
