//! Golden `RunStats` regression test.
//!
//! Performance work on the simulator (predecode caches, page-table
//! memory, allocation-free stepping) is only allowed to change *wall
//! time* — simulated behaviour must be bit-identical. This test pins
//! the complete `RunStats` (cycles, per-cycle breakdown, squash and
//! prediction counters, cache/bus/ARB statistics) for every suite
//! workload across the machine classes the paper evaluates:
//!
//! * the scalar baseline,
//! * 4-unit and 8-unit multiscalar, in-order 1-way (Table 3's grid),
//! * 4-unit multiscalar, out-of-order 2-way (Table 4's hardest class,
//!   which exercises the OoO hazard-check path).
//!
//! The golden file is `tests/golden/run_stats.txt`: one line per
//! (workload, machine) point, `<workload> <machine> <stats-json>`,
//! where the JSON is `ms_sweep::statsio::stats_to_json`'s fixed-order
//! rendering. Any divergence is a behaviour change, not a speedup.
//!
//! Every multiscalar point additionally runs under a live trace sink,
//! which turns unit parking off (DESIGN.md §13), and the parked and
//! unparked serialized `RunStats` must match byte-for-byte before
//! either is compared against the golden file. The scalar points are
//! pinned by the golden file alone; the parked/unparked check for the
//! scalar unit lives in `ms-pipeline`'s unit tests.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! MS_BLESS_GOLDEN=1 cargo test --test golden_stats
//! ```

use ms_sweep::statsio::stats_to_json;
use ms_workloads::{suite, Scale};
use multiscalar::trace::MetricsSink;
use multiscalar::SimConfig;

/// The machine classes pinned by the golden file.
fn machines() -> Vec<(&'static str, SimConfig, bool)> {
    vec![
        ("scalar", SimConfig::scalar(), false),
        ("ms4", SimConfig::multiscalar(4), true),
        ("ms8", SimConfig::multiscalar(8), true),
        ("ms4-w2-ooo", SimConfig::multiscalar(4).issue(2).out_of_order(true), true),
    ]
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_stats.txt")
}

fn current_snapshot() -> String {
    let mut out = String::new();
    for w in suite(Scale::Test) {
        for (name, cfg, multi) in machines() {
            let label = format!("{} on {name}", w.name);
            let stats = if multi {
                // Parked (the default) against unparked (a traced run):
                // parking is a host-time optimization and must be
                // observationally invisible.
                let parked = stats_to_json(
                    &w.run_multiscalar(cfg).unwrap_or_else(|e| panic!("{label}: {e}")),
                );
                let (traced, _) = w
                    .run_multiscalar_with_sink(cfg, MetricsSink::new())
                    .unwrap_or_else(|e| panic!("{label} (traced): {e}"));
                assert_eq!(
                    parked,
                    stats_to_json(&traced),
                    "{label}: parking changed simulated behaviour"
                );
                parked
            } else {
                stats_to_json(&w.run_scalar(cfg).unwrap_or_else(|e| panic!("{label}: {e}")))
            };
            out.push_str(w.name);
            out.push(' ');
            out.push_str(name);
            out.push(' ');
            out.push_str(&stats);
            out.push('\n');
        }
    }
    out
}

#[test]
fn run_stats_match_golden_snapshot() {
    let snapshot = current_snapshot();
    let path = golden_path();
    if std::env::var_os("MS_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &snapshot).expect("writing golden file");
        eprintln!("blessed {} ({} lines)", path.display(), snapshot.lines().count());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `MS_BLESS_GOLDEN=1 cargo test --test golden_stats`",
            path.display()
        )
    });
    if golden == snapshot {
        return;
    }
    // Report the first diverging line precisely — "cycles changed on
    // Compress ms8" is actionable, a 40-line diff dump is not.
    for (i, (g, s)) in golden.lines().zip(snapshot.lines()).enumerate() {
        assert_eq!(
            g,
            s,
            "golden RunStats diverged at line {} — simulated behaviour changed",
            i + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        snapshot.lines().count(),
        "golden file has a different number of (workload, machine) points"
    );
    unreachable!("texts differ but no line-level divergence found");
}
