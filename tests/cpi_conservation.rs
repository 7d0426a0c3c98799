//! Cycle-accounting conservation across the fuzz corpus, plus a golden
//! CPI-stack fixture.
//!
//! The accounting subsystem's contract is a hard conservation
//! invariant: every (unit, cycle) of a run is charged to exactly one
//! bucket — issued, or one `StallReason` — so for any program and any
//! machine shape,
//!
//! ```text
//! issued + Σ stalls == cycles × units
//! ```
//!
//! globally, per unit, and with the per-task rows never exceeding their
//! unit's totals. Workload-based tests alone would only exercise the
//! control flow our hand-written benchmarks happen to take, so this
//! property is driven by the `ms-fuzz` program generator across the
//! same configuration grid the differential fuzzer uses (ms1, ms2,
//! ms4-ooo2, ms8-ring1).
//!
//! The accountant must also be purely observational: a run with
//! accounting enabled must report the same cycles and instructions as
//! the default `NoAccounting` run of the same program. Unit parking
//! (DESIGN.md §13) must be too: every accounted run is compared, stats
//! and complete CPI stack, against the same run under a live trace
//! sink, which turns parking off.
//!
//! The golden fixture (`tests/golden/cpi_stack.txt`) pins the complete
//! `CpiStack::to_json()` rendering for one workload so the bucket
//! attribution itself — not just its sum — is a regression surface.
//! Bless after an intentional behaviour change with:
//!
//! ```text
//! MS_BLESS_GOLDEN=1 cargo test --test cpi_conservation
//! ```

use ms_asm::{assemble, AsmMode};
use ms_fuzz::diff::{config_points, ValidateOpts};
use ms_fuzz::gen;
use ms_sweep::statsio::stats_to_json;
use ms_trace::{CpiStack, MetricsSink, StallReason};
use multiscalar::{CpiAccountant, NoFaults, Processor, RunStats, SimConfig};

fn opts() -> ValidateOpts {
    ValidateOpts { max_cycles: 1_000_000, watchdog: 200_000 }
}

/// Asserts that a parked run and an unparked (traced) run of the same
/// program agree on every stat and every CPI bucket.
fn assert_parking_neutral(label: &str, parked: &RunStats, unparked: &RunStats) {
    assert_eq!(
        stats_to_json(parked),
        stats_to_json(unparked),
        "{label}: parking changed the run stats"
    );
    let cpi = |s: &RunStats| s.cpi.as_ref().map(CpiStack::to_json);
    assert!(cpi(parked).is_some(), "{label}: no CPI stack");
    assert_eq!(cpi(parked), cpi(unparked), "{label}: parking changed the CPI stack");
}

/// Asserts every form of the conservation invariant on one stack.
fn assert_conserved(label: &str, cpi: &CpiStack) {
    let stalls: u64 = cpi.stall_cycles.iter().sum();
    assert_eq!(
        cpi.issued_cycles + stalls,
        cpi.cycles * cpi.units as u64,
        "{label}: issued + Σ stalls != cycles × units"
    );
    assert!(cpi.conservation_holds(), "{label}: conservation_holds() disagrees");
    assert_eq!(cpi.per_unit.len(), cpi.units, "{label}: wrong per-unit row count");
    for (u, row) in cpi.per_unit.iter().enumerate() {
        assert_eq!(
            row.total(),
            cpi.cycles,
            "{label}: unit {u} accounted a different number of cycles than the run took"
        );
    }
    for r in StallReason::ALL {
        let per_unit: u64 = cpi.per_unit.iter().map(|row| row.stall_cycles[r.index()]).sum();
        assert_eq!(
            per_unit,
            cpi.stall_cycles[r.index()],
            "{label}: aggregate {} bucket disagrees with the per-unit sum",
            r.as_str()
        );
    }
    // Retired tasks partition a subset of each unit's cycles: their
    // charges can never exceed what the unit accumulated overall.
    for (u, row) in cpi.per_unit.iter().enumerate() {
        let tasks: Vec<_> = cpi.per_task.iter().filter(|t| t.unit == u).collect();
        let task_issued: u64 = tasks.iter().map(|t| t.issued_cycles).sum();
        assert!(task_issued <= row.issued_cycles, "{label}: unit {u} task rows over-charge issued");
        for r in StallReason::ALL {
            let task_stall: u64 = tasks.iter().map(|t| t.stall_cycles[r.index()]).sum();
            assert!(
                task_stall <= row.stall_cycles[r.index()],
                "{label}: unit {u} task rows over-charge {}",
                r.as_str()
            );
        }
    }
}

#[test]
fn fuzz_corpus_conserves_unit_cycles() {
    let opts = opts();
    let points = config_points(&opts);
    for seed in 0..12u64 {
        let src = gen::render(&gen::generate(seed, false));
        let prog = assemble(&src, AsmMode::Multiscalar)
            .unwrap_or_else(|e| panic!("seed {seed}: honest program failed to assemble: {e}"));
        for (name, cfg) in &points {
            let label = format!("seed {seed} on {name}");
            let mut plain = Processor::new(prog.clone(), *cfg)
                .unwrap_or_else(|e| panic!("{label}: build: {e}"));
            let base = plain.run().unwrap_or_else(|e| panic!("{label}: run: {e}"));

            let mut acct = Processor::with_accountant(prog.clone(), *cfg, CpiAccountant::new())
                .unwrap_or_else(|e| panic!("{label}: build (accounted): {e}"));
            let stats = acct.run().unwrap_or_else(|e| panic!("{label}: run (accounted): {e}"));

            let mut traced = Processor::with_parts(
                prog.clone(),
                *cfg,
                MetricsSink::new(),
                NoFaults,
                CpiAccountant::new(),
            )
            .unwrap_or_else(|e| panic!("{label}: build (traced): {e}"));
            let unparked = traced.run().unwrap_or_else(|e| panic!("{label}: run (traced): {e}"));
            assert_parking_neutral(&label, &stats, &unparked);

            // Accounting is observational — same machine, same run.
            assert_eq!(stats.cycles, base.cycles, "{label}: accounting changed cycle count");
            assert_eq!(
                stats.instructions, base.instructions,
                "{label}: accounting changed instruction count"
            );
            assert!(base.cpi.is_none(), "{label}: NoAccounting run grew a CPI stack");

            let cpi = stats.cpi.as_ref().unwrap_or_else(|| panic!("{label}: no CPI stack"));
            assert_eq!(cpi.units, cfg.units, "{label}: stack has wrong unit count");
            assert_eq!(cpi.cycles, stats.cycles, "{label}: stack has wrong cycle count");
            assert_eq!(
                cpi.instructions, stats.instructions,
                "{label}: stack has wrong instruction count"
            );
            assert_conserved(&label, cpi);
        }
    }
}

#[test]
fn workload_suite_conserves_unit_cycles() {
    for w in ms_workloads::suite(ms_workloads::Scale::Test) {
        for units in [1usize, 4, 8] {
            let cfg = SimConfig::multiscalar(units);
            let label = format!("{} on ms{units}", w.name);
            let stats = w
                .run_multiscalar_with_accountant(cfg, CpiAccountant::new())
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let (unparked, _) = w
                .run_multiscalar_instrumented(cfg, MetricsSink::new(), CpiAccountant::new())
                .unwrap_or_else(|e| panic!("{label} (traced): {e}"));
            let cpi = stats.cpi.as_ref().unwrap_or_else(|| panic!("{label}: no CPI stack"));
            assert_conserved(&label, cpi);
            assert_parking_neutral(&label, &stats, &unparked);
        }
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cpi_stack.txt")
}

/// Pins the complete bucket attribution for Wc on the 4-unit machine.
/// The snapshot is taken with parking on (the default) after checking
/// it renders identically to an unparked (traced) run.
#[test]
fn cpi_stack_matches_golden_fixture() {
    let w = ms_workloads::by_name("Wc", ms_workloads::Scale::Test).expect("Wc exists");
    let cfg = SimConfig::multiscalar(4);
    let stats = w.run_multiscalar_with_accountant(cfg, CpiAccountant::new()).expect("Wc runs");
    let (unparked, _) = w
        .run_multiscalar_instrumented(cfg, MetricsSink::new(), CpiAccountant::new())
        .expect("Wc runs traced");
    assert_parking_neutral("Wc on ms4", &stats, &unparked);
    let mut snapshot = stats.cpi.expect("accounted run has a stack").to_json();
    snapshot.push('\n');

    let path = golden_path();
    if std::env::var_os("MS_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &snapshot).expect("writing golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `MS_BLESS_GOLDEN=1 cargo test --test \
             cpi_conservation`",
            path.display()
        )
    });
    assert_eq!(golden, snapshot, "CPI attribution diverged — cycle accounting changed");
}
