//! The simulator is deterministic (a total order of events exists in a
//! cycle-accurate model) and architecturally invariant across machine
//! configurations: changing unit counts, widths or issue order changes
//! *timing*, never *results*.

use ms_asm::AsmMode;
use ms_workloads::{by_name, suite, Scale};
use multiscalar::trace::{TraceEvent, VecSink};
use multiscalar::{Processor, SimConfig};

#[test]
fn repeated_runs_are_bit_identical() {
    let run = |ooo: bool| {
        let w = by_name("Gcc", Scale::Test).unwrap();
        let prog = w.assemble(AsmMode::Multiscalar).unwrap();
        let mut p =
            Processor::new(prog, SimConfig::multiscalar(8).issue(2).out_of_order(ooo)).unwrap();
        let st = p.run().unwrap();
        (
            st.cycles,
            st.instructions,
            st.tasks_squashed,
            st.control_squashes,
            st.memory_squashes,
            st.predictions,
            st.correct_predictions,
            st.breakdown,
        )
    };
    assert_eq!(run(false), run(false));
    assert_eq!(run(true), run(true));
}

#[test]
fn unit_count_never_changes_committed_instruction_count() {
    // The committed instruction stream is the architectural execution; it
    // must not depend on the machine's parallelism.
    for w in suite(Scale::Test) {
        let mut counts = Vec::new();
        for units in [1usize, 3, 4, 8] {
            let m = w
                .run_multiscalar(SimConfig::multiscalar(units))
                .unwrap_or_else(|e| panic!("{} @{units}: {e}", w.name));
            counts.push(m.instructions);
        }
        assert!(
            counts.windows(2).all(|p| p[0] == p[1]),
            "{}: committed counts varied with unit count: {counts:?}",
            w.name
        );
    }
}

#[test]
fn issue_width_and_order_never_change_results() {
    // Validation inside run_multiscalar checks memory against the
    // reference; this asserts it holds across the full config matrix.
    let w = by_name("Espresso", Scale::Test).unwrap();
    for width in [1usize, 2] {
        for ooo in [false, true] {
            for units in [2usize, 4, 8] {
                w.run_multiscalar(SimConfig::multiscalar(units).issue(width).out_of_order(ooo))
                    .unwrap_or_else(|e| panic!("w{width} ooo{ooo} u{units}: {e}"));
            }
        }
    }
}

#[test]
fn cycle_accounting_is_conservative() {
    // Unit-cycles across all classes must equal units x cycles (every
    // unit-cycle is classified exactly once).
    for name in ["Wc", "Gcc", "Xlisp"] {
        let w = by_name(name, Scale::Test).unwrap();
        let prog = w.assemble(AsmMode::Multiscalar).unwrap();
        let units = 4u64;
        let mut p = Processor::new(prog, SimConfig::multiscalar(units as usize)).unwrap();
        let st = p.run().unwrap();
        assert_eq!(
            st.breakdown.total(),
            units * st.cycles,
            "{name}: breakdown does not cover all unit-cycles"
        );
    }
}

#[test]
fn retirement_log_is_sequential_and_complete() {
    let w = by_name("Cmp", Scale::Test).unwrap();
    let prog = w.assemble(AsmMode::Multiscalar).unwrap();
    let mut p = Processor::with_sink(prog, SimConfig::multiscalar(4), VecSink::default()).unwrap();
    let st = p.run().unwrap();
    // The run's retirements, as its `TaskRetire` events: (cycle, instructions).
    let log: Vec<(u64, u64)> = p
        .sink()
        .events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::TaskRetire { cycle, instructions, .. } => Some((cycle, instructions)),
            _ => None,
        })
        .collect();
    assert_eq!(log.len() as u64, st.tasks_retired);
    assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
    assert_eq!(log.iter().map(|r| r.1).sum::<u64>(), st.instructions);
}
