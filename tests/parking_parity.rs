//! Parked against unparked, event for event.
//!
//! Unit parking (DESIGN.md §13) is gated on the fault injector alone, so
//! a traced run parks like any other. Observers must therefore see the
//! same run either way: this suite runs each program parked, with a
//! `VecSink` and a `CpiAccountant` attached, and again under
//! [`Unparked`], a live injector that perturbs nothing and so turns
//! parking off. The complete event streams, the `RunStats` and the CPI
//! stacks must be identical.

use ms_asm::{assemble, AsmMode};
use ms_fuzz::diff::{config_points, ValidateOpts};
use ms_fuzz::gen;
use ms_isa::Program;
use ms_sweep::statsio::stats_to_json;
use ms_trace::VecSink;
use ms_workloads::{suite, Scale};
use multiscalar::{CpiAccountant, FaultInjector, NoFaults, Processor, SimConfig};

/// A live injector that perturbs nothing. Any live injector turns unit
/// parking off, so a run under it is the unparked reference.
struct Unparked;
impl FaultInjector for Unparked {}

/// Runs `prog` parked and unparked and asserts the two runs are
/// indistinguishable to their observers. Returns the parked run's park
/// count and its processor (for result validation).
fn assert_parity(
    label: &str,
    prog: &Program,
    cfg: SimConfig,
) -> (u64, Processor<VecSink, NoFaults, CpiAccountant>) {
    let mut parked = Processor::with_parts(
        prog.clone(),
        cfg,
        VecSink::default(),
        NoFaults,
        CpiAccountant::new(),
    )
    .unwrap_or_else(|e| panic!("{label}: build: {e}"));
    let stats = parked.run().unwrap_or_else(|e| panic!("{label}: run: {e}"));
    let mut unparked = Processor::with_parts(
        prog.clone(),
        cfg,
        VecSink::default(),
        Unparked,
        CpiAccountant::new(),
    )
    .unwrap_or_else(|e| panic!("{label}: build (unparked): {e}"));
    let reference = unparked.run().unwrap_or_else(|e| panic!("{label}: run (unparked): {e}"));
    assert_eq!(unparked.unit_park_stats(), (0, 0, 0), "{label}: the reference parked");

    assert_eq!(stats_to_json(&stats), stats_to_json(&reference), "{label}: stats differ");
    assert!(stats.cpi.is_some(), "{label}: no CPI stack");
    assert_eq!(stats.cpi, reference.cpi, "{label}: CPI stacks differ");
    let (got, want) = (&parked.sink().events, &unparked.sink().events);
    if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
        panic!("{label}: event {i} differs: parked {:?}, unparked {:?}", got[i], want[i]);
    }
    assert_eq!(got.len(), want.len(), "{label}: event streams differ in length");
    (parked.unit_park_stats().1, parked)
}

#[test]
fn workload_suite_parks_invisibly_to_observers() {
    let machines = [
        ("ms1", SimConfig::multiscalar(1)),
        ("ms4", SimConfig::multiscalar(4)),
        ("ms8", SimConfig::multiscalar(8)),
        ("ms4w2ooo", SimConfig::multiscalar(4).issue(2).out_of_order(true)),
        ("ms8w2ooo", SimConfig::multiscalar(8).issue(2).out_of_order(true)),
    ];
    let mut parks = 0;
    for w in suite(Scale::Test) {
        let prog = w.assemble(AsmMode::Multiscalar).expect("suite workloads assemble");
        for (name, cfg) in machines {
            let label = format!("{} on {name}", w.name);
            let (n, p) = assert_parity(&label, &prog, cfg);
            w.verify_memory(p.memory(), p.program()).unwrap_or_else(|e| panic!("{label}: {e}"));
            parks += n;
        }
    }
    assert!(parks > 0, "no traced suite run parked, so nothing was compared");
}

#[test]
fn fuzz_corpus_parks_invisibly_to_observers() {
    let opts = ValidateOpts { max_cycles: 1_000_000, watchdog: 200_000 };
    for seed in 0..24u64 {
        let src = gen::render(&gen::generate(seed, false));
        let prog = assemble(&src, AsmMode::Multiscalar)
            .unwrap_or_else(|e| panic!("seed {seed}: honest program failed to assemble: {e}"));
        for (name, cfg) in config_points(&opts) {
            assert_parity(&format!("seed {seed} on {name}"), &prog, cfg);
        }
    }
}
