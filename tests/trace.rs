//! End-to-end tests of the structured trace layer: the event stream a
//! full workload run produces is deterministic, internally consistent
//! with the simulator's aggregate statistics, and serializes to valid
//! Chrome `trace_event` JSON — also when the run fails.

use ms_trace::{jsonv, ChromeTraceSink, JsonLinesSink, MetricsSink, TeeSink, TraceEvent, VecSink};
use ms_workloads::{by_name, Scale, WorkloadError};
use multiscalar::{Processor, SimConfig, SimError};

/// A tiny two-task program: one counting task plus a halt task.
const TWO_TASKS: &str = "
main:
.task targets=LOOP,DONE create=$2
LOOP:
    addiu!f $2, $2, 1
    slti    $1, $2, 5
    bne!s   $1, $0, LOOP
.task targets=halt create=
DONE:
    halt
";

fn two_task_prog() -> ms_isa::Program {
    ms_asm::assemble(TWO_TASKS, ms_asm::AsmMode::Multiscalar).unwrap()
}

#[test]
fn event_stream_reconciles_with_run_stats() {
    let w = by_name("Gcc", Scale::Test).unwrap();
    let (stats, sink) = w.run_multiscalar_with_sink(SimConfig::multiscalar(8), MetricsSink::new());
    let stats = stats.unwrap();
    let m = sink.into_report();
    assert_eq!(m.tasks_retired, stats.tasks_retired);
    assert_eq!(m.tasks_squashed, stats.tasks_squashed, "squash events must sum to tasks_squashed");
    assert_eq!(m.control_squash_waves, stats.control_squashes);
    assert_eq!(m.memory_squash_waves, stats.memory_squashes);
    assert_eq!(m.arb_full_squash_waves, stats.arb_squashes);
    assert_eq!(m.arb_violations, stats.arb.violations);
    assert_eq!(m.arb_loads, stats.arb.loads);
    assert_eq!(m.arb_stores, stats.arb.stores);
    assert_eq!(m.arb_forwarded_loads, stats.arb.load_forwards);
    assert_eq!(m.icache_fetches, stats.icache.accesses);
    assert_eq!(m.icache_fetches - m.icache_hits, stats.icache.misses);
    assert_eq!(m.descriptor_fetches, stats.descriptor_cache.0);
    assert_eq!(m.task_len_instrs.sum(), stats.instructions);
    // Every retired/squashed task was assigned exactly once.
    assert_eq!(m.tasks_assigned, m.tasks_retired + m.tasks_squashed);
}

#[test]
fn identical_runs_produce_byte_identical_jsonl() {
    let run = || {
        let w = by_name("Compress", Scale::Test).unwrap();
        let sink = JsonLinesSink::new(Vec::<u8>::new());
        let (stats, sink) = w.run_multiscalar_with_sink(SimConfig::multiscalar(4), sink);
        stats.unwrap();
        let (bytes, err) = sink.into_inner();
        assert!(err.is_none());
        bytes
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "trace streams of identical runs must be byte-identical");
}

#[test]
fn traced_run_matches_untraced_run() {
    // Attaching a sink must never perturb the simulation.
    let w = by_name("Wc", Scale::Test).unwrap();
    let plain = w.run_multiscalar(SimConfig::multiscalar(8)).unwrap();
    let traced =
        w.run_multiscalar_with_sink(SimConfig::multiscalar(8), MetricsSink::new()).0.unwrap();
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.instructions, traced.instructions);
    assert_eq!(plain.tasks_squashed, traced.tasks_squashed);
    assert_eq!(plain.breakdown, traced.breakdown);
}

#[test]
fn two_task_program_emits_the_expected_lifecycle() {
    let mut p =
        Processor::with_sink(two_task_prog(), SimConfig::multiscalar(4), VecSink::default())
            .unwrap();
    p.run().unwrap();
    let events = p.into_sink().events;
    let assigns = events.iter().filter(|e| matches!(e, TraceEvent::TaskAssign { .. })).count();
    let retires: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TaskRetire { entry, .. } => Some(*entry),
            _ => None,
        })
        .collect();
    assert_eq!(retires.len(), 6, "5 loop iterations + halt task: {events:#?}");
    assert!(assigns >= retires.len());
    // Sequencer events are stamped in non-decreasing cycle order. (Memory
    // events may be stamped at their future access time, so the full
    // stream is only approximately ordered.)
    let seq_cycles: Vec<u64> = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::TaskAssign { .. }
                    | TraceEvent::TaskRetire { .. }
                    | TraceEvent::TaskSquash { .. }
                    | TraceEvent::SquashWave { .. }
                    | TraceEvent::TaskValidate { .. }
            )
        })
        .map(TraceEvent::cycle)
        .collect();
    assert!(seq_cycles.windows(2).all(|w| w[0] <= w[1]), "{seq_cycles:?}");
}

#[test]
fn chrome_trace_of_a_real_run_is_well_formed() {
    let w = by_name("Cmp", Scale::Test).unwrap();
    let sink = TeeSink(MetricsSink::new(), ChromeTraceSink::new(Vec::<u8>::new()));
    let (stats, sink) = w.run_multiscalar_with_sink(SimConfig::multiscalar(8), sink);
    let stats = stats.unwrap();
    let TeeSink(metrics, chrome) = sink;
    let (bytes, err) = chrome.into_inner();
    assert!(err.is_none());
    let text = String::from_utf8(bytes).unwrap();
    assert!(text.starts_with("{\"traceEvents\":["));
    assert!(text.trim_end().ends_with("]}"));
    // Balanced braces/brackets outside strings — cheap structural check.
    let (mut brace, mut bracket) = (0i64, 0i64);
    let mut in_str = false;
    let mut esc = false;
    for c in text.chars() {
        match c {
            _ if esc => esc = false,
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => brace += 1,
            '}' if !in_str => brace -= 1,
            '[' if !in_str => bracket += 1,
            ']' if !in_str => bracket -= 1,
            _ => {}
        }
    }
    assert_eq!((brace, bracket), (0, 0));
    // One complete span per retired or squashed task.
    let spans = text.matches("\"ph\":\"X\"").count() as u64;
    assert_eq!(spans, stats.tasks_retired + stats.tasks_squashed);
    assert_eq!(metrics.report().tasks_retired, stats.tasks_retired);
}

#[test]
fn a_failing_traced_run_keeps_its_trace() {
    // Wc needs far more than 500 cycles, so the run times out. The sinks
    // it hands back must be finished and complete up to the failure.
    let w = by_name("Wc", Scale::Test).unwrap();
    let sink =
        TeeSink(ChromeTraceSink::new(Vec::<u8>::new()), JsonLinesSink::new(Vec::<u8>::new()));
    let (result, TeeSink(chrome, jsonl)) =
        w.run_multiscalar_with_sink(SimConfig::multiscalar(4).max_cycles(500), sink);
    assert!(
        matches!(result, Err(WorkloadError::Sim(SimError::Timeout { cycles: 500, .. }))),
        "{result:?}"
    );

    let (bytes, err) = chrome.into_inner();
    assert!(err.is_none());
    let text = String::from_utf8(bytes).unwrap();
    jsonv::parse(&text).unwrap_or_else(|e| panic!("Chrome trace of a failed run: {e}\n{text}"));

    let (bytes, err) = jsonl.into_inner();
    assert!(err.is_none());
    let last_cycle = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|line| jsonv::parse(line).unwrap().get("cycle").and_then(|c| c.as_u64()).unwrap())
        .max();
    assert_eq!(last_cycle, Some(499), "the trace must reach the last simulated cycle");
}
