//! The checker's exits cover every exit the runtime takes.
//!
//! `ms_cfg::check_program` lists each task's static exits. The sequential
//! walk cuts a run into tasks exactly where a processing unit ends one (at
//! `halt`, or where a stop tag fires), so every walked task must leave
//! through an exit the checker lists for its entry: the next task's
//! entry address or a return, and `halt` for the last task. A checker
//! whose stop rule departs from the runtime's misses such an exit.

use ms_asm::{assemble, AsmMode};
use ms_cfg::{check_program, partition_source, PartitionPolicy, StaticExit};
use ms_fuzz::gen::{generate, render};
use ms_isa::Program;
use ms_workloads::{suite, Scale};
use multiscalar::SequentialWalk;
use std::collections::BTreeMap;

/// The four policies `tests/partition_validation.rs` partitions the fuzz
/// corpus at.
const POLICIES: [&str; 4] = ["", "size=4", "calls=1", "fwd=0,rel=0,loops=0"];

/// Walks `prog` to its halt and checks each task's exit against the
/// exits the checker lists for the task.
fn walked_exits_are_listed(name: &str, prog: &Program) {
    let report = check_program(prog);
    assert!(!report.has_errors(), "{name}: {report}");
    let exits: BTreeMap<u32, &[StaticExit]> =
        report.tasks.iter().map(|t| (t.entry, t.exits.as_slice())).collect();
    let listed = |entry: u32, exit: StaticExit| {
        let task = exits.get(&entry).unwrap_or_else(|| panic!("{name}: no task at {entry:#x}"));
        assert!(
            task.contains(&exit)
                || matches!(exit, StaticExit::Addr(_)) && task.contains(&StaticExit::Return),
            "{name}: task {entry:#x} left through {exit:?}, which the checker does not list \
             among {task:?}"
        );
    };
    let mut walk = SequentialWalk::new(prog.clone());
    let mut last = None;
    while !walk.halted() {
        let (entry, walked) = walk.next_task(10_000_000).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(walked.is_some(), "{name}: task {entry:#x} did not end in 10M instructions");
        if let Some(prev) = last {
            listed(prev, StaticExit::Addr(entry));
        }
        last = Some(entry);
    }
    listed(last.expect("a walk to halt walks a task"), StaticExit::Halt);
}

/// Walks `src` as written, then each of its partitions.
fn check_corpus_program(name: &str, src: &str, annotated: bool) {
    if annotated {
        let prog = assemble(src, AsmMode::Multiscalar).expect("assembles");
        walked_exits_are_listed(name, &prog);
    }
    for policy in POLICIES {
        let part = partition_source(src, &PartitionPolicy::parse(policy).expect("parses"))
            .unwrap_or_else(|e| panic!("{name} [{policy}]: {e}"));
        walked_exits_are_listed(&format!("{name} [{policy}]"), &part.program);
    }
}

#[test]
fn suite_tasks_leave_through_listed_exits() {
    for w in suite(Scale::Test) {
        check_corpus_program(w.name, &w.source, true);
    }
}

#[test]
fn fuzz_tasks_leave_through_listed_exits() {
    for seed in 0..24u64 {
        check_corpus_program(&format!("fuzz seed {seed}"), &render(&generate(seed, false)), true);
    }
}

/// A `halt` inside a suppressed call ends the calling task, so the
/// checker must list `halt` among that task's exits.
#[test]
fn a_halt_inside_a_suppressed_call_is_a_listed_exit() {
    let src = "
.text
main:
.task targets=halt create=$2
A:
    li!f $2, 7
    jal  F
    halt
F:
    halt
";
    let prog = assemble(src, AsmMode::Multiscalar).expect("assembles");
    walked_exits_are_listed("halt in callee", &prog);
}
