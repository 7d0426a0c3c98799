//! Differential validation of the automatic task partitioner.
//!
//! The partitioner (ms-cfg) takes a *plain scalar* program and derives
//! task descriptors, stop bits, forward bits and releases on its own.
//! These tests state its two proof obligations end to end:
//!
//! 1. every emitted program passes the static checker with zero errors,
//! 2. the partitioned program computes byte-identical architectural
//!    results to the scalar binary it was derived from — final data
//!    memory, final registers (except `$31`, which shifts with inserted
//!    instructions) — at one-unit, out-of-order and ring configurations,
//!    each run retiring exactly the tasks of the sequential walk of the
//!    partitioned binary (checked as each task retires).
//!
//! Inputs come from two corpora: the fuzz generator (scalar-stripped
//! honest programs) and the ten built-in workloads.

use ms_asm::{assemble, AsmMode};
use ms_cfg::{check_program, partition_source, PartitionPolicy};
use ms_fuzz::diff::{data_window, partition_config_points, validate_pair, ValidateOpts};
use ms_fuzz::gen::{generate, render};
use ms_workloads::{suite, Scale};

/// The policy points every corpus program is partitioned at: the
/// default, a fine-grained size cap, call splitting, and a bare point
/// with no forwards or releases (pure auto-release communication).
fn policy_points() -> Vec<PartitionPolicy> {
    vec![
        PartitionPolicy::default(),
        PartitionPolicy { max_task_instrs: 4, ..Default::default() },
        PartitionPolicy { call_split: true, ..Default::default() },
        PartitionPolicy {
            forward: false,
            releases: false,
            loop_heads: false,
            ..Default::default()
        },
    ]
}

/// Partitions `src` under `policy` and validates the result against the
/// scalar binary of the *original* source.
fn partition_and_validate(name: &str, src: &str, policy: &PartitionPolicy) {
    let part = partition_source(src, policy)
        .unwrap_or_else(|e| panic!("{name} [{}]: partition failed: {e}", policy.stable_key()));
    let report = check_program(&part.program);
    assert!(
        !report.has_errors(),
        "{name} [{}]: checker rejected emitted program:\n{report}\n{}",
        policy.stable_key(),
        part.source
    );

    let sc_prog = assemble(src, AsmMode::Scalar).expect("original source assembles as scalar");
    let opts = ValidateOpts::default();
    let regions = [data_window(&sc_prog)];
    let outcome = validate_pair(
        &part.program,
        &sc_prog,
        &regions,
        false,
        &opts,
        &partition_config_points(&opts),
    );
    assert!(
        outcome.pass,
        "{name} [{}]: {}: {}\n{}",
        policy.stable_key(),
        outcome.verdict,
        outcome.detail,
        part.source
    );
}

#[test]
fn fuzz_corpus_partitions_and_matches_scalar_reference() {
    for seed in 0..24u64 {
        let src = render(&generate(seed, false));
        for policy in policy_points() {
            partition_and_validate(&format!("fuzz seed {seed}"), &src, &policy);
        }
    }
}

#[test]
fn workload_suite_partitions_and_matches_scalar_reference() {
    for w in suite(Scale::Test) {
        for policy in [
            PartitionPolicy::default(),
            PartitionPolicy { max_task_instrs: 8, call_split: true, ..Default::default() },
        ] {
            partition_and_validate(w.name, &w.source, &policy);
        }
    }
}

#[test]
fn partitioned_output_is_deterministic() {
    let w = suite(Scale::Test).into_iter().find(|w| w.name == "Wc").expect("wc workload");
    let policy = PartitionPolicy::default();
    let a = partition_source(&w.source, &policy).unwrap();
    let b = partition_source(&w.source, &policy).unwrap();
    assert_eq!(a.source, b.source);
    assert_eq!(a.entries, b.entries);
}
