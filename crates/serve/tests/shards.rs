//! The process-shard executor end to end: real `msserve --worker` child
//! processes, real kills, and byte-identical artifacts no matter what
//! the workers do.

use ms_serve::worker::FAULT_ENV;
use ms_serve::{ProcessShardExecutor, ShardOptions};
use ms_sweep::{artifacts, run_jobs_with, Executor, InProcessExecutor, Job, JobKind, SweepOptions};
use ms_workloads::Scale;
use multiscalar::SimConfig;
use std::time::{Duration, Instant};

/// The worker command every test uses: this crate's own `msserve`
/// binary in its hidden worker mode.
fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_msserve").to_string(), "--worker".to_string()]
}

fn opts() -> ShardOptions {
    ShardOptions { worker_cmd: Some(worker_cmd()), ..ShardOptions::default() }
}

/// A small but non-trivial job list: two workloads, both engine kinds,
/// and a non-default config so `stable_key` round-tripping is exercised.
fn jobs() -> Vec<Job> {
    let mut out = Vec::new();
    for workload in ["wc", "cmp"] {
        out.push(Job {
            workload: workload.into(),
            scale: Scale::Test,
            kind: JobKind::Scalar,
            cfg: SimConfig::scalar(),
            partition: None,
        });
        out.push(Job {
            workload: workload.into(),
            scale: Scale::Test,
            kind: JobKind::Multiscalar,
            cfg: SimConfig::multiscalar(4).issue(2).out_of_order(true),
            partition: None,
        });
    }
    out
}

/// The undisturbed single-process truth for [`jobs`].
fn baseline_json() -> String {
    let report = run_jobs_with(jobs(), &SweepOptions::default(), &InProcessExecutor::new());
    artifacts::results_json(&report)
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn shard_artifacts_are_byte_identical_to_in_process() {
    let exec = ProcessShardExecutor::start(opts());
    let report = run_jobs_with(jobs(), &SweepOptions::default(), &exec);
    let shard_json = artifacts::results_json(&report);
    assert_eq!(shard_json, baseline_json(), "process shards change no artifact byte");
    let stats = exec.stats();
    assert_eq!(stats.completed, jobs().len() as u64, "{stats:?}");
    assert_eq!(stats.deaths, 0, "{stats:?}");
    exec.shutdown();
}

#[test]
fn killed_panicked_and_garbage_workers_recover_to_identical_bytes() {
    for fault in ["kill@1", "panic@0", "garbage@0"] {
        // One worker: with a second, healthy worker the sweep can finish
        // on it before the supervisor's respawn lands, leaving no
        // restart to observe.
        let exec = ProcessShardExecutor::start(ShardOptions {
            workers: 1,
            worker_env: vec![(0, FAULT_ENV.into(), fault.into())],
            ..opts()
        });
        let report = run_jobs_with(jobs(), &SweepOptions::default(), &exec);
        let shard_json = artifacts::results_json(&report);
        assert_eq!(shard_json, baseline_json(), "bytes diverged under fault `{fault}`");
        let stats = exec.stats();
        assert!(stats.restarts >= 1, "fault `{fault}` caused no restart: {stats:?}");
        assert!(stats.deaths >= 1, "fault `{fault}` caused no death: {stats:?}");
        assert!(
            stats.requeued + stats.requeue_deduped >= 1,
            "fault `{fault}` orphaned nothing: {stats:?}"
        );
        if fault.starts_with("garbage") {
            assert!(stats.protocol_breaches >= 1, "{stats:?}");
        }
        assert_eq!(stats.poisoned, 0, "fault `{fault}` must not poison: {stats:?}");
        exec.shutdown();
    }
}

#[test]
fn stalled_workers_hit_the_job_deadline_and_recover() {
    // The stall keeps heartbeats flowing, so only the per-job deadline
    // can catch it — which is exactly what this pins down.
    // One worker, so the sweep can only finish through a restart.
    let exec = ProcessShardExecutor::start(ShardOptions {
        workers: 1,
        job_deadline_ms: 300,
        worker_env: vec![(0, FAULT_ENV.into(), "stall@0:60000".into())],
        ..opts()
    });
    let report = run_jobs_with(jobs(), &SweepOptions::default(), &exec);
    assert_eq!(artifacts::results_json(&report), baseline_json());
    let stats = exec.stats();
    assert!(stats.deadline_kills >= 1, "{stats:?}");
    assert!(stats.restarts >= 1, "{stats:?}");
    assert_eq!(stats.hang_kills, 0, "heartbeats flowed; only the deadline fired: {stats:?}");
    exec.shutdown();
}

#[test]
fn repeated_deaths_on_one_job_poison_it_with_a_structured_report() {
    // A fake worker that comes up healthy, then dies on every job it is
    // ever given: the job identity must be quarantined as poison, not
    // retried forever and not allowed to wedge the caller.
    let exec = ProcessShardExecutor::start(ShardOptions {
        workers: 1,
        worker_cmd: Some(vec![
            "/bin/sh".into(),
            "-c".into(),
            r#"echo '{"type":"ready","pid":1,"gen":0}'; read line; exit 9"#.into(),
        ]),
        poison_threshold: 2,
        max_restarts: 32,
        ..ShardOptions::default()
    });
    let job = &jobs()[0];
    let err = exec
        .run(job, &ms_workloads::by_name(&job.workload, job.scale).unwrap(), 0)
        .expect_err("a poisoned job must settle with an error");
    assert!(err.contains("poison job"), "{err}");
    assert!(err.contains(&job.id()), "{err}");
    let poison = exec.poison_jobs();
    assert_eq!(poison.len(), 1, "{poison:?}");
    assert_eq!(poison[0].job, job.id());
    assert_eq!(poison[0].deaths, 2);
    assert!(poison[0].identity.contains("ms-sweep v1|"), "{}", poison[0].identity);
    let stats = exec.stats();
    assert_eq!(stats.poisoned, 1, "{stats:?}");
    assert!(stats.requeued >= 1, "the first death re-queued once: {stats:?}");
    assert!(stats.restarts >= 1, "{stats:?}");
    exec.shutdown();
}

#[test]
fn unspawnable_workers_exhaust_the_budget_and_fail_fast() {
    let exec = ProcessShardExecutor::start(ShardOptions {
        workers: 1,
        worker_cmd: Some(vec!["/nonexistent/ms-worker-binary".into()]),
        max_restarts: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        ..ShardOptions::default()
    });
    let job = &jobs()[0];
    let err = exec
        .run(job, &ms_workloads::by_name(&job.workload, job.scale).unwrap(), 0)
        .expect_err("an unspawnable pool must fail, not hang");
    assert!(err.contains("gave up"), "{err}");
    assert!(exec.stats().deaths >= 3, "{:?}", exec.stats());
    exec.shutdown();
}

#[test]
fn duplicated_dispatches_are_discarded_on_arrival() {
    let exec =
        ProcessShardExecutor::start(ShardOptions { workers: 2, duplicate_nth: Some(0), ..opts() });
    let job = &jobs()[1]; // a multiscalar point, non-trivial compute
    let w = ms_workloads::by_name(&job.workload, job.scale).unwrap();
    let stats = exec.run(job, &w, 0).expect("duplicated job still settles ok");
    assert!(stats.cycles > 0);
    // The duplicate ticket settles after the first result; wait for its
    // arrival to be recorded as discarded, never double-settled.
    wait_for(|| exec.stats().duplicates_discarded == 1, "duplicate discard");
    let s = exec.stats();
    assert_eq!(s.completed, 1, "{s:?}");
    assert_eq!(s.dispatched, 2, "{s:?}");
    exec.shutdown();
}

#[test]
fn concurrent_submissions_of_one_identity_coalesce() {
    let exec = ProcessShardExecutor::start(opts());
    let job = &jobs()[1];
    let w = ms_workloads::by_name(&job.workload, job.scale).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                exec.run(job, &w, 0).expect("ok");
            });
        }
    });
    let stats = exec.stats();
    assert_eq!(stats.completed, 1, "one compute for four submitters: {stats:?}");
    assert_eq!(stats.dedup_joins, 3, "{stats:?}");
    exec.shutdown();
}
