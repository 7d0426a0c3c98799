//! Pinned regression tests for bugs found by the `ms-fuzz` differential
//! fuzzer. Each test embeds the minimized `.s` repro checked in under
//! `tests/repros/` so the bug stays fixed even if the generator or the
//! corpus seeds drift.

use ms_asm::{assemble, AsmMode};
use ms_cfg::{check_program, Severity};
use ms_fuzz::diff::{config_points, validate_source, ValidateOpts};
use multiscalar::{Processor, ScalarProcessor, SimConfig, SimError};

const OOO_RELEASE_RAW: &str = include_str!("repros/ooo_release_raw.s");
const STALE_FORWARD: &str = include_str!("repros/stale_forward.s");
const STOP_ON_JUMP: &str = include_str!("repros/stop_on_jump.s");
const STOP_ON_FALLTHROUGH: &str = include_str!("repros/stop_on_fallthrough.s");
const DEAD_FALLTHROUGH: &str = include_str!("repros/dead_fallthrough.s");
const UNCREATED_WRITE: &str = include_str!("repros/uncreated_write.s");
const HALT_IN_CALLEE: &str = include_str!("repros/halt_in_callee.s");
const STOP_IN_CALLEE: &str = include_str!("repros/stop_in_callee.s");

fn opts() -> ValidateOpts {
    ValidateOpts { max_cycles: 1_000_000, watchdog: 200_000 }
}

/// The out-of-order release RAW bug (`msfuzz --repro-seed
/// 4298001007915928899`): `release` declared no source registers, so
/// the OoO hazard check let it issue past the older callee writes to
/// $2/$3 and broadcast stale values. The full differential harness must
/// now accept the repro at every configuration point.
#[test]
fn ooo_release_reads_its_registers_before_issuing() {
    let outcome = validate_source(OOO_RELEASE_RAW, false, &opts());
    assert!(outcome.pass, "repro failed again: {} ({})", outcome.verdict, outcome.detail);
    assert_eq!(outcome.verdict, "ok");
}

/// The same repro checked directly at the configuration that exposed
/// the bug: four units, out-of-order, single issue. Final $2 comes from
/// the last loop iteration's `sltu` inside the callee and must match
/// the scalar reference.
#[test]
fn ooo_release_repro_matches_scalar_at_four_units() {
    let ms = assemble(OOO_RELEASE_RAW, AsmMode::Multiscalar).expect("assemble ms");
    let sc = assemble(OOO_RELEASE_RAW, AsmMode::Scalar).expect("assemble scalar");
    let cfg = SimConfig::multiscalar(4).out_of_order(true).max_cycles(1_000_000);
    let mut p = Processor::new(ms, cfg).expect("build ms");
    p.run().expect("ms run");
    let mut s =
        ScalarProcessor::new(sc, SimConfig::scalar().max_cycles(1_000_000)).expect("build scalar");
    s.run().expect("scalar run");
    let regs = p.final_regs().expect("halted");
    let r2 = ms_isa::Reg::int(2);
    assert_eq!(regs[2], s.reg(r2), "$2 diverged from the scalar reference again");
}

/// The stale-forward annotation bug class: a forward bit on a
/// non-final write used to pass the checker silently while the
/// simulator sent the stale value to every successor. The checker's
/// stale-communication rule must reject the minimized repro.
#[test]
fn stale_forward_repro_is_rejected_statically() {
    let prog = assemble(STALE_FORWARD, AsmMode::Multiscalar).expect("assemble ms");
    let report = check_program(&prog);
    let errors: Vec<String> = report.of_severity(Severity::Error).map(|d| d.to_string()).collect();
    assert!(!errors.is_empty(), "the stale forward went unflagged again");
    assert!(
        errors.iter().any(|e| e.contains("stale")),
        "expected a stale-communication diagnostic, got: {errors:?}"
    );
    // Under adversarial expectations the harness counts this as caught.
    let outcome = validate_source(STALE_FORWARD, true, &opts());
    assert!(outcome.pass);
    assert_eq!(outcome.verdict, "caught-static");
}

/// Documents *why* the stale forward must be a static error: run
/// unchecked, the multiscalar result really does diverge (successors see
/// the forwarded 1, the scalar reference computes 2). Run checked, on
/// every machine the fuzzer uses, the retire-time oracle names the first
/// wrong task: task 1, at `A`, forwards `$2` = 1 where the sequential
/// walk has 2.
#[test]
fn stale_forward_repro_really_diverges_at_runtime() {
    let ms = assemble(STALE_FORWARD, AsmMode::Multiscalar).expect("assemble ms");
    assert_eq!(ms.symbol("A"), Some(0x100c), "the repro's layout changed; update this pin");
    for (name, cfg) in config_points(&opts()) {
        let mut p = Processor::new(ms.clone(), cfg).expect("build ms");
        let err = p.run_checked().expect_err("the checked run must catch the stale forward");
        let SimError::Diverged { order, entry, ref what, .. } = err else {
            panic!("{name}: expected a divergence, got {err}");
        };
        assert_eq!((order, entry), (1, 0x100c), "{name}: {err}");
        assert_eq!(what, "$2 is 0x1 where the walk has 0x2", "{name}: {err}");
        assert!(err.snapshot().is_some() && !err.history().is_empty(), "{name}: {err}");
        assert!(err.to_string().starts_with("task 1 (entry 0x100c, unit "), "{name}: {err}");
    }

    let sc = assemble(STALE_FORWARD, AsmMode::Scalar).expect("assemble scalar");
    let out = ms.symbol("out").expect("out symbol");
    let mut p =
        Processor::new(ms, SimConfig::multiscalar(4).max_cycles(100_000)).expect("build ms");
    p.run().expect("ms run");
    let mut s =
        ScalarProcessor::new(sc, SimConfig::scalar().max_cycles(100_000)).expect("build scalar");
    s.run().expect("scalar run");
    assert_eq!(s.memory().read_le(out, 8), 2, "scalar reference result changed");
    assert_eq!(
        p.memory().read_le(out, 8),
        1,
        "the multiscalar run no longer shows the stale forward; update this pin"
    );
}

/// A stop tag fires where the runtime says it does: a jump counts as
/// taken and any other non-branch as not taken, so `j!st` and `addiu!sn`
/// end their tasks. Each repro's fired exit is not a descriptor target;
/// the checker used to follow the jump or the fall-through instead and
/// leave the fault to run time. Both must now be caught statically.
#[test]
fn conditional_stops_off_branches_fire_as_at_run_time() {
    for (name, src, exit) in [
        ("stop_on_jump", STOP_ON_JUMP, "exit Addr(4108)"),
        ("stop_on_fallthrough", STOP_ON_FALLTHROUGH, "exit Addr(4104)"),
    ] {
        let report = check_program(&assemble(src, AsmMode::Multiscalar).expect("assemble ms"));
        let errors: Vec<String> =
            report.of_severity(Severity::Error).map(|d| d.to_string()).collect();
        assert!(
            errors.iter().any(|e| e.contains(exit) && e.contains("not among its descriptor")),
            "{name}: expected the fired exit to be flagged, got {errors:?}"
        );
        let outcome = validate_source(src, true, &opts());
        assert!(outcome.pass, "{name}: {} ({})", outcome.verdict, outcome.detail);
        assert_eq!(outcome.verdict, "caught-static", "{name}: {}", outcome.detail);
    }
}

/// An always-taken `b!s C` leaves only to C: its dead fall-through is no
/// exit and need not be a descriptor target. The checker used to reject
/// the repro although every machine runs it as the scalar reference.
#[test]
fn always_taken_stop_needs_no_fallthrough_target() {
    let outcome = validate_source(DEAD_FALLTHROUGH, false, &opts());
    assert!(outcome.pass, "{} ({})", outcome.verdict, outcome.detail);
    assert_eq!(outcome.verdict, "ok");
}

/// A last task may write a register outside its create mask: no
/// successor reads it, and the program ends with the value the scalar
/// binary computes. The oracle used to read the final registers from the
/// processor, whose last-task view only tracks created registers, and
/// reported the correct run as diverged. It now compares the final
/// registers of the multiscalar binary's walk with the scalar binary's.
#[test]
fn a_last_task_may_write_registers_it_does_not_create() {
    let outcome = validate_source(UNCREATED_WRITE, false, &opts());
    assert!(outcome.pass, "{} ({})", outcome.verdict, outcome.detail);
    assert_eq!(outcome.verdict, "ok");
}

/// A `halt` inside a suppressed call ends the calling task, as at run
/// time, so it is an exit the descriptor must list. The checker used to
/// stop at the call that never returns, warn and accept the program, and
/// every machine then faulted on the unlisted `Halt` exit.
#[test]
fn a_halt_inside_a_suppressed_call_exits_the_task() {
    let report =
        check_program(&assemble(HALT_IN_CALLEE, AsmMode::Multiscalar).expect("assemble ms"));
    let errors: Vec<String> = report.of_severity(Severity::Error).map(|d| d.to_string()).collect();
    assert!(
        errors.iter().any(|e| e.contains("exit Halt is not among its descriptor targets")),
        "expected the halt in the callee to be flagged, got {errors:?}"
    );
    let outcome = validate_source(HALT_IN_CALLEE, true, &opts());
    assert!(outcome.pass, "{} ({})", outcome.verdict, outcome.detail);
    assert_eq!(outcome.verdict, "caught-static", "{}", outcome.detail);
}

/// A stop tag that fires inside a suppressed call ends the calling task
/// there, as at run time, so its exit is one the descriptor must list.
/// The checker used to warn about the stop and accept the program, and
/// every machine then faulted on the unlisted fall-through exit.
#[test]
fn a_stop_inside_a_suppressed_call_exits_the_task() {
    let report =
        check_program(&assemble(STOP_IN_CALLEE, AsmMode::Multiscalar).expect("assemble ms"));
    let errors: Vec<String> = report.of_severity(Severity::Error).map(|d| d.to_string()).collect();
    assert!(
        errors.iter().any(|e| e.contains("exit Addr(4116) is not among its descriptor targets")),
        "expected the stop in the callee to be flagged, got {errors:?}"
    );
    let outcome = validate_source(STOP_IN_CALLEE, true, &opts());
    assert!(outcome.pass, "{} ({})", outcome.verdict, outcome.detail);
    assert_eq!(outcome.verdict, "caught-static", "{}", outcome.detail);
}
