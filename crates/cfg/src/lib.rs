//! # ms-cfg — static analysis of multiscalar task annotations
//!
//! The paper's compiler performs "a static analysis of the CFG … to supply
//! the create mask" and records "the boundaries of a task and the control
//! edges leaving the task" in descriptors (Section 2.2). Annotation
//! mistakes surface at run time as sequencer errors or wrong values; this
//! crate performs the corresponding *static* checks, so a multiscalar
//! binary can be verified before it ever runs:
//!
//! * every statically reachable task exit appears among its descriptor's
//!   targets, `halt` reached inside a suppressed call included,
//! * control never falls through into another task's entry without a stop
//!   bit,
//! * every forwarded (`!f`) or released register — including inside
//!   functions called by the task (the paper's *suppressed* calls) — is
//!   covered by the task's create mask,
//! * create-mask registers never forwarded or released anywhere in the
//!   task are reported (they rely on end-of-task auto-release, which is
//!   correct but slow — exactly the paper's motivation for explicit
//!   releases).
//!
//! Functions reached by `jal` are summarized once (writes, forwards,
//! releases, whether they return, whether they halt) and the summaries
//! are folded into each calling task, so recursion and shared helpers are
//! handled.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod partition;
mod summary;
mod taskcheck;

pub use partition::{
    partition_program, partition_source, PartitionError, PartitionPolicy, Partitioned,
};
pub use summary::{summarize_functions, FnSummary};
pub use taskcheck::{check_program, Diagnostic, Report, Severity, StaticExit, TaskAnalysis};

#[cfg(test)]
mod tests {
    use super::*;
    use ms_asm::{assemble, AsmMode};

    fn check(src: &str) -> Report {
        let prog = assemble(src, AsmMode::Multiscalar).expect("assembles");
        check_program(&prog)
    }

    #[test]
    fn clean_program_has_no_errors() {
        let r = check(
            "
main:
.task targets=LOOP create=$2,$16
INIT:
    li!f $16, 4
    li!f $2, 0
    b!s  LOOP
.task targets=LOOP,DONE create=$2
LOOP:
    addiu!f $2, $2, 1
    bne!s $2, $16, LOOP
.task targets=halt create=
DONE:
    halt
",
        );
        assert!(!r.has_errors(), "{r}");
        assert_eq!(r.tasks.len(), 3);
    }

    #[test]
    fn missing_target_is_an_error() {
        let r = check(
            "
main:
.task targets=DONE create=$2
A:
    addiu!f $2, $2, 1
    bne!s $2, $16, A      ; back edge not in targets!
.task targets=halt create=
DONE:
    halt
",
        );
        assert!(r.has_errors(), "{r}");
        let msg = r.to_string();
        assert!(msg.contains("not among its descriptor targets"), "{msg}");
    }

    #[test]
    fn fallthrough_into_next_task_is_an_error() {
        let r = check(
            "
main:
.task targets=B create=$2
A:
    addiu!f $2, $2, 1     ; no stop bit: control falls into B
.task targets=halt create=
B:
    halt
",
        );
        assert!(r.has_errors(), "{r}");
        assert!(r.to_string().contains("falls through"), "{r}");
    }

    #[test]
    fn forward_outside_create_mask_is_an_error() {
        let r = check(
            "
main:
.task targets=halt create=$2
A:
    addiu!f $3, $3, 1     ; forwards $3 but creates only $2
    halt
",
        );
        assert!(r.has_errors(), "{r}");
        assert!(r.to_string().contains("$3"), "{r}");
    }

    #[test]
    fn release_outside_create_mask_is_an_error() {
        let r = check(
            "
main:
.task targets=halt create=$2
A:
    release $4
    li!f $2, 1
    halt
",
        );
        assert!(r.has_errors(), "{r}");
    }

    #[test]
    fn auto_release_reliance_is_reported_as_info() {
        let r = check(
            "
main:
.task targets=halt create=$2,$3
A:
    li!f $2, 1            ; $3 never forwarded or released
    halt
",
        );
        assert!(!r.has_errors(), "{r}");
        assert!(r.diagnostics.iter().any(|d| d.severity == Severity::Info), "{r}");
    }

    #[test]
    fn stale_forward_bit_is_an_error() {
        // The forward bit sends $2 once; the later write is invisible to
        // successors, which silently compute on the stale value.
        let r = check(
            "
main:
.task targets=B create=$2
A:
    li!f $2, 1
    addiu $2, $2, 1
    b!s B
.task targets=halt create=
B:
    halt
",
        );
        assert!(r.has_errors(), "{r}");
        assert!(r.to_string().contains("stale"), "{r}");
    }

    #[test]
    fn stale_release_is_an_error() {
        let r = check(
            "
main:
.task targets=B create=$2
A:
    release $2
    li $2, 7
    b!s B
.task targets=halt create=
B:
    halt
",
        );
        assert!(r.has_errors(), "{r}");
        assert!(r.to_string().contains("stale"), "{r}");
    }

    #[test]
    fn stale_forward_through_a_callee_write_is_an_error() {
        // The task forwards $5 and then calls a helper that rewrites it.
        let r = check(
            "
main:
.task targets=halt create=$5
A:
    li!f $5, 1
    jal helper
    halt
helper:
    addiu $5, $5, 1
    jr $31
",
        );
        assert!(r.has_errors(), "{r}");
        assert!(r.to_string().contains("stale"), "{r}");
    }

    #[test]
    fn exclusive_path_reforward_is_a_warning_not_an_error() {
        // Figure 4 forwards $4 on two dynamically exclusive paths; a
        // path-insensitive checker cannot prove exclusivity, so this is
        // flagged as a warning but must not be an error.
        let r = check(
            "
main:
.task targets=halt create=$2
A:
    bne $3, $0, OTHER
    li!f $2, 1
    halt
OTHER:
    li!f $2, 2
    halt
",
        );
        assert!(!r.has_errors(), "{r}");
    }

    #[test]
    fn reforward_on_one_path_is_a_warning() {
        let r = check(
            "
main:
.task targets=halt create=$2
A:
    li!f $2, 1
    beq $3, $0, SKIP
    li $2, 2
SKIP:
    halt
",
        );
        assert!(!r.has_errors(), "{r}");
        assert!(r.diagnostics.iter().any(|d| d.severity == Severity::Warning), "{r}");
    }

    #[test]
    fn suppressed_calls_fold_function_effects_into_the_task() {
        // The helper forwards $5; the task's create mask must cover it.
        let bad = check(
            "
main:
.task targets=halt create=$2
A:
    jal helper
    li!f $2, 1
    halt
helper:
    addiu!f $5, $5, 1
    jr $31
",
        );
        assert!(bad.has_errors(), "{bad}");

        let good = check(
            "
main:
.task targets=halt create=$2,$5
A:
    jal helper
    li!f $2, 1
    halt
helper:
    addiu!f $5, $5, 1
    jr $31
",
        );
        assert!(!good.has_errors(), "{good}");
    }

    #[test]
    fn recursive_functions_are_summarized() {
        let r = check(
            "
main:
.task targets=halt create=$2
A:
    jal fib
    move!f $2, $2
    halt
fib:
    addiu $29, $29, -16
    sd $31, 0($29)
    blez $4, BASE
    addiu $4, $4, -1
    jal fib
BASE:
    ld $31, 0($29)
    addiu $29, $29, 16
    jr $31
",
        );
        // No errors: fib returns and writes no forwarded regs.
        assert!(!r.has_errors(), "{r}");
    }

    #[test]
    fn return_exit_matches_ret_target() {
        let ok = check(
            "
main:
.task targets=F create=$31
A:
    jal!f!s F
.task targets=halt create=
B:
    halt
.task targets=ret create=$2
F:
    li!f $2, 3
    jr!s $31
",
        );
        assert!(!ok.has_errors(), "{ok}");

        let bad = check(
            "
main:
.task targets=F create=$31
A:
    jal!f!s F
.task targets=halt create=
B:
    halt
.task targets=B create=$2    ; should be ret
F:
    li!f $2, 3
    jr!s $31
",
        );
        assert!(bad.has_errors(), "{bad}");
    }

    #[test]
    fn stops_fire_on_the_taken_bit_of_the_runtime() {
        // `b` is always taken, so `b!s` leaves only to its target. A jump
        // is taken, so `j!st` leaves and `j!sn` never does; any other
        // non-branch is not taken, so `addiu!sn` leaves to the next
        // instruction.
        let r = check(
            "
main:
.task targets=B create=
A:
    b!s B
    nop
.task targets=C create=
B:
    j!st C
.task targets=D create=
C:
    addiu!sn $0, $0, 0
.task targets=halt create=
D:
    j!sn E
E:
    halt
",
        );
        assert!(!r.has_errors(), "{r}");
        let exits: Vec<&[StaticExit]> = r.tasks.iter().map(|t| t.exits.as_slice()).collect();
        let addr = StaticExit::Addr;
        assert_eq!(
            exits,
            [&[addr(0x1008)][..], &[addr(0x100c)], &[addr(0x1010)], &[StaticExit::Halt]]
        );
        assert_eq!(r.tasks[0].reachable, 1, "the dead `nop` is not walked: {r}");
    }

    #[test]
    fn conditional_stop_paths_are_followed() {
        let r = check(
            "
main:
.task targets=A,B create=$2
A:
    addiu!f $2, $2, 1
    bne!st $2, $16, A     ; stop if taken -> target A
    j!s B                 ; otherwise stop -> B
.task targets=halt create=
B:
    halt
",
        );
        assert!(!r.has_errors(), "{r}");
        // The first task has exactly two exits.
        assert_eq!(r.tasks[0].exits.len(), 2, "{r}");
    }
}
