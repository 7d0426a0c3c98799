//! # multiscalar — the multiscalar processor simulator
//!
//! A from-scratch reproduction of the processor described in *Multiscalar
//! Processors* (G. S. Sohi, S. E. Breach, T. N. Vijaykumar, Proc. 22nd
//! ISCA, 1995): a collection of processing units walked over the program
//! control-flow graph task-by-task by a sequencer, with register results
//! forwarded over a unidirectional ring and speculative memory resolved by
//! an Address Resolution Buffer.
//!
//! * [`Processor`] — the multiscalar processor (sequencer, circular unit
//!   queue, ring, ARB, banked caches, squash/retire, Section-3 cycle
//!   accounting).
//! * [`ScalarProcessor`] — the paper's scalar baseline: one identical
//!   unit, non-speculative memory, 1-cycle cache hits.
//! * [`SequentialWalk`] — a binary run one instruction at a time and cut
//!   into tasks: the differential oracle [`Processor::run_checked`]
//!   holds every retiring task to.
//! * [`SimConfig`] — the Section-5.1 machine parameters, with builders for
//!   the 4-/8-unit, 1-/2-way, in-order/out-of-order design points of
//!   Tables 3 and 4.
//! * [`RunStats`]/[`CycleBreakdown`] — results, including the cycle
//!   distribution taxonomy of Section 3.
//! * [`trace`] — the one other observation channel: every event of a run
//!   goes to a [`trace::TraceSink`], and [`CpiAccountant`] is the sink
//!   that builds the CPI stack carried in [`RunStats::cpi`].
//! * [`FaultInjector`]/[`DiagnosticSnapshot`] — chaos-testing hooks that
//!   perturb the microarchitecture without changing architectural
//!   results, and the structured machine-state dump attached to
//!   [`SimError::Timeout`], [`SimError::NoProgress`],
//!   [`SimError::Diverged`] and [`SimError::Internal`] failures (see the
//!   `ms-chaos` crate).
//!
//! ## Quick start
//!
//! ```
//! use ms_asm::{assemble, AsmMode};
//! use multiscalar::{Processor, ScalarProcessor, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//! main:
//! .task targets=INIT2 create=$16
//!     li!f $16, 50
//!     b!s  INIT2
//! .task targets=LOOP create=$2
//! INIT2:
//!     li!f $2, 0
//!     b!s  LOOP
//! .task targets=LOOP,DONE create=$2
//! LOOP:
//!     addiu!f $2, $2, 1
//!     bne!s   $2, $16, LOOP
//! .task targets=halt create=
//! DONE:
//!     halt
//! ";
//! // Same source, two binaries (paper Table 2).
//! let ms = assemble(src, AsmMode::Multiscalar)?;
//! let sc = assemble(src, AsmMode::Scalar)?;
//!
//! let mut scalar = ScalarProcessor::new(sc, SimConfig::scalar())?;
//! let s = scalar.run()?;
//!
//! let mut multi = Processor::new(ms, SimConfig::multiscalar(4))?;
//! let m = multi.run()?;
//! assert_eq!(multi.final_regs().unwrap()[2], scalar.reg(ms_isa::Reg::int(2)));
//! println!("speedup {:.2}", s.cycles as f64 / m.cycles as f64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ablation;
mod config;
mod diag;
mod error;
mod flight;
mod inject;
mod processor;
mod ring;
mod scalar;
mod stats;
mod walk;

pub use ablation::{ArbFullPolicy, PredictorKind};
pub use config::SimConfig;
pub use diag::{DiagnosticSnapshot, HeadDiag, UnitDiag};
pub use error::SimError;
pub use flight::FlightRecorder;
pub use inject::{FaultInjector, NoFaults};
pub use processor::Processor;
pub use ring::{Ring, RingMsg};
pub use scalar::ScalarProcessor;
pub use stats::{CycleBreakdown, RunStats};
pub use walk::SequentialWalk;

pub use ms_trace::CpiAccountant;

/// The structured trace layer (re-exported from `ms-trace`): attach a
/// [`trace::TraceSink`] via [`Processor::with_sink`] to observe per-cycle
/// [`trace::TraceEvent`]s instead of (or in addition to) aggregate stats.
pub use ms_trace as trace;

#[cfg(test)]
mod tests {
    use super::*;
    use ms_asm::{assemble, AsmMode};
    use ms_isa::Reg;

    /// A counted loop where each iteration is a task (the canonical
    /// multiscalar shape): $2 counts up to $16 = 100.
    const COUNT_LOOP: &str = "
main:
.task targets=INIT2 create=$16
INIT:
    li!f $16, 100
    b!s  INIT2
.task targets=LOOP create=$2
INIT2:
    li!f $2, 0
    b!s  LOOP
.task targets=LOOP,DONE create=$2
LOOP:
    addiu!f $2, $2, 1
    bne!s   $2, $16, LOOP
.task targets=halt create=
DONE:
    halt
";

    #[test]
    fn counted_loop_runs_multiscalar() {
        let prog = assemble(COUNT_LOOP, AsmMode::Multiscalar).unwrap();
        let mut p = Processor::new(prog, SimConfig::multiscalar(4)).unwrap();
        let stats = p.run().expect("run");
        assert_eq!(p.final_regs().unwrap()[2], 100);
        assert_eq!(stats.tasks_retired, 3 + 100);
        assert!(stats.ipc() > 0.0);
        // The loop back-edge should be predicted nearly always.
        assert!(stats.prediction_accuracy() > 0.9, "{}", stats.prediction_accuracy());
    }

    #[test]
    fn multiscalar_matches_scalar_result() {
        let ms = assemble(COUNT_LOOP, AsmMode::Multiscalar).unwrap();
        let sc = assemble(COUNT_LOOP, AsmMode::Scalar).unwrap();
        let mut p = Processor::new(ms, SimConfig::multiscalar(8)).unwrap();
        p.run().unwrap();
        let mut s = ScalarProcessor::new(sc, SimConfig::scalar()).unwrap();
        s.run().unwrap();
        assert_eq!(p.final_regs().unwrap()[2], s.reg(Reg::int(2)));
    }

    #[test]
    fn independent_iterations_speed_up() {
        // Each task does a chunk of independent work; only the induction
        // variable crosses tasks, forwarded early.
        let src = "
main:
.task targets=LOOP create=$2
INIT:
    li!f $2, 0
    b!s  LOOP
.task targets=LOOP,DONE create=$2,$10,$11,$12,$13
LOOP:
    addiu!f $2, $2, 1
    addiu $10, $0, 1
    mul   $11, $10, $10
    mul   $12, $11, $11
    mul   $13, $12, $12
    addiu $10, $13, 1
    mul   $11, $10, $10
    mul   $12, $11, $11
    release $10, $11, $12, $13
    slti  $1, $2, 60
    bne!s $1, $0, LOOP
.task targets=halt create=
DONE:
    halt
";
        let ms = assemble(src, AsmMode::Multiscalar).unwrap();
        let sc = assemble(src, AsmMode::Scalar).unwrap();
        let mut s = ScalarProcessor::new(sc, SimConfig::scalar()).unwrap();
        let sstats = s.run().unwrap();
        let mut p = Processor::new(ms.clone(), SimConfig::multiscalar(8)).unwrap();
        let mstats = p.run().unwrap();
        let speedup = sstats.cycles as f64 / mstats.cycles as f64;
        assert!(speedup > 1.5, "expected speedup, got {speedup:.2}");
        // Dead $10-$13 values are released; $2 forwarded: no deadlock and
        // correct final count.
        assert_eq!(p.final_regs().unwrap()[2], 60);
    }

    #[test]
    fn memory_violation_squashes_and_recovers() {
        // Each task increments a memory cell: a serial chain through
        // memory. Later tasks may load prematurely, so the ARB must
        // detect violations and recovery must still produce 30.
        let src = "
.data
cell: .word 0
.text
main:
.task targets=LOOP create=$2,$16
INIT:
    li!f $2, 0
    li!f $16, 30
    b!s  LOOP
.task targets=LOOP,DONE create=$2,$3,$5
LOOP:
    la   $5, cell
    lw   $3, 0($5)
    addiu $3, $3, 1
    sw   $3, 0($5)
    addiu!f $2, $2, 1
    release $3, $5
    bne!s $2, $16, LOOP
.task targets=halt create=
DONE:
    halt
";
        let ms = assemble(src, AsmMode::Multiscalar).unwrap();
        let sc = assemble(src, AsmMode::Scalar).unwrap();
        let mut p = Processor::new(ms.clone(), SimConfig::multiscalar(4)).unwrap();
        let mstats = p.run().unwrap();
        let mut s = ScalarProcessor::new(sc, SimConfig::scalar()).unwrap();
        s.run().unwrap();
        let cell = ms.symbol("cell").unwrap();
        assert_eq!(p.memory().read_le(cell, 4), 30);
        assert_eq!(s.memory().read_le(cell, 4), 30);
        assert!(
            mstats.memory_squashes > 0,
            "serial chain through memory should violate at least once"
        );
    }

    #[test]
    fn more_units_never_change_results() {
        let mut finals = Vec::new();
        for units in [1usize, 2, 4, 8] {
            let ms = assemble(COUNT_LOOP, AsmMode::Multiscalar).unwrap();
            let mut p = Processor::new(ms, SimConfig::multiscalar(units)).unwrap();
            p.run().unwrap();
            finals.push(p.final_regs().unwrap()[2]);
        }
        assert!(finals.iter().all(|&v| v == 100), "{finals:?}");
    }

    #[test]
    fn determinism() {
        let run = || {
            let ms = assemble(COUNT_LOOP, AsmMode::Multiscalar).unwrap();
            let mut p = Processor::new(ms, SimConfig::multiscalar(8).issue(2)).unwrap();
            let st = p.run().unwrap();
            (st.cycles, st.instructions, st.tasks_squashed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejects_unannotated_program() {
        let sc = assemble("main: halt\n", AsmMode::Scalar).unwrap();
        match Processor::new(sc, SimConfig::multiscalar(4)) {
            Err(e) => assert!(matches!(e, SimError::BadProgram(_))),
            Ok(_) => panic!("unannotated program should be rejected"),
        }
    }

    #[test]
    fn timeout_guard_fires() {
        let src = "
main:
.task targets=LOOP create=$2
LOOP:
    addiu!f $2, $2, 1
    b!s LOOP
";
        let ms = assemble(src, AsmMode::Multiscalar).unwrap();
        let mut p = Processor::new(ms, SimConfig::multiscalar(2).max_cycles(10_000)).unwrap();
        assert!(matches!(p.run(), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn watchdog_reports_livelock_with_snapshot() {
        // The task never reaches its stop instruction (an intra-task
        // infinite loop), so the head never completes and nothing ever
        // retires: a livelock. The watchdog must fail fast with a
        // populated snapshot instead of grinding to the cycle bound.
        let src = "
main:
.task targets=DONE create=$2
SPIN:
    addiu $2, $2, 1
    b SPIN
.task targets=halt create=
DONE:
    halt
";
        let ms = assemble(src, AsmMode::Multiscalar).unwrap();
        let mut p = Processor::new(ms, SimConfig::multiscalar(2).watchdog(Some(50_000))).unwrap();
        match p.run() {
            Err(SimError::NoProgress { window, snapshot, history }) => {
                assert_eq!(window, 50_000);
                assert_eq!(snapshot.tasks_retired, 0);
                let head = snapshot.head.expect("a task is in flight");
                assert_eq!(head.order, 0);
                assert!(head.age > 49_000, "{}", head.age);
                assert!(!snapshot.units.is_empty());
                let text = snapshot.to_string();
                assert!(text.contains("head: task #0"), "{text}");
                assert!(snapshot.to_json().starts_with("{\"cycle\":"), "{}", snapshot.to_json());
                // The always-on flight recorder sampled state on the way
                // to the failure, oldest first.
                assert!(!history.is_empty());
                assert!(history.windows(2).all(|w| w[0].cycle < w[1].cycle));
                assert!(history.last().unwrap().cycle <= snapshot.cycle);
            }
            other => panic!("expected NoProgress, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_spares_healthy_runs() {
        // A tight window must not fire as long as tasks keep retiring.
        let prog = assemble(COUNT_LOOP, AsmMode::Multiscalar).unwrap();
        let mut p = Processor::new(prog, SimConfig::multiscalar(4).watchdog(Some(1_000))).unwrap();
        let stats = p.run().expect("healthy run must not trip the watchdog");
        assert_eq!(p.final_regs().unwrap()[2], 100);
        assert_eq!(stats.tasks_retired, 103);
    }

    #[test]
    fn function_call_tasks_use_ras() {
        // Caller task ends in jal (Call exit); callee task returns (Return
        // exit) through the sequencer's RAS.
        let src = "
main:
.task targets=FN create=$4,$31
CALLER:
    li!f $4, 21
    jal!f!s FN
.task targets=halt create=
BACK:
    halt
.task targets=ret create=$2
FN:
    addu!f $2, $4, $4
    jr!s  $31
";
        let ms = assemble(src, AsmMode::Multiscalar).unwrap();
        let mut p = Processor::new(ms, SimConfig::multiscalar(4)).unwrap();
        let stats = p.run().unwrap();
        assert_eq!(p.final_regs().unwrap()[2], 42);
        assert_eq!(stats.tasks_retired, 3);
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use ms_asm::{assemble, AsmMode};

    /// A loop whose iterations communicate a register chain — sensitive to
    /// ring latency.
    const CHAIN: &str = "
main:
.task targets=LOOP create=$2,$16
INIT:
    li!f $16, 60
    li!f $2, 0
    b!s  LOOP
.task targets=LOOP,DONE create=$2
LOOP:
    addiu!f $2, $2, 1
    bne!s $2, $16, LOOP
.task targets=halt create=
DONE:
    halt
";

    /// A loop with a data-dependent successor alternating every
    /// iteration — learnable by PAs, hopeless for static prediction.
    const ALTERNATE: &str = "
main:
.task targets=STEP create=$16,$20
INIT:
    li!f $16, 64
    li!f $20, 0
    b!s  STEP
.task targets=EVEN,ODD create=$20
STEP:
    addiu!f $20, $20, 1
    andi $9, $20, 1
    bne!st $9, $0, ODD
    j!s  EVEN
.task targets=STEP,FIN create=
EVEN:
    bne!st $20, $16, STEP
    j!s FIN
.task targets=STEP,FIN create=
ODD:
    bne!st $20, $16, STEP
    j!s FIN
.task targets=halt create=
FIN:
    halt
";

    fn cycles_with(src: &str, cfg: SimConfig) -> u64 {
        let ms = assemble(src, AsmMode::Multiscalar).unwrap();
        let mut p = Processor::new(ms, cfg).unwrap();
        p.run().unwrap().cycles
    }

    #[test]
    fn slower_ring_slows_register_chains() {
        let fast = cycles_with(CHAIN, SimConfig::multiscalar(4));
        let slow = cycles_with(CHAIN, SimConfig::multiscalar(4).ring_latency(4));
        assert!(slow > fast, "ring latency 4 ({slow}) should exceed 1 ({fast})");
    }

    #[test]
    fn static_prediction_loses_on_alternating_successors() {
        let ms = assemble(ALTERNATE, AsmMode::Multiscalar).unwrap();
        let mut pas = Processor::new(ms.clone(), SimConfig::multiscalar(4)).unwrap();
        let pas_stats = pas.run().unwrap();
        let mut stat = Processor::new(
            ms,
            SimConfig::multiscalar(4).predictor(PredictorKind::StaticFirstTarget),
        )
        .unwrap();
        let stat_stats = stat.run().unwrap();
        assert!(
            stat_stats.control_squashes > pas_stats.control_squashes,
            "static {} vs pas {}",
            stat_stats.control_squashes,
            pas_stats.control_squashes
        );
        // Both still compute the same architectural result.
        assert_eq!(pas_stats.instructions, stat_stats.instructions);
    }

    #[test]
    fn last_outcome_predictor_runs_correctly() {
        let c =
            cycles_with(ALTERNATE, SimConfig::multiscalar(4).predictor(PredictorKind::LastOutcome));
        assert!(c > 0);
    }

    #[test]
    fn arb_squash_policy_makes_forward_progress() {
        // Wide store footprints with a tiny ARB: both policies must
        // complete with identical architectural results.
        let src = "
.data
buf: .space 2048
.text
main:
.task targets=LOOP create=$16,$20,$22
INIT:
    li!f $16, 8
    li!f $20, 0
    la!f $22, buf
    b!s  LOOP
.task targets=LOOP,FIN create=$20,$22
LOOP:
    addiu!f $20, $20, 1
    move    $8, $22
    addiu!f $22, $22, 256
    li   $9, 0
FILL:
    addu $10, $8, $9
    sw   $20, 0($10)
    addiu $9, $9, 4
    slti $11, $9, 256
    bne  $11, $0, FILL
    bne!s $20, $16, LOOP
.task targets=halt create=
FIN:
    halt
";
        let ms = assemble(src, AsmMode::Multiscalar).unwrap();
        let mut stall_cfg = SimConfig::multiscalar(4);
        stall_cfg.arb_capacity = 4;
        let mut squash_cfg = stall_cfg.arb_policy(ArbFullPolicy::Squash);
        squash_cfg.arb_capacity = 4;

        let mut p1 = Processor::new(ms.clone(), stall_cfg).unwrap();
        let s1 = p1.run().unwrap();
        let mut p2 = Processor::new(ms.clone(), squash_cfg).unwrap();
        let s2 = p2.run().unwrap();
        assert!(s2.arb_squashes > 0, "squash policy should squash on overflow");
        assert_eq!(s1.arb_squashes, 0, "stall policy never squashes on overflow");
        let buf = ms.symbol("buf").unwrap();
        for off in (0..2048u32).step_by(4) {
            assert_eq!(
                p1.memory().read_le(buf + off, 4),
                p2.memory().read_le(buf + off, 4),
                "policies diverge at {off}"
            );
        }
    }

    #[test]
    fn ring_width_override_is_respected() {
        let narrow = cycles_with(CHAIN, SimConfig::multiscalar(8).issue(2).ring_width(1));
        let wide = cycles_with(CHAIN, SimConfig::multiscalar(8).issue(2).ring_width(4));
        assert!(narrow >= wide, "narrow {narrow} vs wide {wide}");
    }
}
