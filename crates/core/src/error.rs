//! Simulation errors.

use crate::diag::DiagnosticSnapshot;
use std::fmt;

/// A fatal simulation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The sequencer needed a task descriptor at `pc` and found none —
    /// the program's task annotation does not cover this control path.
    NoDescriptor {
        /// The uncovered entry address.
        pc: u32,
    },
    /// A processing unit faulted (e.g. fetch outside the text segment).
    Fault(String),
    /// The run exceeded the configured cycle bound.
    Timeout {
        /// The bound that was hit.
        cycles: u64,
        /// Machine state at the bound (`None` for the scalar baseline,
        /// which has no multiscalar state to report).
        snapshot: Option<Box<DiagnosticSnapshot>>,
        /// Flight-recorder history: periodic snapshots leading up to the
        /// bound, oldest first (empty for the scalar baseline).
        history: Vec<DiagnosticSnapshot>,
    },
    /// No task retired for a full watchdog window — the machine is
    /// livelocked or deadlocked (see [`crate::SimConfig::watchdog`]).
    NoProgress {
        /// The watchdog window that elapsed without a retirement.
        window: u64,
        /// Machine state when the watchdog fired.
        snapshot: Box<DiagnosticSnapshot>,
        /// Flight-recorder history: periodic snapshots leading up to the
        /// failure, oldest first.
        history: Vec<DiagnosticSnapshot>,
    },
    /// A retired task differs from the same task of the sequential walk
    /// of the binary (see [`crate::Processor::run_checked`]).
    Diverged {
        /// The task's dispatch order.
        order: u64,
        /// The task's entry PC.
        entry: u32,
        /// The processing unit that ran it.
        unit: usize,
        /// The cycle it retired.
        cycle: u64,
        /// The first difference, e.g. `$2 is 0x1 where the walk has 0x2`.
        what: String,
        /// Machine state just after the task left the head.
        snapshot: Box<DiagnosticSnapshot>,
        /// Flight-recorder history: periodic snapshots leading up to the
        /// retirement, oldest first.
        history: Vec<DiagnosticSnapshot>,
    },
    /// An internal simulator invariant broke. Carries the machine state
    /// instead of panicking, so the break is diagnosable post-mortem.
    Internal {
        /// Which invariant broke.
        what: String,
        /// Machine state at the break.
        snapshot: Box<DiagnosticSnapshot>,
    },
    /// The program is malformed (e.g. no instructions, bad entry).
    BadProgram(String),
    /// A task's actual exit address is not among its descriptor's targets
    /// — the annotation is inconsistent with the code.
    ExitNotInTargets {
        /// The task entry.
        task: u32,
        /// Where it actually went.
        exit: String,
    },
}

impl SimError {
    /// The diagnostic snapshot attached to this error, if any.
    pub fn snapshot(&self) -> Option<&DiagnosticSnapshot> {
        match self {
            SimError::Timeout { snapshot, .. } => snapshot.as_deref(),
            SimError::NoProgress { snapshot, .. }
            | SimError::Diverged { snapshot, .. }
            | SimError::Internal { snapshot, .. } => Some(snapshot),
            _ => None,
        }
    }

    /// The flight-recorder history attached to this error (periodic
    /// snapshots leading up to the failure, oldest first; empty when the
    /// error carries none).
    pub fn history(&self) -> &[DiagnosticSnapshot] {
        match self {
            SimError::Timeout { history, .. }
            | SimError::NoProgress { history, .. }
            | SimError::Diverged { history, .. } => history,
            _ => &[],
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoDescriptor { pc } => {
                write!(
                    f,
                    "no task descriptor at {pc:#x}; the task annotation does not cover this path"
                )
            }
            SimError::Fault(msg) => write!(f, "processing unit fault: {msg}"),
            SimError::Timeout { cycles, snapshot, history } => {
                write!(f, "simulation exceeded {cycles} cycles")?;
                if let Some(s) = snapshot {
                    write!(f, " ({})", s.summary())?;
                }
                if !history.is_empty() {
                    write!(f, " [{} flight-recorder frames]", history.len())?;
                }
                Ok(())
            }
            SimError::NoProgress { window, snapshot, history } => {
                write!(f, "no task retired for {window} cycles ({})", snapshot.summary())?;
                if !history.is_empty() {
                    write!(f, " [{} flight-recorder frames]", history.len())?;
                }
                Ok(())
            }
            SimError::Diverged { order, entry, unit, cycle, what, history, .. } => write!(
                f,
                "task {order} (entry {entry:#x}, unit {unit}, cycle {cycle}) left the \
                 sequential walk: {what} [{} flight-recorder frames]",
                history.len()
            ),
            SimError::Internal { what, snapshot } => {
                write!(f, "internal invariant broke: {what} ({})", snapshot.summary())
            }
            SimError::BadProgram(msg) => write!(f, "malformed program: {msg}"),
            SimError::ExitNotInTargets { task, exit } => {
                write!(
                    f,
                    "task at {task:#x} exited to {exit}, which is not among its descriptor targets"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}
