//! # ms-pipeline — the multiscalar processing unit
//!
//! One element of the paper's circular queue of processing units: a
//! 5-stage (IF/ID/EX/MEM/WB) pipeline configurable as in-order or
//! out-of-order and 1-way or 2-way issue, with the paper's functional-unit
//! mix and Table-1 latencies, a per-unit copy of the register file with
//! inter-task reservations, forward/stop tag-bit handling, and `release`
//! semantics. The same unit, assigned a whole program as a single "task",
//! is the scalar baseline processor.
//!
//! Modules:
//! * [`LatencyTable`]/[`FuPool`] — functional units,
//! * [`execute`] — pure architectural semantics,
//! * [`RegFile`] — per-unit registers with local scoreboard and
//!   inter-task reservations,
//! * [`ProcessingUnit`] — the pipeline itself.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod exec;
mod fu;
mod regfile;
mod unit;

pub use exec::{execute, extend_load, ControlOutcome, MemRequest, Outcome};
pub use fu::{FuPool, LatencyTable};
pub use regfile::{ReadStatus, RegFile};
pub use unit::{ExitKind, MemPorts, ProcessingUnit, TaskCounters, TickOutput, UnitConfig};
