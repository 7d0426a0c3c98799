//! # ms-isa — the multiscalar instruction set architecture
//!
//! A MIPS-like 64-bit RISC instruction set extended with the multiscalar
//! annotations described in *Multiscalar Processors* (Sohi, Breach &
//! Vijaykumar, ISCA 1995), Section 2.2:
//!
//! * **tag bits** on every instruction — a *forward* bit (the last writer of
//!   a register forwards its result to successor tasks) and *stop* bits
//!   (conditions under which the task completes),
//! * a **`release`** instruction that forwards registers a task turned out
//!   not to produce,
//! * **task descriptors** carrying the entry point, the *create mask* (the
//!   set of registers a task may produce) and the possible successor
//!   targets used by the sequencer's control-flow prediction.
//!
//! The paper stresses that "the instruction set used to specify the task is
//! of secondary importance" — any base ISA works once the annotations are
//! attached. This crate therefore defines a small, clean RISC core
//! ([`Op`]), the annotation types ([`TagBits`], [`RegMask`],
//! [`TaskDescriptor`]), a binary encoding ([`encode`]/[`decode`]) and the
//! executable [`Program`] image consumed by the simulators.
//!
//! ```
//! use ms_isa::{AluImmOp, Instr, Op, Reg};
//!
//! let i = Instr::new(Op::AluImm { op: AluImmOp::Addiu, rt: Reg::int(4), rs: Reg::int(4), imm: 16 })
//!     .with_forward();
//! assert!(i.tags.forward);
//! assert_eq!(i.to_string(), "addiu!f $4, $4, 16");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod encode;
mod instr;
mod op;
mod predecode;
mod program;
mod reg;
mod tags;
mod task;

pub use encode::{decode, encode, DecodeError, EncodeError};
pub use instr::Instr;
pub use op::{
    AluImmOp, AluOp, BranchCond, BranchZCond, ExecClass, FpArithKind, FpCmpCond, FuClass, ImmField,
    MemWidth, Op, Prec, RegList, ShiftOp,
};
pub use predecode::{InstrMeta, PredecodedProgram};
pub use program::{DataSegment, Program, DATA_BASE, STACK_TOP, TEXT_BASE};
pub use reg::{Reg, NUM_REGS};
pub use tags::{RegMask, StopCond, TagBits};
pub use task::{TargetKind, TaskDescriptor, TaskTarget, MAX_TARGETS};
