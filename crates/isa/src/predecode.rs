//! Predecoded per-instruction metadata.
//!
//! [`Op`]'s classification queries (`uses`, `def`, `fu_class`,
//! `exec_class`, the control-flow predicates) are branchy matches over a
//! ~50-variant enum. A pipeline asks them for every fetched slot, every
//! issue attempt, and — with out-of-order issue — for every (older,
//! younger) slot pair in the hazard check, so the same instruction is
//! re-classified thousands of times in a hot simulation.
//!
//! [`PredecodedProgram`] answers each of those queries once per *static*
//! instruction instead: it wraps a [`Program`] with a parallel
//! [`InstrMeta`] table, computed at construction, indexed exactly like
//! `Program::text`. A pipeline's fetched slots carry only the
//! instruction's address, and every later stage reads the `Instr` and
//! its `InstrMeta` back by that address, so none of them re-matches on
//! the `Op`.
//!
//! This is the software analogue of the predecoded instruction cache
//! common in real front-ends (and of the paper's observation that tag
//! bits can be "generated on an instruction cache miss" — derived once,
//! cached, and reused).

use crate::instr::Instr;
use crate::op::{ExecClass, FuClass};
use crate::program::Program;
use crate::reg::Reg;
use crate::tags::RegMask;
use std::ops::Deref;

/// Everything the pipeline wants to know about an instruction without
/// matching on its [`Op`](crate::Op), precomputed once per static instruction.
#[derive(Clone, Copy, Debug)]
pub struct InstrMeta {
    /// Source registers as a mask (`Op::uses`).
    pub uses_mask: RegMask,
    /// Source registers (`Op::uses`) padded with `$0` to three entries.
    /// `$0` is always ready, so a scoreboard can take the latest ready-at
    /// cycle over all three without looking at how many sources there
    /// are.
    pub srcs: [Reg; 3],
    /// Destination register (`Op::def`).
    pub def: Option<Reg>,
    /// Coarse functional-unit class (`Op::fu_class`).
    pub fu_class: FuClass,
    /// Fine execution class (`Op::exec_class`).
    pub exec_class: ExecClass,
    /// `Op::is_branch` — conditional branch.
    pub is_branch: bool,
    /// `Op::is_jump` — unconditional jump/call/return.
    pub is_jump: bool,
    /// `Op::is_control` — branch or jump.
    pub is_control: bool,
    /// `Op::is_load`.
    pub is_load: bool,
    /// `Op::is_store`.
    pub is_store: bool,
}

impl InstrMeta {
    /// Classifies one instruction (the slow path the cache amortizes).
    pub fn of(instr: &Instr) -> InstrMeta {
        let op = &instr.op;
        let uses = op.uses();
        let mut srcs = [Reg::ZERO; 3];
        for (slot, r) in srcs.iter_mut().zip(uses.iter()) {
            *slot = r;
        }
        InstrMeta {
            uses_mask: uses.to_mask(),
            srcs,
            def: op.def(),
            fu_class: op.fu_class(),
            exec_class: op.exec_class(),
            is_branch: op.is_branch(),
            is_jump: op.is_jump(),
            is_control: op.is_control(),
            is_load: op.is_load(),
            is_store: op.is_store(),
        }
    }

    /// Metadata for a `nop` (used for padding slots).
    pub fn nop() -> InstrMeta {
        InstrMeta::of(&Instr::new(crate::op::Op::Nop))
    }
}

/// A [`Program`] plus a parallel predecoded-metadata table.
///
/// Dereferences to the underlying [`Program`], so everything that reads
/// programs (symbol lookup, task descriptors, listings) works
/// unchanged; the pipeline's fetch stage additionally gets
/// [`PredecodedProgram::fetch`], which returns the instruction *and*
/// its metadata in one bounds-checked lookup, and
/// [`PredecodedProgram::decoded`], which later stages use to read them
/// again by the fetched instruction's address.
#[derive(Clone, Debug)]
pub struct PredecodedProgram {
    prog: Program,
    meta: Vec<InstrMeta>,
}

impl PredecodedProgram {
    /// Predecodes every static instruction of `prog` (one linear pass).
    pub fn new(prog: Program) -> PredecodedProgram {
        let meta = prog.text.iter().map(InstrMeta::of).collect();
        PredecodedProgram { prog, meta }
    }

    /// The instruction and its predecoded metadata at byte address `pc`,
    /// if it lies in the text segment and is word-aligned. Semantically
    /// identical to [`Program::instr_at`] plus [`InstrMeta::of`].
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<(&Instr, &InstrMeta)> {
        if pc < self.prog.text_base || !pc.is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - self.prog.text_base) / 4) as usize;
        Some((self.prog.text.get(idx)?, &self.meta[idx]))
    }

    /// The instruction and its metadata at `pc`, an address that
    /// [`PredecodedProgram::fetch`] has accepted. A pipeline holds only
    /// the addresses of the instructions it fetched and reads them here.
    ///
    /// # Panics
    /// Panics if `pc` lies outside the text segment.
    #[inline]
    pub fn decoded(&self, pc: u32) -> (&Instr, &InstrMeta) {
        let idx = (pc.wrapping_sub(self.prog.text_base) / 4) as usize;
        (&self.prog.text[idx], &self.meta[idx])
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        &self.prog
    }
}

impl Deref for PredecodedProgram {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.prog
    }
}

impl From<Program> for PredecodedProgram {
    fn from(prog: Program) -> PredecodedProgram {
        PredecodedProgram::new(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluImmOp, BranchCond, MemWidth, Op};
    use crate::program::TEXT_BASE;

    fn prog() -> Program {
        let mut p = Program::new();
        p.text = vec![
            Instr::new(Op::AluImm {
                op: AluImmOp::Addiu,
                rt: Reg::int(2),
                rs: Reg::int(3),
                imm: 1,
            }),
            Instr::new(Op::Load {
                width: MemWidth::W,
                signed: true,
                rt: Reg::int(4),
                base: Reg::int(29),
                off: 8,
            }),
            Instr::new(Op::Branch {
                cond: BranchCond::Ne,
                rs: Reg::int(2),
                rt: Reg::int(0),
                off: -2,
            }),
            Instr::new(Op::Halt),
        ];
        p
    }

    #[test]
    fn meta_matches_op_queries_for_every_instruction() {
        let pd = PredecodedProgram::new(prog());
        for (i, instr) in pd.text.iter().enumerate() {
            let pc = TEXT_BASE + (i as u32) * 4;
            let (fetched, meta) = pd.fetch(pc).expect("in range");
            assert_eq!(fetched, instr);
            let (i2, m2) = pd.decoded(pc);
            assert!(std::ptr::eq(i2, fetched) && std::ptr::eq(m2, meta));
            let uses: Vec<Reg> = instr.op.uses().iter().collect();
            assert_eq!(meta.srcs[..uses.len()], uses[..]);
            assert!(meta.srcs[uses.len()..].iter().all(|r| r.is_zero()));
            assert_eq!(meta.uses_mask, instr.op.uses().to_mask());
            assert_eq!(meta.def, instr.op.def());
            assert_eq!(meta.fu_class, instr.op.fu_class());
            assert_eq!(meta.exec_class, instr.op.exec_class());
            assert_eq!(meta.is_branch, instr.op.is_branch());
            assert_eq!(meta.is_jump, instr.op.is_jump());
            assert_eq!(meta.is_control, instr.op.is_control());
            assert_eq!(meta.is_load, instr.op.is_load());
            assert_eq!(meta.is_store, instr.op.is_store());
        }
    }

    #[test]
    fn fetch_matches_instr_at_semantics() {
        let pd = PredecodedProgram::new(prog());
        for pc in [0u32, TEXT_BASE - 4, TEXT_BASE + 1, TEXT_BASE + 2, pd.text_end(), u32::MAX] {
            assert_eq!(pd.fetch(pc).map(|(i, _)| *i), pd.instr_at(pc), "pc={pc:#x}");
        }
        assert_eq!(pd.fetch(TEXT_BASE).map(|(i, _)| *i), pd.instr_at(TEXT_BASE));
    }

    #[test]
    fn deref_exposes_program_api() {
        let pd = PredecodedProgram::new(prog());
        assert_eq!(pd.text_end(), TEXT_BASE + 16);
        assert_eq!(pd.program().text.len(), 4);
    }
}
