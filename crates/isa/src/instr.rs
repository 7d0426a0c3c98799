//! A tagged instruction: operation plus multiscalar tag bits.

use crate::op::Op;
use crate::tags::{StopCond, TagBits};
use std::fmt;

/// An instruction as stored in a multiscalar program: the base-ISA
/// operation plus the forward/stop tag bits of Section 2.2.
///
/// In hardware the tag bits may live in a side table concatenated with the
/// instruction on an instruction-cache miss; architecturally they are part
/// of the instruction, so we store them together.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Instr {
    /// The base operation.
    pub op: Op,
    /// Multiscalar tag bits.
    pub tags: TagBits,
}

impl Instr {
    /// An untagged instruction.
    pub fn new(op: Op) -> Instr {
        Instr { op, tags: TagBits::NONE }
    }

    /// Sets the forward bit (builder style).
    pub fn with_forward(mut self) -> Instr {
        self.tags.forward = true;
        self
    }

    /// Sets the stop condition (builder style).
    pub fn with_stop(mut self, stop: StopCond) -> Instr {
        self.tags.stop = stop;
        self
    }
}

impl From<Op> for Instr {
    fn from(op: Op) -> Instr {
        Instr::new(op)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = format!("{}{}", self.op.mnemonic(), self.tags.suffix());
        let ops = self.op.operands();
        if ops.is_empty() {
            write!(f, "{m}")
        } else {
            write!(f, "{m} {ops}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BranchCond;
    use crate::reg::Reg;

    #[test]
    fn display_includes_tag_suffixes() {
        let bne = Op::Branch { cond: BranchCond::Ne, rs: Reg::int(20), rt: Reg::int(16), off: -14 };
        let i = Instr::new(bne).with_stop(StopCond::Always);
        assert_eq!(i.to_string(), "bne!s $20, $16, -14");

        let j = Instr::new(Op::Halt);
        assert_eq!(j.to_string(), "halt");
    }

    #[test]
    fn builders_compose() {
        let i = Instr::new(Op::Nop).with_forward().with_stop(StopCond::IfTaken);
        assert!(i.tags.forward);
        assert_eq!(i.tags.stop, StopCond::IfTaken);
    }
}
