//! Binary encoding.
//!
//! Instructions encode to a 32-bit word plus a 3-bit tag nibble. Keeping
//! the tags out of the word mirrors the paper's suggestion of "a table of
//! tag bits to be associated with each static instruction" that the fetch
//! hardware concatenates on a cache miss, so "an existing ISA may be used
//! without a major overhaul".
//!
//! Formats (`op` is always bits 31..24):
//!
//! * `R3`:  `[op:8][a:6][b:6][c:6][0:6]`
//! * `I12`: `[op:8][a:6][b:6][imm:12]` (signed except `andi`/`ori`/`xori`)
//! * `SH`:  `[op:8][rd:6][rt:6][sh:6][0:6]`
//! * `L18`: `[op:8][rt:6][imm:18]` (signed; `lui` shifts left 12)
//! * `J24`: `[op:8][word_target:24]`
//!
//! The opcode byte and the immediate fields come from the operation's
//! format table in [`crate::op`]; decoding looks the opcode byte up in the
//! same tables. This module only lays the fields out.

use crate::instr::Instr;
use crate::op::{ImmField, Op, RegList};
use crate::reg::Reg;
use crate::tags::{StopCond, TagBits};
use std::fmt;

/// Error produced when an instruction cannot be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate does not fit in its field.
    ImmOutOfRange {
        /// The offending instruction, rendered as text.
        instr: String,
        /// The immediate value.
        value: i64,
        /// Field width in bits.
        bits: u32,
    },
    /// A jump target does not fit or is unaligned.
    BadTarget {
        /// The target address.
        target: u32,
    },
    /// A `release` is empty or names `$0`: a zero register field encodes
    /// an empty slot, so the entry would silently vanish from the binary.
    BadRelease {
        /// The offending instruction, rendered as text.
        instr: String,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { instr, value, bits } => {
                write!(f, "immediate {value} does not fit in {bits} bits in `{instr}`")
            }
            EncodeError::BadTarget { target } => {
                write!(f, "jump target {target:#x} is unaligned or out of range")
            }
            EncodeError::BadRelease { instr } => {
                write!(f, "`{instr}` is not encodable: a release must name 1..=3 registers, none of them $0")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error produced when a word cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A register field holds an invalid index.
    BadReg(u8),
    /// The tag nibble holds an invalid stop encoding.
    BadTags(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            DecodeError::BadReg(r) => write!(f, "invalid register field {r}"),
            DecodeError::BadTags(t) => write!(f, "invalid tag bits {t:#x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn r3(op: u8, a: Reg, b: Reg, c: Reg) -> u32 {
    ((op as u32) << 24)
        | ((a.index() as u32) << 18)
        | ((b.index() as u32) << 12)
        | ((c.index() as u32) << 6)
}

/// Encodes an instruction to `(word, tag_bits)`.
///
/// # Errors
/// Returns [`EncodeError`] if an immediate or target does not fit its
/// field; the assembler guarantees in-range operands for assembled code.
pub fn encode(instr: &Instr) -> Result<(u32, u8), EncodeError> {
    let opc = instr.op.opcode();
    let z = Reg::ZERO;
    // `v` in the low bits, if `field` holds it.
    let imm = |v: i32, field: ImmField| {
        if field.fits(v as i64) {
            Ok(v as u32 & ((1 << field.bits) - 1))
        } else {
            Err(EncodeError::ImmOutOfRange {
                instr: instr.to_string(),
                value: v as i64,
                bits: field.bits,
            })
        }
    };
    let word = match instr.op {
        Op::Alu { rd: a, rs: b, rt: c, .. }
        | Op::ShiftV { rd: a, rt: b, rs: c, .. }
        | Op::FpArith { fd: a, fs: b, ft: c, .. }
        | Op::FpCmp { rd: a, fs: b, ft: c, .. } => r3(opc, a, b, c),
        Op::Shift { rd, rt, sh, .. } => {
            // Out-of-range amounts are a caller bug: silently wrapping
            // them would encode a different program than the one requested.
            debug_assert!(sh < 64, "shift amount {sh} out of range in `{instr}`");
            r3(opc, rd, rt, z) | imm(sh as i32, ImmField::SHAMT)? << 6
        }
        Op::AluImm { op, rt, rs, imm: v } => r3(opc, rt, rs, z) | imm(v, op.field())?,
        Op::Lui { rt, imm: v } => r3(opc, rt, z, z) | imm(v, ImmField::L18)?,
        Op::Load { rt: a, base: b, off, .. }
        | Op::Store { rt: a, base: b, off, .. }
        | Op::Branch { rs: a, rt: b, off, .. } => r3(opc, a, b, z) | imm(off, ImmField::I12)?,
        Op::BranchZ { rs, off, .. } => r3(opc, rs, z, z) | imm(off, ImmField::I12)?,
        Op::Jump { target, .. } => {
            if !ImmField::J24.fits_words(target as i64) {
                return Err(EncodeError::BadTarget { target });
            }
            ((opc as u32) << 24) | (target / 4)
        }
        Op::Jr { rs } => r3(opc, z, rs, z),
        Op::Jalr { rd: a, rs: b }
        | Op::FpNeg { fd: a, fs: b, .. }
        | Op::FpAbs { fd: a, fs: b, .. }
        | Op::FpMov { fd: a, fs: b }
        | Op::CvtDW { fd: a, rs: b }
        | Op::CvtWD { rd: a, fs: b }
        | Op::Dmtc1 { fs: a, rt: b }
        | Op::Dmfc1 { rt: a, fs: b } => r3(opc, a, b, z),
        Op::Release { regs } => {
            let mut fields = [z; 3];
            if regs.is_empty() {
                return Err(EncodeError::BadRelease { instr: instr.to_string() });
            }
            for (i, r) in regs.iter().enumerate() {
                debug_assert!(r.index() != 0, "release of $0 in `{instr}`");
                if r.index() == 0 {
                    // A zero field is an empty slot: the entry would be
                    // silently dropped on decode.
                    return Err(EncodeError::BadRelease { instr: instr.to_string() });
                }
                fields[i] = r;
            }
            r3(opc, fields[0], fields[1], fields[2])
        }
        Op::Halt | Op::Nop => r3(opc, z, z, z),
    };
    let tag = encode_tags(instr.tags);
    Ok((word, tag))
}

fn encode_tags(t: TagBits) -> u8 {
    let stop = match t.stop {
        StopCond::None => 0,
        StopCond::Always => 1,
        StopCond::IfTaken => 2,
        StopCond::IfNotTaken => 3,
    };
    ((t.forward as u8) << 2) | stop
}

fn decode_tags(tag: u8) -> Result<TagBits, DecodeError> {
    if tag > 0b111 {
        return Err(DecodeError::BadTags(tag));
    }
    let stop = match tag & 0b11 {
        0 => StopCond::None,
        1 => StopCond::Always,
        2 => StopCond::IfTaken,
        _ => StopCond::IfNotTaken,
    };
    Ok(TagBits { forward: tag & 0b100 != 0, stop })
}

fn reg_field(word: u32, shift: u32) -> Result<Reg, DecodeError> {
    let v = ((word >> shift) & 0x3f) as u8;
    Reg::from_index(v as usize).ok_or(DecodeError::BadReg(v))
}

/// Decodes `(word, tag_bits)` back into an [`Instr`].
///
/// # Errors
/// Returns [`DecodeError`] on an unknown opcode, invalid register field,
/// or invalid tag bits.
pub fn decode(word: u32, tag: u8) -> Result<Instr, DecodeError> {
    let opb = (word >> 24) as u8;
    let a = || reg_field(word, 18);
    let b = || reg_field(word, 12);
    let c = || reg_field(word, 6);
    let off = ImmField::I12.read(word);
    let op = match Op::from_opcode(opb).ok_or(DecodeError::BadOpcode(opb))? {
        Op::Alu { op, .. } => Op::Alu { op, rd: a()?, rs: b()?, rt: c()? },
        Op::ShiftV { op, .. } => Op::ShiftV { op, rd: a()?, rt: b()?, rs: c()? },
        Op::Shift { op, .. } => {
            Op::Shift { op, rd: a()?, rt: b()?, sh: ImmField::SHAMT.read(word >> 6) as u8 }
        }
        Op::AluImm { op, .. } => Op::AluImm { op, rt: a()?, rs: b()?, imm: op.field().read(word) },
        Op::Lui { .. } => Op::Lui { rt: a()?, imm: ImmField::L18.read(word) },
        Op::Load { width, signed, .. } => Op::Load { width, signed, rt: a()?, base: b()?, off },
        Op::Store { width, .. } => Op::Store { width, rt: a()?, base: b()?, off },
        Op::Branch { cond, .. } => Op::Branch { cond, rs: a()?, rt: b()?, off },
        Op::BranchZ { cond, .. } => Op::BranchZ { cond, rs: a()?, off },
        Op::Jump { link, .. } => Op::Jump { link, target: ImmField::J24.read(word) as u32 * 4 },
        Op::Jr { .. } => Op::Jr { rs: b()? },
        Op::Jalr { .. } => Op::Jalr { rd: a()?, rs: b()? },
        Op::FpArith { kind, prec, .. } => Op::FpArith { kind, prec, fd: a()?, fs: b()?, ft: c()? },
        Op::FpCmp { cond, prec, .. } => Op::FpCmp { cond, prec, rd: a()?, fs: b()?, ft: c()? },
        Op::FpNeg { prec, .. } => Op::FpNeg { prec, fd: a()?, fs: b()? },
        Op::FpAbs { prec, .. } => Op::FpAbs { prec, fd: a()?, fs: b()? },
        Op::FpMov { .. } => Op::FpMov { fd: a()?, fs: b()? },
        Op::CvtDW { .. } => Op::CvtDW { fd: a()?, rs: b()? },
        Op::CvtWD { .. } => Op::CvtWD { rd: a()?, fs: b()? },
        Op::Dmtc1 { .. } => Op::Dmtc1 { fs: a()?, rt: b()? },
        Op::Dmfc1 { .. } => Op::Dmfc1 { rt: a()?, fs: b()? },
        Op::Release { .. } => {
            let mut regs = RegList::EMPTY;
            for r in [a()?, b()?, c()?] {
                if r != Reg::ZERO {
                    regs.push(r);
                }
            }
            if regs.is_empty() {
                // All-zero fields: `encode` never produces this (it rejects
                // empty releases), so the word is corrupt.
                return Err(DecodeError::BadReg(0));
            }
            Op::Release { regs }
        }
        nullary @ (Op::Halt | Op::Nop) => nullary,
    };
    Ok(Instr { op, tags: decode_tags(tag)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluImmOp, AluOp, BranchCond, FpArithKind, FpCmpCond, MemWidth, Prec, ShiftOp};

    fn roundtrip(i: Instr) {
        let (w, t) = encode(&i).expect("encode");
        let back = decode(w, t).expect("decode");
        assert_eq!(back, i, "word={w:#010x} tag={t:#x}");
    }

    #[test]
    fn representative_roundtrips() {
        let r4 = Reg::int(4);
        let r8 = Reg::int(8);
        let f2 = Reg::fp(2);
        let f3 = Reg::fp(3);
        let cases = vec![
            Instr::new(Op::Nop),
            Instr::new(Op::Halt),
            Instr::new(Op::Alu { op: AluOp::Addu, rd: r4, rs: r8, rt: Reg::int(9) }),
            Instr::new(Op::AluImm { op: AluImmOp::Addiu, rt: r4, rs: r8, imm: -2048 }),
            Instr::new(Op::AluImm { op: AluImmOp::Ori, rt: r4, rs: r8, imm: 4095 }),
            Instr::new(Op::Shift { op: ShiftOp::Sll, rd: r4, rt: r8, sh: 63 }),
            Instr::new(Op::Lui { rt: r4, imm: -131072 }),
            Instr::new(Op::Load { width: MemWidth::H, signed: false, rt: r4, base: r8, off: 2047 }),
            Instr::new(Op::Store { width: MemWidth::D, rt: r4, base: r8, off: -2048 }),
            Instr::new(Op::Branch { cond: BranchCond::Eq, rs: r4, rt: r8, off: -1 })
                .with_stop(StopCond::IfTaken),
            Instr::new(Op::Jump { link: false, target: 0x3ff_fffc }),
            Instr::new(Op::Jump { link: true, target: 0x1000 }),
            Instr::new(Op::Jr { rs: Reg::RA }).with_stop(StopCond::Always),
            Instr::new(Op::FpArith {
                kind: FpArithKind::Mul,
                prec: Prec::D,
                fd: f2,
                fs: f3,
                ft: Reg::fp(31),
            })
            .with_forward(),
            Instr::new(Op::FpCmp { cond: FpCmpCond::Le, prec: Prec::S, rd: r4, fs: f2, ft: f3 }),
            Instr::new(Op::CvtDW { fd: f2, rs: r4 }),
            Instr::new(Op::Dmfc1 { rt: r4, fs: f2 }),
            Instr::new(Op::Release { regs: RegList::from_slice(&[r8, Reg::int(17)]) }),
        ];
        for c in cases {
            roundtrip(c);
        }
    }

    #[test]
    fn out_of_range_immediates_fail() {
        let i = Instr::new(Op::AluImm {
            op: AluImmOp::Addiu,
            rt: Reg::int(1),
            rs: Reg::int(2),
            imm: 2048,
        });
        assert!(matches!(encode(&i), Err(EncodeError::ImmOutOfRange { .. })));
        let j = Instr::new(Op::Jump { link: false, target: 3 });
        assert!(matches!(encode(&j), Err(EncodeError::BadTarget { .. })));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shift amount")]
    fn out_of_range_shift_panics_in_debug() {
        // Shift amounts must never be silently masked: a wrapped amount
        // encodes a different program than the one requested.
        let sll = Op::Shift { op: ShiftOp::Sll, rd: Reg::int(2), rt: Reg::int(3), sh: 64 };
        let _ = encode(&Instr::new(sll));
    }

    #[test]
    fn empty_release_is_not_encodable() {
        let e = encode(&Instr::new(Op::Release { regs: RegList::EMPTY })).unwrap_err();
        assert!(matches!(e, EncodeError::BadRelease { .. }), "{e}");
        // And the all-zero-fields release word does not decode.
        let release = Op::Release { regs: RegList::EMPTY }.opcode();
        assert!(decode((release as u32) << 24, 0).is_err());
    }

    #[test]
    fn unknown_opcode_fails() {
        assert!(matches!(decode(0xff << 24, 0), Err(DecodeError::BadOpcode(0xff))));
    }

    #[test]
    fn tags_roundtrip_all_combinations() {
        for fwd in [false, true] {
            for stop in [StopCond::None, StopCond::Always, StopCond::IfTaken, StopCond::IfNotTaken]
            {
                let t = TagBits { forward: fwd, stop };
                assert_eq!(decode_tags(encode_tags(t)).unwrap(), t);
            }
        }
        assert!(decode_tags(0b1000).is_err());
    }
}
