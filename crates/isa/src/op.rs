//! The operation set: a delay-slot-free MIPS-like RISC core.
//!
//! The paper's simulator "accepts annotated big endian MIPS instruction set
//! binaries (without architected delay slots of any kind)"; this module
//! defines the equivalent core. Branch offsets are in instructions,
//! relative to the *following* instruction; jump targets are absolute byte
//! addresses.
//!
//! [`Op`] has one variant per instruction format. A format with several
//! opcodes names them with a small enum ([`AluOp`], [`ShiftOp`],
//! [`AluImmOp`], [`BranchCond`], [`BranchZCond`], [`MemWidth`],
//! [`FpArithKind`], [`FpCmpCond`]) whose table row is the one place an
//! opcode's mnemonic and opcode byte are written, with its execution class
//! or immediate field where those vary within the format; the integer
//! formats' enums also carry their opcodes' semantics. Every query on
//! [`Op`] therefore has one arm per format, and the assembler and the
//! decoder find operations through the same rows ([`Op::from_mnemonic`],
//! `Op::from_opcode`).

use crate::reg::Reg;
use crate::tags::RegMask;
use std::fmt;
use std::sync::OnceLock;

/// An immediate field of the binary encoding: its width in bits and
/// whether the instruction sign-extends it. The encoder rejects, and the
/// assembler refuses, any value the field cannot hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ImmField {
    /// Width in bits.
    pub bits: u32,
    /// Sign-extended (otherwise zero-extended).
    pub signed: bool,
}

impl ImmField {
    /// Signed 12 bits: memory and branch offsets and most ALU immediates.
    pub const I12: ImmField = ImmField { bits: 12, signed: true };
    /// Zero-extended 12 bits: the logical immediates.
    pub const U12: ImmField = ImmField { bits: 12, signed: false };
    /// Signed 18 bits: the `lui` immediate.
    pub const L18: ImmField = ImmField { bits: 18, signed: true };
    /// A shift amount.
    pub const SHAMT: ImmField = ImmField { bits: 6, signed: false };
    /// A jump target's word index (the byte target over 4).
    pub const J24: ImmField = ImmField { bits: 24, signed: false };

    /// Whether the field holds `v`.
    pub const fn fits(self, v: i64) -> bool {
        if self.signed {
            -(1 << (self.bits - 1)) <= v && v < 1 << (self.bits - 1)
        } else {
            0 <= v && v < 1 << self.bits
        }
    }

    /// Whether `bytes` is a whole number of instruction words whose count
    /// the field holds (a branch's reach, a jump target).
    pub const fn fits_words(self, bytes: i64) -> bool {
        bytes % 4 == 0 && self.fits(bytes / 4)
    }

    /// The field's value in the low bits of `word`, extended.
    pub(crate) const fn read(self, word: u32) -> i32 {
        let shift = 32 - self.bits;
        if self.signed {
            ((word << shift) as i32) >> shift
        } else {
            ((word << shift) >> shift) as i32
        }
    }
}

/// The three-register integer operations: `rd = rs op rt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is named after its mnemonic
pub enum AluOp {
    Addu,
    Subu,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    Mul,
    Div,
    Rem,
}

impl AluOp {
    /// Every operation of the format.
    const ALL: [AluOp; 11] = {
        use AluOp::*;
        [Addu, Subu, And, Or, Xor, Nor, Slt, Sltu, Mul, Div, Rem]
    };

    /// Mnemonic, opcode byte and execution class.
    const fn row(self) -> (&'static str, u8, ExecClass) {
        use ExecClass::{IntAlu, IntDiv, IntMul};
        match self {
            AluOp::Addu => ("addu", 1, IntAlu),
            AluOp::Subu => ("subu", 2, IntAlu),
            AluOp::And => ("and", 3, IntAlu),
            AluOp::Or => ("or", 4, IntAlu),
            AluOp::Xor => ("xor", 5, IntAlu),
            AluOp::Nor => ("nor", 6, IntAlu),
            AluOp::Slt => ("slt", 10, IntAlu),
            AluOp::Sltu => ("sltu", 11, IntAlu),
            AluOp::Mul => ("mul", 12, IntMul),
            AluOp::Div => ("div", 13, IntDiv),
            AluOp::Rem => ("rem", 14, IntDiv),
        }
    }

    /// `a op b`. Integer division by zero yields zero (the simulator
    /// defines this rather than trapping).
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        let (sa, sb) = (a as i64, b as i64);
        match self {
            AluOp::Addu => a.wrapping_add(b),
            AluOp::Subu => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Nor => !(a | b),
            AluOp::Slt => (sa < sb) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div if b == 0 => 0,
            AluOp::Div => sa.wrapping_div(sb) as u64,
            AluOp::Rem if b == 0 => 0,
            AluOp::Rem => sa.wrapping_rem(sb) as u64,
        }
    }
}

/// The shifts, shared by the variable form (`sllv rd, rt, rs`: the amount
/// in a register) and the immediate form (`sll rd, rt, sh`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is named after its immediate form's mnemonic
pub enum ShiftOp {
    Sll,
    Srl,
    Sra,
}

impl ShiftOp {
    /// Every operation of the format.
    const ALL: [ShiftOp; 3] = [ShiftOp::Sll, ShiftOp::Srl, ShiftOp::Sra];

    /// Mnemonics and opcode bytes: `[variable, immediate]`.
    const fn rows(self) -> [(&'static str, u8); 2] {
        match self {
            ShiftOp::Sll => [("sllv", 7), ("sll", 21)],
            ShiftOp::Srl => [("srlv", 8), ("srl", 22)],
            ShiftOp::Sra => [("srav", 9), ("sra", 23)],
        }
    }

    /// `v` shifted by the low six bits of `amount`.
    #[inline]
    pub fn eval(self, v: u64, amount: u64) -> u64 {
        let sh = amount & 63;
        match self {
            ShiftOp::Sll => v << sh,
            ShiftOp::Srl => v >> sh,
            ShiftOp::Sra => ((v as i64) >> sh) as u64,
        }
    }
}

/// The register-immediate integer operations: `rt = rs op imm`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is named after its mnemonic
pub enum AluImmOp {
    Addiu,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
}

impl AluImmOp {
    /// Every operation of the format.
    const ALL: [AluImmOp; 6] = {
        use AluImmOp::*;
        [Addiu, Andi, Ori, Xori, Slti, Sltiu]
    };

    /// Mnemonic, opcode byte and immediate field.
    const fn row(self) -> (&'static str, u8, ImmField) {
        use ImmField as F;
        match self {
            AluImmOp::Addiu => ("addiu", 15, F::I12),
            AluImmOp::Andi => ("andi", 16, F::U12),
            AluImmOp::Ori => ("ori", 17, F::U12),
            AluImmOp::Xori => ("xori", 18, F::U12),
            AluImmOp::Slti => ("slti", 19, F::I12),
            AluImmOp::Sltiu => ("sltiu", 20, F::I12),
        }
    }

    /// The immediate's field: the logical operations zero-extend it.
    pub const fn field(self) -> ImmField {
        self.row().2
    }

    /// `a op imm`, with `imm` extended as its field says.
    #[inline]
    pub fn eval(self, a: u64, imm: i32) -> u64 {
        let b = if self.field().signed { imm as i64 as u64 } else { imm as u32 as u64 };
        match self {
            AluImmOp::Addiu => a.wrapping_add(b),
            AluImmOp::Andi => a & b,
            AluImmOp::Ori => a | b,
            AluImmOp::Xori => a ^ b,
            AluImmOp::Slti => ((a as i64) < (b as i64)) as u64,
            AluImmOp::Sltiu => (a < b) as u64,
        }
    }
}

/// The two-register branch conditions: taken if `rs cond rt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq`: equal.
    Eq,
    /// `bne`: not equal.
    Ne,
}

impl BranchCond {
    /// Every condition of the format.
    const ALL: [BranchCond; 2] = [BranchCond::Eq, BranchCond::Ne];

    /// Mnemonic and opcode byte.
    const fn row(self) -> (&'static str, u8) {
        match self {
            BranchCond::Eq => ("beq", 36),
            BranchCond::Ne => ("bne", 37),
        }
    }

    /// Whether the branch is taken on register values `a` and `b`.
    #[inline]
    pub fn taken(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
        }
    }
}

/// The compare-with-zero branch conditions: taken if `rs cond 0`, signed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchZCond {
    /// `blez`: less than or equal to zero.
    Lez,
    /// `bgtz`: greater than zero.
    Gtz,
    /// `bltz`: less than zero.
    Ltz,
    /// `bgez`: greater than or equal to zero.
    Gez,
}

impl BranchZCond {
    /// Every condition of the format.
    const ALL: [BranchZCond; 4] =
        [BranchZCond::Lez, BranchZCond::Gtz, BranchZCond::Ltz, BranchZCond::Gez];

    /// Mnemonic and opcode byte.
    const fn row(self) -> (&'static str, u8) {
        match self {
            BranchZCond::Lez => ("blez", 38),
            BranchZCond::Gtz => ("bgtz", 39),
            BranchZCond::Ltz => ("bltz", 40),
            BranchZCond::Gez => ("bgez", 41),
        }
    }

    /// Whether the branch is taken on register value `a`.
    #[inline]
    pub fn taken(self, a: u64) -> bool {
        let a = a as i64;
        match self {
            BranchZCond::Lez => a <= 0,
            BranchZCond::Gtz => a > 0,
            BranchZCond::Ltz => a < 0,
            BranchZCond::Gez => a >= 0,
        }
    }
}

/// Memory access width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes (halfword).
    H,
    /// 4 bytes (word).
    W,
    /// 8 bytes (doubleword).
    D,
}

impl MemWidth {
    /// Every width.
    const ALL: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];

    /// Access size in bytes.
    pub const fn bytes(self) -> u32 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    /// Mnemonic and opcode byte of the load. A doubleword fills the
    /// register, so `ld` has no zero-extending form.
    const fn load(self, signed: bool) -> (&'static str, u8) {
        match (self, signed) {
            (MemWidth::B, true) => ("lb", 25),
            (MemWidth::B, false) => ("lbu", 26),
            (MemWidth::H, true) => ("lh", 27),
            (MemWidth::H, false) => ("lhu", 28),
            (MemWidth::W, true) => ("lw", 29),
            (MemWidth::W, false) => ("lwu", 30),
            (MemWidth::D, _) => ("ld", 31),
        }
    }

    /// Mnemonic and opcode byte of the store.
    const fn store(self) -> (&'static str, u8) {
        match self {
            MemWidth::B => ("sb", 32),
            MemWidth::H => ("sh", 33),
            MemWidth::W => ("sw", 34),
            MemWidth::D => ("sd", 35),
        }
    }
}

/// Floating-point precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Prec {
    /// Single precision (operates on the low 32 bits as an `f32`).
    S,
    /// Double precision (`f64`).
    D,
}

impl Prec {
    /// Both precisions.
    const ALL: [Prec; 2] = [Prec::S, Prec::D];

    /// `s` at single precision, `d` at double.
    const fn pick<T: Copy>(self, s: T, d: T) -> T {
        match self {
            Prec::S => s,
            Prec::D => d,
        }
    }
}

/// Floating-point arithmetic operation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpArithKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl FpArithKind {
    /// Every kind.
    const ALL: [FpArithKind; 4] =
        [FpArithKind::Add, FpArithKind::Sub, FpArithKind::Mul, FpArithKind::Div];

    /// Mnemonic, opcode byte and execution class at precision `prec`.
    const fn row(self, prec: Prec) -> (&'static str, u8, ExecClass) {
        use ExecClass::*;
        use FpArithKind::*;
        match (self, prec) {
            (Add, Prec::S) => ("add.s", 46, FpAddS),
            (Sub, Prec::S) => ("sub.s", 47, FpAddS),
            (Mul, Prec::S) => ("mul.s", 48, FpMulS),
            (Div, Prec::S) => ("div.s", 49, FpDivS),
            (Add, Prec::D) => ("add.d", 50, FpAddD),
            (Sub, Prec::D) => ("sub.d", 51, FpAddD),
            (Mul, Prec::D) => ("mul.d", 52, FpMulD),
            (Div, Prec::D) => ("div.d", 53, FpDivD),
        }
    }
}

/// Floating-point comparison condition (result written to an integer
/// register as 0/1, in place of MIPS condition flags).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpCmpCond {
    /// Equal.
    Eq,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
}

impl FpCmpCond {
    /// Every condition.
    const ALL: [FpCmpCond; 3] = [FpCmpCond::Eq, FpCmpCond::Lt, FpCmpCond::Le];

    /// Mnemonic and opcode byte at precision `prec`.
    const fn row(self, prec: Prec) -> (&'static str, u8) {
        match (self, prec) {
            (FpCmpCond::Eq, Prec::S) => ("c.eq.s", 54),
            (FpCmpCond::Lt, Prec::S) => ("c.lt.s", 55),
            (FpCmpCond::Le, Prec::S) => ("c.le.s", 56),
            (FpCmpCond::Eq, Prec::D) => ("c.eq.d", 57),
            (FpCmpCond::Lt, Prec::D) => ("c.lt.d", 58),
            (FpCmpCond::Le, Prec::D) => ("c.le.d", 59),
        }
    }
}

/// A short inline list of registers (at most three), used for instruction
/// source lists and `release` operands.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegList {
    regs: [Option<Reg>; 3],
    len: u8,
}

impl RegList {
    /// The empty list.
    pub const EMPTY: RegList = RegList { regs: [None; 3], len: 0 };

    /// Maximum capacity of the list.
    pub const CAPACITY: usize = 3;

    /// Builds a list from a slice.
    ///
    /// # Panics
    /// Panics if `regs.len() > 3`.
    pub fn from_slice(regs: &[Reg]) -> RegList {
        assert!(regs.len() <= Self::CAPACITY, "RegList overflow");
        let mut l = RegList::EMPTY;
        for &r in regs {
            l.push(r);
        }
        l
    }

    /// Appends a register.
    ///
    /// # Panics
    /// Panics if the list is full.
    pub fn push(&mut self, r: Reg) {
        assert!((self.len as usize) < Self::CAPACITY, "RegList overflow");
        self.regs[self.len as usize] = Some(r);
        self.len += 1;
    }

    /// Number of registers in the list.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the registers.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs.iter().take(self.len as usize).map(|r| r.unwrap())
    }

    /// The registers as a [`RegMask`].
    pub fn to_mask(&self) -> RegMask {
        self.iter().collect()
    }
}

impl fmt::Debug for RegList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Reg> for RegList {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> Self {
        let mut l = RegList::EMPTY;
        for r in iter {
            l.push(r);
        }
        l
    }
}

/// An operation with its operands, one variant per instruction format.
///
/// Field conventions follow MIPS: `rd` destination, `rs`/`rt` sources for
/// R-type; `rt` destination, `rs` source for I-type; `base`+`off` for
/// memory operands. Branch offsets (`off`) count instructions relative to
/// the instruction after the branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand fields follow the MIPS naming convention described above
pub enum Op {
    // ---- integer ----
    /// `rd = rs op rt`.
    Alu {
        op: AluOp,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// `rd = rt` shifted by the amount in `rs`.
    ShiftV {
        op: ShiftOp,
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    /// `rd = rt` shifted by `sh`.
    Shift {
        op: ShiftOp,
        rd: Reg,
        rt: Reg,
        sh: u8,
    },
    /// `rt = rs op imm`.
    AluImm {
        op: AluImmOp,
        rt: Reg,
        rs: Reg,
        imm: i32,
    },
    /// `rt = sign_extend(imm18) << 12`
    Lui {
        rt: Reg,
        imm: i32,
    },

    // ---- memory ----
    Load {
        width: MemWidth,
        signed: bool,
        rt: Reg,
        base: Reg,
        off: i32,
    },
    Store {
        width: MemWidth,
        rt: Reg,
        base: Reg,
        off: i32,
    },

    // ---- control ----
    /// Branch by `off` if `rs cond rt`.
    Branch {
        cond: BranchCond,
        rs: Reg,
        rt: Reg,
        off: i32,
    },
    /// Branch by `off` if `rs cond 0`.
    BranchZ {
        cond: BranchZCond,
        rs: Reg,
        off: i32,
    },
    /// `j target`; with `link`, the call `jal target`, which writes the
    /// return address to `$31`.
    Jump {
        link: bool,
        target: u32,
    },
    Jr {
        rs: Reg,
    },
    Jalr {
        rd: Reg,
        rs: Reg,
    },

    // ---- floating point ----
    FpArith {
        kind: FpArithKind,
        prec: Prec,
        fd: Reg,
        fs: Reg,
        ft: Reg,
    },
    FpCmp {
        cond: FpCmpCond,
        prec: Prec,
        rd: Reg,
        fs: Reg,
        ft: Reg,
    },
    FpNeg {
        prec: Prec,
        fd: Reg,
        fs: Reg,
    },
    FpAbs {
        prec: Prec,
        fd: Reg,
        fs: Reg,
    },
    FpMov {
        fd: Reg,
        fs: Reg,
    },
    /// Convert word (integer register) to double (fp register).
    CvtDW {
        fd: Reg,
        rs: Reg,
    },
    /// Convert double (fp register) to word (integer register), truncating.
    CvtWD {
        rd: Reg,
        fs: Reg,
    },
    /// Move raw 64 bits from integer register `rt` to fp register `fs`.
    Dmtc1 {
        fs: Reg,
        rt: Reg,
    },
    /// Move raw 64 bits from fp register `fs` to integer register `rt`.
    Dmfc1 {
        rt: Reg,
        fs: Reg,
    },

    // ---- multiscalar / simulator control ----
    /// Forward the current values of up to three registers to successor
    /// tasks (paper Section 2.2: values a task "indicated it might produce"
    /// but did not).
    Release {
        regs: RegList,
    },
    /// Terminate the program.
    Halt,
    /// No operation.
    Nop,
}

/// Coarse functional-unit class; determines which unit executes the
/// instruction (paper Section 5.1: simple integer, complex integer, FP,
/// branch, memory units).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Simple integer ALU (1 or 2 per unit).
    SimpleInt,
    /// Complex integer (multiply/divide).
    ComplexInt,
    /// Floating point.
    Fp,
    /// Branch unit.
    Branch,
    /// Memory (address generation + cache port).
    Mem,
}

/// Fine execution class; determines operation latency (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// Integer add/sub/compare/move (1 cycle).
    IntAlu,
    /// Integer multiply (4 cycles).
    IntMul,
    /// Integer divide/remainder (12 cycles).
    IntDiv,
    /// Memory load (2 cycles address+issue, plus cache time).
    Load,
    /// Memory store (1 cycle, plus cache time).
    Store,
    /// Branch or jump (1 cycle).
    Branch,
    /// FP single add/sub (2 cycles).
    FpAddS,
    /// FP single multiply (4 cycles).
    FpMulS,
    /// FP single divide (12 cycles).
    FpDivS,
    /// FP double add/sub (2 cycles).
    FpAddD,
    /// FP double multiply (5 cycles).
    FpMulD,
    /// FP double divide (18 cycles).
    FpDivD,
}

impl ExecClass {
    /// The functional-unit class that executes this class.
    const fn fu_class(self) -> FuClass {
        match self {
            ExecClass::IntAlu => FuClass::SimpleInt,
            ExecClass::IntMul | ExecClass::IntDiv => FuClass::ComplexInt,
            ExecClass::Load | ExecClass::Store => FuClass::Mem,
            ExecClass::Branch => FuClass::Branch,
            _ => FuClass::Fp,
        }
    }
}

impl Op {
    /// Mnemonic and opcode byte, from the format's table.
    const fn name(&self) -> (&'static str, u8) {
        match *self {
            Op::Alu { op, .. } => (op.row().0, op.row().1),
            Op::ShiftV { op, .. } => op.rows()[0],
            Op::Shift { op, .. } => op.rows()[1],
            Op::AluImm { op, .. } => (op.row().0, op.row().1),
            Op::Lui { .. } => ("lui", 24),
            Op::Load { width, signed, .. } => width.load(signed),
            Op::Store { width, .. } => width.store(),
            Op::Branch { cond, .. } => cond.row(),
            Op::BranchZ { cond, .. } => cond.row(),
            Op::Jump { link, .. } => [("j", 42), ("jal", 43)][link as usize],
            Op::Jr { .. } => ("jr", 44),
            Op::Jalr { .. } => ("jalr", 45),
            Op::FpArith { kind, prec, .. } => (kind.row(prec).0, kind.row(prec).1),
            Op::FpCmp { cond, prec, .. } => cond.row(prec),
            Op::FpNeg { prec, .. } => prec.pick(("neg.s", 60), ("neg.d", 61)),
            Op::FpAbs { prec, .. } => prec.pick(("abs.s", 62), ("abs.d", 63)),
            Op::FpMov { .. } => ("mov.d", 64),
            Op::CvtDW { .. } => ("cvt.d.w", 65),
            Op::CvtWD { .. } => ("cvt.w.d", 66),
            Op::Dmtc1 { .. } => ("dmtc1", 67),
            Op::Dmfc1 { .. } => ("dmfc1", 68),
            Op::Release { .. } => ("release", 69),
            Op::Halt => ("halt", 70),
            Op::Nop => ("nop", 0),
        }
    }

    /// Mnemonic without tag suffixes.
    pub const fn mnemonic(&self) -> &'static str {
        self.name().0
    }

    /// The opcode byte (bits 31..24 of the encoded word).
    pub(crate) const fn opcode(&self) -> u8 {
        self.name().1
    }

    /// One operation per opcode, every operand `$0` or zero, in opcode
    /// order: the shapes [`Op::from_mnemonic`] and `decode` fill in.
    fn templates() -> &'static [Op] {
        static TEMPLATES: OnceLock<Vec<Op>> = OnceLock::new();
        TEMPLATES.get_or_init(|| {
            let z = Reg::ZERO;
            let mut t = vec![
                Op::Lui { rt: z, imm: 0 },
                Op::Jr { rs: z },
                Op::Jalr { rd: z, rs: z },
                Op::FpMov { fd: z, fs: z },
                Op::CvtDW { fd: z, rs: z },
                Op::CvtWD { rd: z, fs: z },
                Op::Dmtc1 { fs: z, rt: z },
                Op::Dmfc1 { rt: z, fs: z },
                Op::Release { regs: RegList::EMPTY },
                Op::Halt,
                Op::Nop,
            ];
            t.extend(AluOp::ALL.map(|op| Op::Alu { op, rd: z, rs: z, rt: z }));
            for op in ShiftOp::ALL {
                t.push(Op::ShiftV { op, rd: z, rt: z, rs: z });
                t.push(Op::Shift { op, rd: z, rt: z, sh: 0 });
            }
            t.extend(AluImmOp::ALL.map(|op| Op::AluImm { op, rt: z, rs: z, imm: 0 }));
            for width in MemWidth::ALL {
                for signed in [true, false] {
                    t.push(Op::Load { width, signed, rt: z, base: z, off: 0 });
                }
                t.push(Op::Store { width, rt: z, base: z, off: 0 });
            }
            t.extend(BranchCond::ALL.map(|cond| Op::Branch { cond, rs: z, rt: z, off: 0 }));
            t.extend(BranchZCond::ALL.map(|cond| Op::BranchZ { cond, rs: z, off: 0 }));
            t.extend([false, true].map(|link| Op::Jump { link, target: 0 }));
            for prec in Prec::ALL {
                t.extend(FpArithKind::ALL.map(|kind| Op::FpArith {
                    kind,
                    prec,
                    fd: z,
                    fs: z,
                    ft: z,
                }));
                t.extend(FpCmpCond::ALL.map(|cond| Op::FpCmp { cond, prec, rd: z, fs: z, ft: z }));
                t.push(Op::FpNeg { prec, fd: z, fs: z });
                t.push(Op::FpAbs { prec, fd: z, fs: z });
            }
            // Stable, so the signed `ld` survives as the canonical form
            // of the one doubleword load.
            t.sort_by_key(Op::opcode);
            t.dedup_by_key(|op| op.opcode());
            t
        })
    }

    /// The operation named by the machine mnemonic `m`, every operand
    /// `$0` or zero; `None` if no opcode has that mnemonic.
    pub fn from_mnemonic(m: &str) -> Option<Op> {
        Op::templates().iter().find(|t| t.mnemonic() == m).copied()
    }

    /// The operation with opcode byte `b`, every operand `$0` or zero.
    pub(crate) fn from_opcode(b: u8) -> Option<Op> {
        Op::templates().get(b as usize).filter(|t| t.opcode() == b).copied()
    }

    /// The fine execution class (latency selector).
    pub fn exec_class(&self) -> ExecClass {
        match *self {
            Op::Alu { op, .. } => op.row().2,
            Op::Load { .. } => ExecClass::Load,
            Op::Store { .. } => ExecClass::Store,
            Op::Branch { .. }
            | Op::BranchZ { .. }
            | Op::Jump { .. }
            | Op::Jr { .. }
            | Op::Jalr { .. } => ExecClass::Branch,
            Op::FpArith { kind, prec, .. } => kind.row(prec).2,
            Op::FpCmp { prec, .. } | Op::FpNeg { prec, .. } | Op::FpAbs { prec, .. } => {
                prec.pick(ExecClass::FpAddS, ExecClass::FpAddD)
            }
            Op::FpMov { .. } | Op::CvtDW { .. } | Op::CvtWD { .. } => ExecClass::FpAddD,
            Op::ShiftV { .. }
            | Op::Shift { .. }
            | Op::AluImm { .. }
            | Op::Lui { .. }
            | Op::Dmtc1 { .. }
            | Op::Dmfc1 { .. }
            | Op::Release { .. }
            | Op::Halt
            | Op::Nop => ExecClass::IntAlu,
        }
    }

    /// The coarse functional-unit class.
    pub fn fu_class(&self) -> FuClass {
        self.exec_class().fu_class()
    }

    /// The destination register, if any. Writes to `$0` are reported here
    /// but have no architectural effect.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Op::Alu { rd, .. }
            | Op::ShiftV { rd, .. }
            | Op::Shift { rd, .. }
            | Op::Jalr { rd, .. }
            | Op::FpCmp { rd, .. }
            | Op::CvtWD { rd, .. } => Some(rd),
            Op::AluImm { rt, .. }
            | Op::Lui { rt, .. }
            | Op::Load { rt, .. }
            | Op::Dmfc1 { rt, .. } => Some(rt),
            Op::FpArith { fd, .. }
            | Op::FpNeg { fd, .. }
            | Op::FpAbs { fd, .. }
            | Op::FpMov { fd, .. }
            | Op::CvtDW { fd, .. } => Some(fd),
            Op::Dmtc1 { fs, .. } => Some(fs),
            Op::Jump { link, .. } => link.then_some(Reg::RA),
            Op::Store { .. }
            | Op::Branch { .. }
            | Op::BranchZ { .. }
            | Op::Jr { .. }
            | Op::Release { .. }
            | Op::Halt
            | Op::Nop => None,
        }
    }

    /// The source registers. A compare-with-zero branch encodes `$0` as
    /// its second register field but does not read it.
    pub fn uses(&self) -> RegList {
        let l = RegList::from_slice;
        match *self {
            Op::Alu { rs, rt, .. } | Op::ShiftV { rs, rt, .. } | Op::Branch { rs, rt, .. } => {
                l(&[rs, rt])
            }
            Op::FpArith { fs, ft, .. } | Op::FpCmp { fs, ft, .. } => l(&[fs, ft]),
            Op::Store { rt, base, .. } => l(&[rt, base]),
            Op::AluImm { rs, .. }
            | Op::BranchZ { rs, .. }
            | Op::Jr { rs }
            | Op::Jalr { rs, .. }
            | Op::CvtDW { rs, .. } => l(&[rs]),
            Op::Shift { rt, .. } | Op::Dmtc1 { rt, .. } => l(&[rt]),
            Op::Load { base, .. } => l(&[base]),
            Op::FpNeg { fs, .. }
            | Op::FpAbs { fs, .. }
            | Op::FpMov { fs, .. }
            | Op::CvtWD { fs, .. }
            | Op::Dmfc1 { fs, .. } => l(&[fs]),
            // A release reads every register it broadcasts: without
            // these sources the out-of-order hazard check would let it
            // issue past an older in-flight write and send a stale
            // value to every successor task.
            Op::Release { regs } => regs,
            Op::Lui { .. } | Op::Jump { .. } | Op::Halt | Op::Nop => RegList::EMPTY,
        }
    }

    /// Whether this is a conditional branch.
    pub fn is_branch(&self) -> bool {
        matches!(self, Op::Branch { .. } | Op::BranchZ { .. })
    }

    /// Whether this is an unconditional jump (including calls and returns).
    pub fn is_jump(&self) -> bool {
        matches!(self, Op::Jump { .. } | Op::Jr { .. } | Op::Jalr { .. })
    }

    /// Whether this instruction can redirect control flow.
    pub fn is_control(&self) -> bool {
        self.is_branch() || self.is_jump()
    }

    /// Whether this is a memory load.
    pub fn is_load(&self) -> bool {
        matches!(self, Op::Load { .. })
    }

    /// Whether this is a memory store.
    pub fn is_store(&self) -> bool {
        matches!(self, Op::Store { .. })
    }

    /// The taken target of a conditional branch at `pc`; `None` for every
    /// other operation.
    pub fn branch_target(&self, pc: u32) -> Option<u32> {
        match *self {
            Op::Branch { off, .. } | Op::BranchZ { off, .. } => {
                Some((pc as i64 + 4 + off as i64 * 4) as u32)
            }
            _ => None,
        }
    }

    /// The offset a branch at `pc` needs to reach `target`, if `target`
    /// is word-aligned and within the offset field's reach.
    pub fn branch_offset(pc: u32, target: u32) -> Option<i32> {
        let bytes = target as i64 - (pc as i64 + 4);
        ImmField::I12.fits_words(bytes).then_some((bytes / 4) as i32)
    }

    /// Whether this is a conditional branch that every register value
    /// takes: `b target` assembles to `beq $0, $0`, and any `beq` of a
    /// register with itself behaves the same. Static analyses resolve
    /// such a branch to its target alone.
    pub fn is_always_taken(&self) -> bool {
        matches!(*self, Op::Branch { cond: BranchCond::Eq, rs, rt, .. } if rs == rt)
    }

    /// Operand list rendered as assembly text (empty for `nop`/`halt`).
    pub fn operands(&self) -> String {
        match *self {
            Op::Alu { rd: a, rs: b, rt: c, .. }
            | Op::ShiftV { rd: a, rt: b, rs: c, .. }
            | Op::FpArith { fd: a, fs: b, ft: c, .. }
            | Op::FpCmp { rd: a, fs: b, ft: c, .. } => format!("{a}, {b}, {c}"),
            Op::Shift { rd, rt, sh, .. } => format!("{rd}, {rt}, {sh}"),
            Op::AluImm { rt, rs, imm, .. } => format!("{rt}, {rs}, {imm}"),
            Op::Lui { rt, imm } => format!("{rt}, {imm}"),
            Op::Load { rt, base, off, .. } | Op::Store { rt, base, off, .. } => {
                format!("{rt}, {off}({base})")
            }
            Op::Branch { rs, rt, off, .. } => format!("{rs}, {rt}, {off:+}"),
            Op::BranchZ { rs, off, .. } => format!("{rs}, {off:+}"),
            Op::Jump { target, .. } => format!("{target:#x}"),
            Op::Jr { rs } => format!("{rs}"),
            Op::Jalr { rd: a, rs: b }
            | Op::FpNeg { fd: a, fs: b, .. }
            | Op::FpAbs { fd: a, fs: b, .. }
            | Op::FpMov { fd: a, fs: b }
            | Op::CvtDW { fd: a, rs: b }
            | Op::CvtWD { rd: a, fs: b }
            | Op::Dmtc1 { fs: a, rt: b }
            | Op::Dmfc1 { rt: a, fs: b } => format!("{a}, {b}"),
            Op::Release { regs } => {
                let names: Vec<String> = regs.iter().map(|r| r.to_string()).collect();
                names.join(", ")
            }
            Op::Halt | Op::Nop => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u8) -> Reg {
        Reg::int(n)
    }

    #[test]
    fn def_and_uses_cover_formats() {
        let add = Op::Alu { op: AluOp::Addu, rd: r(3), rs: r(1), rt: r(2) };
        assert_eq!(add.def(), Some(r(3)));
        let u: Vec<Reg> = add.uses().iter().collect();
        assert_eq!(u, vec![r(1), r(2)]);

        let lw = Op::Load { width: MemWidth::W, signed: true, rt: r(8), base: r(17), off: 4 };
        assert_eq!(lw.def(), Some(r(8)));
        assert_eq!(lw.uses().iter().collect::<Vec<_>>(), vec![r(17)]);
        assert!(lw.is_load());
        assert_eq!(lw.fu_class(), FuClass::Mem);

        let sw = Op::Store { width: MemWidth::W, rt: r(8), base: r(17), off: 4 };
        assert_eq!(sw.def(), None);
        assert_eq!(sw.uses().iter().collect::<Vec<_>>(), vec![r(8), r(17)]);

        let jal = Op::Jump { link: true, target: 0x1000 };
        assert_eq!(jal.def(), Some(Reg::RA));
        assert!(jal.is_jump() && jal.is_control() && !jal.is_branch());
    }

    #[test]
    fn exec_classes_match_table1() {
        let alu = |op| Op::Alu { op, rd: r(1), rs: r(2), rt: r(3) };
        assert_eq!(alu(AluOp::Mul).exec_class(), ExecClass::IntMul);
        assert_eq!(alu(AluOp::Div).exec_class(), ExecClass::IntDiv);
        let fd = Op::FpArith {
            kind: FpArithKind::Div,
            prec: Prec::D,
            fd: Reg::fp(0),
            fs: Reg::fp(1),
            ft: Reg::fp(2),
        };
        assert_eq!(fd.exec_class(), ExecClass::FpDivD);
        assert_eq!(fd.fu_class(), FuClass::Fp);
    }

    #[test]
    fn mnemonics_and_operands_render() {
        let i = Op::AluImm { op: AluImmOp::Addiu, rt: r(20), rs: r(20), imm: 16 };
        assert_eq!(i.mnemonic(), "addiu");
        assert_eq!(i.operands(), "$20, $20, 16");
        let l = Op::Load { width: MemWidth::B, signed: false, rt: r(2), base: r(3), off: -1 };
        assert_eq!(l.mnemonic(), "lbu");
        assert_eq!(l.operands(), "$2, -1($3)");
        let rl = Op::Release { regs: RegList::from_slice(&[r(8), r(17)]) };
        assert_eq!(rl.operands(), "$8, $17");
    }

    #[test]
    fn reg_list_limits() {
        let mut l = RegList::EMPTY;
        assert!(l.is_empty());
        l.push(r(1));
        l.push(r(2));
        l.push(r(3));
        assert_eq!(l.len(), 3);
        assert_eq!(l.to_mask().len(), 3);
    }

    #[test]
    #[should_panic(expected = "RegList overflow")]
    fn reg_list_overflow_panics() {
        RegList::from_slice(&[r(1), r(2), r(3), r(4)]);
    }
}
