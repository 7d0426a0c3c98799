//! Functional (architectural) semantics of every operation.
//!
//! [`execute`] is a pure function from an instruction, its PC and a
//! register-read closure to an [`Outcome`]; the pipeline decides *when*
//! the outcome takes effect. Keeping semantics separate from timing makes
//! them independently testable.

use ms_isa::{FpArithKind, FpCmpCond, Instr, MemWidth, Op, Prec, Reg, RegList};

/// A memory access requested by an instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRequest {
    /// Whether this is a store.
    pub is_store: bool,
    /// Byte address.
    pub addr: u32,
    /// Access size in bytes.
    pub size: u32,
    /// Store data (low `size` bytes), zero for loads.
    pub value: u64,
    /// Sign-extend the loaded value.
    pub signed: bool,
    /// Destination register for loads.
    pub dest: Option<Reg>,
}

/// A resolved control transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControlOutcome {
    /// Whether the branch was taken (always true for jumps).
    pub taken: bool,
    /// The next PC (target if taken, fall-through otherwise).
    pub next_pc: u32,
    /// Whether this is a conditional branch (vs. an unconditional jump).
    pub conditional: bool,
}

/// The architectural effect of one instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Register write (not used for loads; see [`Outcome::mem`]).
    pub writeback: Option<(Reg, u64)>,
    /// Memory access to perform.
    pub mem: Option<MemRequest>,
    /// Control-flow resolution.
    pub control: Option<ControlOutcome>,
    /// Registers named by a `release` instruction.
    pub release: Option<RegList>,
    /// The program halts after this instruction.
    pub halt: bool,
}

fn f64_of(bits: u64) -> f64 {
    f64::from_bits(bits)
}

fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

/// Sign- or zero-extends a raw little-endian load of `width`.
pub fn extend_load(width: MemWidth, signed: bool, raw: u64) -> u64 {
    let bits = 8 * width.bytes();
    if bits == 64 {
        return raw;
    }
    let masked = raw & ((1u64 << bits) - 1);
    if signed && masked >> (bits - 1) != 0 {
        masked | !((1u64 << bits) - 1)
    } else {
        masked
    }
}

/// Executes `instr` at `pc`, reading sources through `read`.
///
/// Loads are returned as a [`MemRequest`]; the caller performs the access
/// and applies [`extend_load`]. The integer formats' semantics live with
/// their opcode tables in `ms-isa` ([`ms_isa::AluOp::eval`] and its
/// siblings).
pub fn execute(instr: &Instr, pc: u32, read: impl Fn(Reg) -> u64) -> Outcome {
    let mut out = Outcome::default();
    let branch = |taken: bool| {
        let next_pc = match instr.op.branch_target(pc) {
            Some(target) if taken => target,
            _ => pc + 4,
        };
        Some(ControlOutcome { taken, next_pc, conditional: true })
    };
    let jump = |next_pc: u32| Some(ControlOutcome { taken: true, next_pc, conditional: false });
    match instr.op {
        Op::Nop => {}
        Op::Halt => out.halt = true,
        Op::Alu { op, rd, rs, rt } => out.writeback = Some((rd, op.eval(read(rs), read(rt)))),
        Op::ShiftV { op, rd, rt, rs } => out.writeback = Some((rd, op.eval(read(rt), read(rs)))),
        Op::Shift { op, rd, rt, sh } => out.writeback = Some((rd, op.eval(read(rt), sh as u64))),
        Op::AluImm { op, rt, rs, imm } => out.writeback = Some((rt, op.eval(read(rs), imm))),
        Op::Lui { rt, imm } => out.writeback = Some((rt, ((imm as i64) << 12) as u64)),
        Op::Load { width, signed, rt, base, off } => {
            out.mem = Some(MemRequest {
                is_store: false,
                addr: (read(base) as i64).wrapping_add(off as i64) as u32,
                size: width.bytes(),
                value: 0,
                signed,
                dest: Some(rt),
            })
        }
        Op::Store { width, rt, base, off } => {
            out.mem = Some(MemRequest {
                is_store: true,
                addr: (read(base) as i64).wrapping_add(off as i64) as u32,
                size: width.bytes(),
                value: read(rt),
                signed: false,
                dest: None,
            })
        }
        Op::Branch { cond, rs, rt, .. } => out.control = branch(cond.taken(read(rs), read(rt))),
        Op::BranchZ { cond, rs, .. } => out.control = branch(cond.taken(read(rs))),
        Op::Jump { link, target } => {
            if link {
                out.writeback = Some((Reg::RA, (pc + 4) as u64));
            }
            out.control = jump(target);
        }
        Op::Jr { rs } => out.control = jump(read(rs) as u32),
        Op::Jalr { rd, rs } => {
            let target = read(rs) as u32;
            out.writeback = Some((rd, (pc + 4) as u64));
            out.control = jump(target);
        }
        Op::FpArith { kind, prec, fd, fs, ft } => {
            let v = match prec {
                Prec::D => {
                    let (a, b) = (f64_of(read(fs)), f64_of(read(ft)));
                    let r = match kind {
                        FpArithKind::Add => a + b,
                        FpArithKind::Sub => a - b,
                        FpArithKind::Mul => a * b,
                        FpArithKind::Div => a / b,
                    };
                    r.to_bits()
                }
                Prec::S => {
                    let (a, b) = (f32_of(read(fs)), f32_of(read(ft)));
                    let r = match kind {
                        FpArithKind::Add => a + b,
                        FpArithKind::Sub => a - b,
                        FpArithKind::Mul => a * b,
                        FpArithKind::Div => a / b,
                    };
                    r.to_bits() as u64
                }
            };
            out.writeback = Some((fd, v));
        }
        Op::FpCmp { cond, prec, rd, fs, ft } => {
            let res = match prec {
                Prec::D => {
                    let (a, b) = (f64_of(read(fs)), f64_of(read(ft)));
                    match cond {
                        FpCmpCond::Eq => a == b,
                        FpCmpCond::Lt => a < b,
                        FpCmpCond::Le => a <= b,
                    }
                }
                Prec::S => {
                    let (a, b) = (f32_of(read(fs)), f32_of(read(ft)));
                    match cond {
                        FpCmpCond::Eq => a == b,
                        FpCmpCond::Lt => a < b,
                        FpCmpCond::Le => a <= b,
                    }
                }
            };
            out.writeback = Some((rd, res as u64));
        }
        Op::FpNeg { prec, fd, fs } => {
            let v = match prec {
                Prec::D => (-f64_of(read(fs))).to_bits(),
                Prec::S => (-f32_of(read(fs))).to_bits() as u64,
            };
            out.writeback = Some((fd, v));
        }
        Op::FpAbs { prec, fd, fs } => {
            let v = match prec {
                Prec::D => f64_of(read(fs)).abs().to_bits(),
                Prec::S => f32_of(read(fs)).abs().to_bits() as u64,
            };
            out.writeback = Some((fd, v));
        }
        Op::FpMov { fd, fs } => out.writeback = Some((fd, read(fs))),
        Op::CvtDW { fd, rs } => out.writeback = Some((fd, ((read(rs) as i64) as f64).to_bits())),
        Op::CvtWD { rd, fs } => out.writeback = Some((rd, (f64_of(read(fs)) as i64) as u64)),
        Op::Dmtc1 { fs, rt } => out.writeback = Some((fs, read(rt))),
        Op::Dmfc1 { rt, fs } => out.writeback = Some((rt, read(fs))),
        Op::Release { regs } => out.release = Some(regs),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_isa::{AluOp, BranchCond, StopCond};

    fn run(op: Op, regs: &[(Reg, u64)]) -> Outcome {
        let read = |r: Reg| regs.iter().find(|(x, _)| *x == r).map(|(_, v)| *v).unwrap_or(0);
        execute(&Instr::new(op), 0x1000, read)
    }

    #[test]
    fn integer_arithmetic() {
        let r = |n| Reg::int(n);
        let alu = |op| Op::Alu { op, rd: r(3), rs: r(1), rt: r(2) };
        let out = run(alu(AluOp::Addu), &[(r(1), 5), (r(2), 7)]);
        assert_eq!(out.writeback, Some((r(3), 12)));
        let out = run(alu(AluOp::Subu), &[(r(1), 5), (r(2), 7)]);
        assert_eq!(out.writeback, Some((r(3), (-2i64) as u64)));
        let out = run(alu(AluOp::Slt), &[(r(1), u64::MAX), (r(2), 1)]);
        assert_eq!(out.writeback, Some((r(3), 1))); // -1 < 1 signed
        let out = run(alu(AluOp::Sltu), &[(r(1), u64::MAX), (r(2), 1)]);
        assert_eq!(out.writeback, Some((r(3), 0))); // max > 1 unsigned
    }

    #[test]
    fn division_by_zero_is_zero() {
        let r = |n| Reg::int(n);
        let alu = |op| Op::Alu { op, rd: r(3), rs: r(1), rt: r(2) };
        let out = run(alu(AluOp::Div), &[(r(1), 10)]);
        assert_eq!(out.writeback, Some((r(3), 0)));
        let out = run(alu(AluOp::Rem), &[(r(1), 10), (r(2), 3)]);
        assert_eq!(out.writeback, Some((r(3), 1)));
    }

    #[test]
    fn lui_shifts_by_12() {
        let out = run(Op::Lui { rt: Reg::int(2), imm: -1 }, &[]);
        assert_eq!(out.writeback, Some((Reg::int(2), (-4096i64) as u64)));
        let out = run(Op::Lui { rt: Reg::int(2), imm: 5 }, &[]);
        assert_eq!(out.writeback, Some((Reg::int(2), 5 << 12)));
    }

    #[test]
    fn branch_targets_are_word_relative() {
        let bne = Op::Branch { cond: BranchCond::Ne, rs: Reg::int(1), rt: Reg::int(2), off: -4 };
        let i = Instr::new(bne).with_stop(StopCond::Always);
        let out = execute(&i, 0x1010, |r| if r == Reg::int(1) { 1 } else { 0 });
        let c = out.control.unwrap();
        assert!(c.taken && c.conditional);
        assert_eq!(c.next_pc, 0x1010 + 4 - 16);
        // Not taken falls through.
        let out = execute(&i, 0x1010, |_| 0);
        assert_eq!(out.control.unwrap().next_pc, 0x1014);
        assert!(!out.control.unwrap().taken);
    }

    #[test]
    fn calls_write_return_address() {
        let out = run(Op::Jump { link: true, target: 0x2000 }, &[]);
        assert_eq!(out.writeback, Some((Reg::RA, 0x1004)));
        assert_eq!(out.control.unwrap().next_pc, 0x2000);
        let out = run(Op::Jr { rs: Reg::RA }, &[(Reg::RA, 0x1440)]);
        assert_eq!(out.control.unwrap().next_pc, 0x1440);
    }

    #[test]
    fn memory_requests_carry_addressing() {
        let out = run(
            Op::Load {
                width: MemWidth::H,
                signed: true,
                rt: Reg::int(2),
                base: Reg::int(3),
                off: -2,
            },
            &[(Reg::int(3), 0x100)],
        );
        let m = out.mem.unwrap();
        assert!(!m.is_store);
        assert_eq!(m.addr, 0xfe);
        assert_eq!(m.size, 2);
        assert_eq!(m.dest, Some(Reg::int(2)));

        let out = run(
            Op::Store { width: MemWidth::D, rt: Reg::int(2), base: Reg::int(3), off: 8 },
            &[(Reg::int(2), 99), (Reg::int(3), 0x100)],
        );
        let m = out.mem.unwrap();
        assert!(m.is_store);
        assert_eq!(m.addr, 0x108);
        assert_eq!(m.value, 99);
    }

    #[test]
    fn load_extension() {
        assert_eq!(extend_load(MemWidth::B, true, 0x80), 0xffff_ffff_ffff_ff80);
        assert_eq!(extend_load(MemWidth::B, false, 0x80), 0x80);
        assert_eq!(extend_load(MemWidth::W, true, 0x8000_0000), 0xffff_ffff_8000_0000);
        assert_eq!(extend_load(MemWidth::W, false, 0x8000_0000), 0x8000_0000);
        assert_eq!(extend_load(MemWidth::D, true, u64::MAX), u64::MAX);
    }

    #[test]
    fn fp_double_arithmetic() {
        let f = |n| Reg::fp(n);
        let out = run(
            Op::FpArith { kind: FpArithKind::Mul, prec: Prec::D, fd: f(0), fs: f(1), ft: f(2) },
            &[(f(1), 2.5f64.to_bits()), (f(2), 4.0f64.to_bits())],
        );
        let (rd, bits) = out.writeback.unwrap();
        assert_eq!(rd, f(0));
        assert_eq!(f64::from_bits(bits), 10.0);
    }

    #[test]
    fn fp_compare_writes_int_reg() {
        let f = |n| Reg::fp(n);
        let out = run(
            Op::FpCmp { cond: FpCmpCond::Lt, prec: Prec::D, rd: Reg::int(5), fs: f(1), ft: f(2) },
            &[(f(1), 1.0f64.to_bits()), (f(2), 2.0f64.to_bits())],
        );
        assert_eq!(out.writeback, Some((Reg::int(5), 1)));
    }

    #[test]
    fn conversions_round_trip() {
        let out =
            run(Op::CvtDW { fd: Reg::fp(0), rs: Reg::int(1) }, &[(Reg::int(1), (-7i64) as u64)]);
        assert_eq!(f64::from_bits(out.writeback.unwrap().1), -7.0);
        let out =
            run(Op::CvtWD { rd: Reg::int(1), fs: Reg::fp(0) }, &[(Reg::fp(0), 3.9f64.to_bits())]);
        assert_eq!(out.writeback.unwrap().1 as i64, 3); // truncation
    }

    #[test]
    fn halt_and_release() {
        assert!(run(Op::Halt, &[]).halt);
        let out = run(Op::Release { regs: RegList::from_slice(&[Reg::int(4)]) }, &[]);
        assert_eq!(out.release.unwrap().len(), 1);
    }
}
