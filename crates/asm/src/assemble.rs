//! The two-pass assembler.
//!
//! Pass 1 lays out sections and records label addresses (every pseudo
//! instruction has a size computable without symbol values). Pass 2
//! expands pseudos, resolves symbols, and emits the [`Program`].
//!
//! The same source assembles in two modes, mirroring the paper's pairing
//! of a scalar binary with a multiscalar binary built from the same code
//! (Table 2): in [`AsmMode::Scalar`] all multiscalar artifacts (task
//! descriptors, tag suffixes, `release` instructions and
//! `.ms_begin`/`.ms_end` blocks) are dropped, while
//! `.scalar_begin`/`.scalar_end` blocks are kept, and vice versa.

use crate::error::{AsmError, AsmErrorKind};
use crate::parser::{parse_line, DataItem, DataKind, Operand, Parsed, Section, Stmt, TargetSpec};
use ms_isa::{
    AluImmOp, AluOp, BranchCond, DataSegment, ImmField, Instr, MemWidth, Op, Program, Reg, RegList,
    RegMask, TagBits, TaskDescriptor, TaskTarget, DATA_BASE, STACK_TOP, TEXT_BASE,
};
use std::collections::BTreeMap;

/// Which binary to produce from a dual-mode source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AsmMode {
    /// Strip all multiscalar artifacts (the paper's baseline binary).
    Scalar,
    /// Keep task descriptors, tag bits, releases and `.ms` blocks.
    Multiscalar,
}

/// Assembler scratch register used by pseudo-instruction expansion
/// (`$at`, by MIPS convention).
const AT: Reg = Reg::int(1);

fn err(line: usize, kind: AsmErrorKind) -> AsmError {
    AsmError::new(line, kind)
}

/// Assembles `src` into a [`Program`].
///
/// # Errors
/// Returns the first [`AsmError`] encountered: syntax errors, unknown
/// mnemonics, operand mismatches, undefined/duplicate labels, or
/// out-of-range immediates and branch offsets.
///
/// ```
/// use ms_asm::{assemble, AsmMode};
/// let p = assemble("main: li $2, 42\n halt\n", AsmMode::Scalar)?;
/// assert_eq!(p.text.len(), 2);
/// # Ok::<(), ms_asm::AsmError>(())
/// ```
pub fn assemble(src: &str, mode: AsmMode) -> Result<Program, AsmError> {
    let mut parsed = Parsed::default();
    for (i, line) in src.lines().enumerate() {
        parse_line(line, i + 1, &mut parsed)?;
    }
    let stmts = filter_mode(parsed.stmts, mode)?;
    let layout = layout(&stmts, mode)?;
    emit(&stmts, &parsed.names, &layout, mode)
}

/// Drops statements excluded by the mode and validates block nesting.
fn filter_mode(stmts: Vec<(usize, Stmt)>, mode: AsmMode) -> Result<Vec<(usize, Stmt)>, AsmError> {
    let mut out = Vec::new();
    let mut ms_depth = 0u32;
    let mut scalar_depth = 0u32;
    for (line, stmt) in stmts {
        match stmt {
            Stmt::MsBegin => {
                if scalar_depth > 0 {
                    return Err(err(
                        line,
                        AsmErrorKind::Directive(".ms_begin inside a scalar block".into()),
                    ));
                }
                ms_depth += 1;
            }
            Stmt::MsEnd => {
                ms_depth = ms_depth.checked_sub(1).ok_or_else(|| {
                    err(line, AsmErrorKind::Directive(".ms_end without .ms_begin".into()))
                })?;
            }
            Stmt::ScalarBegin => {
                if ms_depth > 0 {
                    return Err(err(
                        line,
                        AsmErrorKind::Directive(".scalar_begin inside a multiscalar block".into()),
                    ));
                }
                scalar_depth += 1;
            }
            Stmt::ScalarEnd => {
                scalar_depth = scalar_depth.checked_sub(1).ok_or_else(|| {
                    err(line, AsmErrorKind::Directive(".scalar_end without .scalar_begin".into()))
                })?;
            }
            other => {
                let keep = match mode {
                    AsmMode::Scalar => ms_depth == 0,
                    AsmMode::Multiscalar => scalar_depth == 0,
                };
                if keep {
                    out.push((line, other));
                }
            }
        }
    }
    if ms_depth != 0 || scalar_depth != 0 {
        return Err(err(0, AsmErrorKind::Directive("unclosed .ms/.scalar block".into())));
    }
    Ok(out)
}

struct Layout<'a> {
    symbols: BTreeMap<&'a str, u32>,
    /// The address each statement starts at in its section, after any
    /// alignment it implies. Emit pads up to it, so addresses are
    /// computed in one place.
    addrs: Vec<u32>,
}

/// The largest text section, in bytes: code may not reach the data image
/// at [`DATA_BASE`]. Padding for `.align` counts, so a few lines of source
/// cannot ask for gigabytes of `nop`s. The largest suite text, Compress
/// in multiscalar mode, is 288 bytes.
const MAX_TEXT_BYTES: u32 = DATA_BASE - TEXT_BASE;

/// The largest data image, in bytes: the image may not reach the stack,
/// which grows down from [`STACK_TOP`]. The largest suite image, Compress
/// at full scale, is 302,196 bytes.
const MAX_DATA_BYTES: u32 = STACK_TOP - DATA_BASE;

/// `pc` advanced by `bytes`, unless the section would run past the end
/// of the 32-bit address space.
fn advance(pc: u32, bytes: usize, line: usize) -> Result<u32, AsmError> {
    u32::try_from(bytes).ok().and_then(|b| pc.checked_add(b)).ok_or_else(|| {
        err(line, AsmErrorKind::OutOfRange("section overflows the 32-bit address space".into()))
    })
}

fn align_up(pc: u32, to: u32, line: usize) -> Result<u32, AsmError> {
    advance(pc, ((to - pc % to) % to) as usize, line)
}

fn layout<'a>(stmts: &[(usize, Stmt<'a>)], mode: AsmMode) -> Result<Layout<'a>, AsmError> {
    let mut symbols = BTreeMap::new();
    let mut addrs = Vec::with_capacity(stmts.len());
    let mut section = Section::Text;
    let mut text_pc = TEXT_BASE;
    let mut data_pc = DATA_BASE;
    let directive = |line, what: &str| Err(err(line, AsmErrorKind::Directive(what.into())));
    for &(line, ref stmt) in stmts {
        let pc = if section == Section::Text { text_pc } else { data_pc };
        // Alignment moves a statement's own address; nothing else does.
        let at = match stmt {
            Stmt::Align(n) if *n > 16 => return directive(line, "alignment too large"),
            Stmt::Align(n) if section == Section::Text => align_up(pc, (1 << n).max(4), line)?,
            Stmt::Align(n) => align_up(pc, 1 << n, line)?,
            Stmt::Data(kind, _) => align_up(pc, kind.size(), line)?,
            _ => pc,
        };
        addrs.push(at);
        let bytes = match stmt {
            Stmt::Label(name) => {
                if symbols.insert(*name, at).is_some() {
                    return Err(err(line, AsmErrorKind::DuplicateSymbol((*name).to_owned())));
                }
                0
            }
            Stmt::Section(s) => {
                section = *s;
                continue;
            }
            Stmt::Align(_) | Stmt::Entry(_) | Stmt::Task { .. } => 0,
            Stmt::Data(kind, items) if section == Section::Data => {
                (kind.size() as usize).saturating_mul(items.len())
            }
            Stmt::Data(..) => return directive(line, "data directive outside .data"),
            Stmt::Space(n) if section == Section::Data => *n as usize,
            Stmt::Space(_) => return directive(line, ".space in .text"),
            Stmt::Asciiz(bytes) if section == Section::Data => bytes.len().saturating_add(1),
            Stmt::Asciiz(_) => return directive(line, ".asciiz in .text"),
            Stmt::Ins { mnem, ops, .. } if section == Section::Text => {
                4 * size_in_words(mnem, ops, mode, line)?
            }
            Stmt::Ins { .. } => return directive(line, "instruction outside .text"),
            Stmt::MsBegin | Stmt::MsEnd | Stmt::ScalarBegin | Stmt::ScalarEnd => unreachable!(),
        };
        let end = advance(at, bytes, line)?;
        let (next, base, room, what) = match section {
            Section::Text => (&mut text_pc, TEXT_BASE, MAX_TEXT_BYTES, "text section"),
            Section::Data => (&mut data_pc, DATA_BASE, MAX_DATA_BYTES, "data image"),
        };
        if end - base > room {
            let msg = format!("{what} exceeds {room} bytes");
            return Err(err(line, AsmErrorKind::OutOfRange(msg)));
        }
        *next = end;
    }
    Ok(Layout { symbols, addrs })
}

/// The mnemonic of `release`, which with more than three registers
/// expands into several machine `release`s.
const RELEASE: &str = Op::Release { regs: RegList::EMPTY }.mnemonic();

/// Number of machine instructions a (possibly pseudo) mnemonic expands to.
/// Must agree exactly with [`Emitter::expand`]; `emit` asserts this.
fn size_in_words(
    mnem: &str,
    ops: &[Operand],
    mode: AsmMode,
    line: usize,
) -> Result<usize, AsmError> {
    Ok(match mnem {
        "li" if ImmField::I12.fits(li_value(ops, line)?) => 1,
        "li" => 2,
        "la" => 2,
        "blt" | "bge" | "bgt" | "ble" | "bltu" | "bgeu" | "bgtu" | "bleu" => 2,
        RELEASE if mode == AsmMode::Scalar => 0,
        RELEASE => ops.len().div_ceil(RegList::CAPACITY).max(1),
        _ => 1,
    })
}

/// The constant of `li $r, imm`.
fn li_value(ops: &[Operand], line: usize) -> Result<i64, AsmError> {
    match ops.get(1) {
        Some(Operand::Imm(v)) => Ok(*v),
        _ => Err(err(line, AsmErrorKind::BadOperands("li expects `li $r, imm`".into()))),
    }
}

/// Checks that `mnem` has `n` operands.
fn check_arity(mnem: &str, ops: &[Operand], n: usize, line: usize) -> Result<(), AsmError> {
    if ops.len() == n {
        return Ok(());
    }
    let msg = format!("{mnem} expects {n} operands, found {}", ops.len());
    Err(err(line, AsmErrorKind::BadOperands(msg)))
}

/// The machine operation an alternative spelling stands for, with every
/// operand zero.
fn alias(mnem: &str) -> Option<Op> {
    let z = Reg::ZERO;
    let alu = |op| Op::Alu { op, rd: z, rs: z, rt: z };
    Some(match mnem {
        "add" => alu(AluOp::Addu),
        "sub" => alu(AluOp::Subu),
        "mult" => alu(AluOp::Mul),
        "addi" => Op::AluImm { op: AluImmOp::Addiu, rt: z, rs: z, imm: 0 },
        "l.d" | "ldc1" => Op::Load { width: MemWidth::D, signed: true, rt: z, base: z, off: 0 },
        "s.d" | "sdc1" => Op::Store { width: MemWidth::D, rt: z, base: z, off: 0 },
        "mov.s" => Op::FpMov { fd: z, fs: z },
        _ => return None,
    })
}

struct Emitter<'a> {
    symbols: &'a BTreeMap<&'a str, u32>,
    text: Vec<Instr>,
    mode: AsmMode,
}

impl Emitter<'_> {
    fn pc(&self) -> u32 {
        TEXT_BASE + 4 * self.text.len() as u32
    }

    /// The address of label `name`.
    fn addr(&self, name: &str, line: usize) -> Result<u32, AsmError> {
        let addr = self.symbols.get(name).copied();
        addr.ok_or_else(|| err(line, AsmErrorKind::UndefinedSymbol(name.to_owned())))
    }

    fn sym(&self, name: &str, off: i64, line: usize) -> Result<u32, AsmError> {
        Ok((self.addr(name, line)? as i64 + off) as u32)
    }

    fn reg(&self, op: Option<&Operand>, line: usize) -> Result<Reg, AsmError> {
        match op {
            Some(Operand::Reg(r)) => Ok(*r),
            other => Err(err(
                line,
                AsmErrorKind::BadOperands(format!("expected register, found {other:?}")),
            )),
        }
    }

    fn imm(&self, op: Option<&Operand>, line: usize) -> Result<i64, AsmError> {
        match op {
            Some(Operand::Imm(v)) => Ok(*v),
            Some(Operand::Sym(name, off)) => Ok(self.sym(name, *off, line)? as i64),
            other => Err(err(
                line,
                AsmErrorKind::BadOperands(format!("expected immediate, found {other:?}")),
            )),
        }
    }

    /// `v` narrowed to `field`, which must hold it.
    fn field(&self, v: i64, field: ImmField, line: usize) -> Result<i32, AsmError> {
        if !field.fits(v) {
            let msg = format!("immediate {v} does not fit {} bits", field.bits);
            return Err(err(line, AsmErrorKind::OutOfRange(msg)));
        }
        Ok(v as i32)
    }

    /// A memory operand `off(base)`, its offset narrowed to the field.
    fn mem(&self, op: Option<&Operand>, line: usize) -> Result<(Reg, i32), AsmError> {
        match op {
            Some(Operand::Mem { disp, base }) => {
                let d = match &**disp {
                    Operand::Imm(v) => *v,
                    Operand::Sym(name, off) => self.sym(name, *off, line)? as i64,
                    _ => unreachable!("parser only builds Imm/Sym displacements"),
                };
                Ok((*base, self.field(d, ImmField::I12, line)?))
            }
            other => Err(err(
                line,
                AsmErrorKind::BadOperands(format!(
                    "expected mem operand `off(base)`, found {other:?}"
                )),
            )),
        }
    }

    /// Branch offset, in instructions from the instruction after the one
    /// about to be emitted: to a label, or as written when numeric.
    fn branch_off(&self, op: Option<&Operand>, line: usize) -> Result<i32, AsmError> {
        match op {
            Some(Operand::Sym(name, off)) => {
                let target = self.sym(name, *off, line)?;
                Op::branch_offset(self.pc(), target).ok_or_else(|| {
                    let msg = format!("branch target {target:#x} out of reach");
                    err(line, AsmErrorKind::OutOfRange(msg))
                })
            }
            Some(Operand::Imm(v)) => self.field(*v, ImmField::I12, line),
            other => Err(err(
                line,
                AsmErrorKind::BadOperands(format!("expected branch target, found {other:?}")),
            )),
        }
    }

    fn jump_target(&self, op: Option<&Operand>, line: usize) -> Result<u32, AsmError> {
        let target = match op {
            Some(Operand::Sym(name, off)) => self.sym(name, *off, line)? as i64,
            Some(Operand::Imm(v)) => *v,
            other => {
                return Err(err(
                    line,
                    AsmErrorKind::BadOperands(format!("expected jump target, found {other:?}")),
                ))
            }
        };
        if !ImmField::J24.fits_words(target) {
            let msg = format!("jump target {target:#x} is unaligned or out of range");
            return Err(err(line, AsmErrorKind::OutOfRange(msg)));
        }
        Ok(target as u32)
    }

    fn shift_amount(&self, op: Option<&Operand>, line: usize) -> Result<u8, AsmError> {
        let sh = self.imm(op, line)?;
        if !ImmField::SHAMT.fits(sh) {
            return Err(err(
                line,
                AsmErrorKind::BadOperands(format!(
                    "shift amount {sh} is out of range (0..=63 for 64-bit registers)"
                )),
            ));
        }
        Ok(sh as u8)
    }

    fn push(&mut self, op: Op) {
        self.text.push(Instr::new(op));
    }

    /// Pushes `op` carrying `tags` (dropped in scalar mode).
    fn push_tagged(&mut self, op: Op, tags: TagBits) {
        let tags = if self.mode == AsmMode::Scalar { TagBits::NONE } else { tags };
        self.text.push(Instr { op, tags });
    }

    /// Emits `li rd, v` (1 or 2 instructions), returning with `tags` on the
    /// last instruction.
    fn emit_li(&mut self, rd: Reg, v: i64, tags: TagBits, line: usize) -> Result<(), AsmError> {
        if ImmField::I12.fits(v) {
            self.push_tagged(
                Op::AluImm { op: AluImmOp::Addiu, rt: rd, rs: Reg::ZERO, imm: v as i32 },
                tags,
            );
            return Ok(());
        }
        if !ImmField::L18.fits(v >> 12) {
            return Err(err(
                line,
                AsmErrorKind::OutOfRange(format!("li constant {v} exceeds 30-bit range")),
            ));
        }
        self.emit_hi_lo(rd, v, tags);
        Ok(())
    }

    /// Emits `lui rd, v >> 12` then `ori rd, rd, v & 0xfff`, which
    /// rebuild `v` under the ISA semantics `rd = (hi << 12) | lo`.
    fn emit_hi_lo(&mut self, rd: Reg, v: i64, tags: TagBits) {
        self.push(Op::Lui { rt: rd, imm: (v >> 12) as i32 });
        let lo = (v & 0xfff) as i32;
        self.push_tagged(Op::AluImm { op: AluImmOp::Ori, rt: rd, rs: rd, imm: lo }, tags);
    }

    /// Fills the operands of `template`, a machine operation named by
    /// its mnemonic, from the source operands: one arm per format, in the
    /// order [`Op::operands`] prints them.
    fn machine_op(
        &self,
        template: Op,
        mnem: &str,
        ops: &[Operand],
        line: usize,
    ) -> Result<Op, AsmError> {
        let r = |i: usize| self.reg(ops.get(i), line);
        let imm = |i: usize, field| self.field(self.imm(ops.get(i), line)?, field, line);
        let arity = match template {
            Op::Alu { .. }
            | Op::ShiftV { .. }
            | Op::Shift { .. }
            | Op::AluImm { .. }
            | Op::Branch { .. }
            | Op::FpArith { .. }
            | Op::FpCmp { .. } => 3,
            Op::Jump { .. } | Op::Jr { .. } => 1,
            Op::Halt | Op::Nop => 0,
            Op::Jalr { .. } => ops.len().clamp(1, 2), // `jalr rs` links to `$31`
            _ => 2,
        };
        check_arity(mnem, ops, arity, line)?;
        Ok(match template {
            Op::Alu { op, .. } => Op::Alu { op, rd: r(0)?, rs: r(1)?, rt: r(2)? },
            Op::ShiftV { op, .. } => Op::ShiftV { op, rd: r(0)?, rt: r(1)?, rs: r(2)? },
            Op::Shift { op, .. } => {
                Op::Shift { op, rd: r(0)?, rt: r(1)?, sh: self.shift_amount(ops.get(2), line)? }
            }
            Op::AluImm { op, .. } => {
                Op::AluImm { op, rt: r(0)?, rs: r(1)?, imm: imm(2, op.field())? }
            }
            Op::Lui { .. } => Op::Lui { rt: r(0)?, imm: imm(1, ImmField::L18)? },
            Op::Load { width, signed, .. } => {
                let rt = r(0)?;
                let (base, off) = self.mem(ops.get(1), line)?;
                Op::Load { width, signed, rt, base, off }
            }
            Op::Store { width, .. } => {
                let rt = r(0)?;
                let (base, off) = self.mem(ops.get(1), line)?;
                Op::Store { width, rt, base, off }
            }
            Op::Branch { cond, .. } => {
                Op::Branch { cond, rs: r(0)?, rt: r(1)?, off: self.branch_off(ops.get(2), line)? }
            }
            Op::BranchZ { cond, .. } => {
                Op::BranchZ { cond, rs: r(0)?, off: self.branch_off(ops.get(1), line)? }
            }
            Op::Jump { link, .. } => {
                Op::Jump { link, target: self.jump_target(ops.first(), line)? }
            }
            Op::Jr { .. } => Op::Jr { rs: r(0)? },
            Op::Jalr { .. } => {
                let rd = if ops.len() == 1 { Reg::RA } else { r(0)? };
                Op::Jalr { rd, rs: r(ops.len() - 1)? }
            }
            Op::FpArith { kind, prec, .. } => {
                Op::FpArith { kind, prec, fd: r(0)?, fs: r(1)?, ft: r(2)? }
            }
            Op::FpCmp { cond, prec, .. } => {
                Op::FpCmp { cond, prec, rd: r(0)?, fs: r(1)?, ft: r(2)? }
            }
            Op::FpNeg { prec, .. } => Op::FpNeg { prec, fd: r(0)?, fs: r(1)? },
            Op::FpAbs { prec, .. } => Op::FpAbs { prec, fd: r(0)?, fs: r(1)? },
            Op::FpMov { .. } => Op::FpMov { fd: r(0)?, fs: r(1)? },
            Op::CvtDW { .. } => Op::CvtDW { fd: r(0)?, rs: r(1)? },
            Op::CvtWD { .. } => Op::CvtWD { rd: r(0)?, fs: r(1)? },
            Op::Dmtc1 { .. } => Op::Dmtc1 { fs: r(0)?, rt: r(1)? },
            Op::Dmfc1 { .. } => Op::Dmfc1 { rt: r(0)?, fs: r(1)? },
            Op::Release { .. } => unreachable!("`expand` chunks releases"),
            Op::Halt | Op::Nop => template,
        })
    }

    fn expand(
        &mut self,
        mnem: &str,
        tags: TagBits,
        ops: &[Operand],
        line: usize,
    ) -> Result<(), AsmError> {
        let o = |i: usize| ops.get(i);
        let want = |n: usize| check_arity(mnem, ops, n, line);
        let z = Reg::ZERO;
        match mnem {
            RELEASE => {
                if self.mode == AsmMode::Scalar {
                    return Ok(()); // dropped entirely from the scalar binary
                }
                if ops.is_empty() {
                    return Err(err(
                        line,
                        AsmErrorKind::BadOperands(format!("{mnem} expects at least one register")),
                    ));
                }
                let mut regs: Vec<Reg> = Vec::with_capacity(ops.len());
                for op in ops {
                    let r = self.reg(Some(op), line)?;
                    if r.index() == 0 {
                        // $0 is architecturally constant, and its zero
                        // register-field encoding means "empty slot" — the
                        // entry would silently vanish from the binary.
                        return Err(err(
                            line,
                            AsmErrorKind::BadOperands("cannot release $0".into()),
                        ));
                    }
                    regs.push(r);
                }
                let nchunks = regs.len().div_ceil(RegList::CAPACITY);
                for (ci, chunk) in regs.chunks(RegList::CAPACITY).enumerate() {
                    let t = if ci + 1 == nchunks { tags } else { TagBits::NONE };
                    self.push_tagged(Op::Release { regs: RegList::from_slice(chunk) }, t);
                }
            }
            // ---- pseudo-instructions ----
            "li" => {
                want(2)?;
                let rd = self.reg(o(0), line)?;
                self.emit_li(rd, li_value(ops, line)?, tags, line)?;
            }
            "la" => {
                want(2)?;
                let rd = self.reg(o(0), line)?;
                let addr = match o(1) {
                    Some(Operand::Sym(name, off)) => self.sym(name, *off, line)? as i64,
                    Some(Operand::Imm(v)) => *v,
                    other => {
                        return Err(err(
                            line,
                            AsmErrorKind::BadOperands(format!(
                                "la expects a symbol, found {other:?}"
                            )),
                        ))
                    }
                };
                // Fixed two-instruction expansion so pass-1 sizing is exact.
                self.emit_hi_lo(rd, addr, tags);
            }
            "move" | "mov" | "not" | "neg" => {
                want(2)?;
                let rd = self.reg(o(0), line)?;
                let rs = self.reg(o(1), line)?;
                let op = match mnem {
                    "not" => Op::Alu { op: AluOp::Nor, rd, rs, rt: z },
                    "neg" => Op::Alu { op: AluOp::Subu, rd, rs: z, rt: rs },
                    _ => Op::Alu { op: AluOp::Addu, rd, rs, rt: z },
                };
                self.push_tagged(op, tags);
            }
            "b" => {
                want(1)?;
                let off = self.branch_off(o(0), line)?;
                self.push_tagged(Op::Branch { cond: BranchCond::Eq, rs: z, rt: z, off }, tags);
            }
            "beqz" | "bnez" => {
                want(2)?;
                let rs = self.reg(o(0), line)?;
                let off = self.branch_off(o(1), line)?;
                let cond = if mnem == "beqz" { BranchCond::Eq } else { BranchCond::Ne };
                self.push_tagged(Op::Branch { cond, rs, rt: z, off }, tags);
            }
            // Compare into `$at`, then branch on it: `bgt`/`ble` swap the
            // operands, the `u` forms compare unsigned.
            "blt" | "bge" | "bgt" | "ble" | "bltu" | "bgeu" | "bgtu" | "bleu" => {
                want(3)?;
                let rs = self.reg(o(0), line)?;
                let rt = self.reg(o(1), line)?;
                let (swap, on_set) = match mnem.strip_suffix('u').unwrap_or(mnem) {
                    "blt" => (false, true),
                    "bge" => (false, false),
                    "bgt" => (true, true),
                    _ => (true, false),
                };
                let (rs, rt) = if swap { (rt, rs) } else { (rs, rt) };
                let op = if mnem.ends_with('u') { AluOp::Sltu } else { AluOp::Slt };
                self.push(Op::Alu { op, rd: AT, rs, rt });
                let off = self.branch_off(o(2), line)?;
                let cond = if on_set { BranchCond::Ne } else { BranchCond::Eq };
                self.push_tagged(Op::Branch { cond, rs: AT, rt: z, off }, tags);
            }
            _ => {
                let template = alias(mnem)
                    .or_else(|| Op::from_mnemonic(mnem))
                    .ok_or_else(|| err(line, AsmErrorKind::UnknownMnemonic(mnem.to_owned())))?;
                let op = self.machine_op(template, mnem, ops, line)?;
                self.push_tagged(op, tags);
            }
        }
        Ok(())
    }
}

/// Emits the program; `names` are the labels symbolic data items name.
fn emit(
    stmts: &[(usize, Stmt)],
    names: &[&str],
    layout: &Layout,
    mode: AsmMode,
) -> Result<Program, AsmError> {
    let mut em = Emitter { symbols: &layout.symbols, text: Vec::new(), mode };
    let mut data: Vec<u8> = Vec::new();
    let mut section = Section::Text;
    let mut tasks: BTreeMap<u32, TaskDescriptor> = BTreeMap::new();
    let mut pending_task: Option<(usize, &[TargetSpec], &[Reg])> = None;
    let mut entry_sym: Option<&str> = None;

    for ((line, stmt), &at) in stmts.iter().zip(&layout.addrs) {
        // Pad the section up to the address layout gave the statement.
        if section == Section::Text {
            while em.pc() < at {
                em.push(Op::Nop);
            }
        } else {
            data.resize((at - DATA_BASE) as usize, 0);
        }
        match stmt {
            Stmt::Label(_) | Stmt::Align(_) => {}
            Stmt::Section(s) => section = *s,
            Stmt::Data(kind, items) => {
                let n = kind.size() as usize;
                for item in items {
                    let v: u64 = match *item {
                        DataItem::Imm(v) => v as u64,
                        DataItem::Sym(i, off) => {
                            (em.addr(names[i as usize], *line)? as i64 + off) as u64
                        }
                        DataItem::Fp(f) => f.to_bits(),
                    };
                    if *kind != DataKind::Double && *kind != DataKind::Dword {
                        let limit = 1i128 << (8 * n);
                        let sv = v as i64 as i128;
                        if sv >= limit || sv < -(limit / 2) {
                            return Err(err(
                                *line,
                                AsmErrorKind::OutOfRange(format!(
                                    "data item {sv} does not fit {n} bytes"
                                )),
                            ));
                        }
                    }
                    data.extend_from_slice(&v.to_le_bytes()[..n]);
                }
            }
            Stmt::Space(n) => data.extend(std::iter::repeat_n(0u8, *n as usize)),
            Stmt::Asciiz(bytes) => {
                data.extend_from_slice(bytes);
                data.push(0);
            }
            Stmt::Entry(name) => entry_sym = Some(name),
            Stmt::Task { targets, create } => {
                if mode == AsmMode::Scalar {
                    continue;
                }
                if pending_task.is_some() {
                    return Err(err(
                        *line,
                        AsmErrorKind::Directive(
                            "two .task directives with no code between them".into(),
                        ),
                    ));
                }
                pending_task = Some((*line, targets, create));
            }
            Stmt::Ins { mnem, tags, ops } => {
                let before = em.text.len();
                let at = em.pc();
                if let Some((tline, targets, create)) = pending_task.take() {
                    let mut tt = Vec::with_capacity(targets.len());
                    for t in targets {
                        tt.push(match *t {
                            TargetSpec::Ret => TaskTarget::ret(),
                            TargetSpec::Halt => TaskTarget::halt(),
                            TargetSpec::Label(name) => TaskTarget::addr(em.addr(name, tline)?),
                        });
                    }
                    let mask: RegMask = create.iter().copied().collect();
                    tasks.insert(at, TaskDescriptor::new(at, mask, tt));
                }
                em.expand(mnem, *tags, ops, *line)?;
                let emitted = em.text.len() - before;
                debug_assert_eq!(
                    emitted,
                    size_in_words(mnem, ops, mode, *line)?,
                    "size_in_words out of sync for `{mnem}` at line {line}"
                );
            }
            Stmt::MsBegin | Stmt::MsEnd | Stmt::ScalarBegin | Stmt::ScalarEnd => unreachable!(),
        }
    }
    if let Some((tline, ..)) = pending_task {
        return Err(err(
            tline,
            AsmErrorKind::Directive(".task directive not followed by any instruction".into()),
        ));
    }

    let entry_name = entry_sym.or_else(|| layout.symbols.contains_key("main").then_some("main"));
    let entry = entry_name.map_or(Ok(TEXT_BASE), |name| em.addr(name, 0))?;

    let mut program = Program::new();
    program.text = em.text;
    program.symbols = layout.symbols.iter().map(|(&name, &a)| (name.to_owned(), a)).collect();
    program.tasks = tasks;
    if !data.is_empty() {
        program.data.push(DataSegment { base: DATA_BASE, bytes: data });
    }
    program.entry = entry;
    Ok(program)
}
