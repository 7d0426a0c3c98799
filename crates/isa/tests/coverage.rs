//! Exhaustive coverage: every operation variant must display, encode and
//! decode consistently, and report sensible classes and operands.

use ms_isa::{
    decode, encode, AluImmOp, AluOp, BranchCond, BranchZCond, ExecClass, FpArithKind, FpCmpCond,
    FuClass, Instr, MemWidth, Op, Prec, Reg, RegList, ShiftOp, StopCond, TagBits,
};

/// One instance of every operation variant.
fn all_ops() -> Vec<Op> {
    let r = Reg::int(5);
    let s = Reg::int(6);
    let t = Reg::int(7);
    let f = Reg::fp(2);
    let g = Reg::fp(3);
    let h = Reg::fp(4);
    let mut ops = vec![
        Op::Alu { op: AluOp::Addu, rd: r, rs: s, rt: t },
        Op::Alu { op: AluOp::Subu, rd: r, rs: s, rt: t },
        Op::Alu { op: AluOp::And, rd: r, rs: s, rt: t },
        Op::Alu { op: AluOp::Or, rd: r, rs: s, rt: t },
        Op::Alu { op: AluOp::Xor, rd: r, rs: s, rt: t },
        Op::Alu { op: AluOp::Nor, rd: r, rs: s, rt: t },
        Op::ShiftV { op: ShiftOp::Sll, rd: r, rt: s, rs: t },
        Op::ShiftV { op: ShiftOp::Srl, rd: r, rt: s, rs: t },
        Op::ShiftV { op: ShiftOp::Sra, rd: r, rt: s, rs: t },
        Op::Alu { op: AluOp::Slt, rd: r, rs: s, rt: t },
        Op::Alu { op: AluOp::Sltu, rd: r, rs: s, rt: t },
        Op::Alu { op: AluOp::Mul, rd: r, rs: s, rt: t },
        Op::Alu { op: AluOp::Div, rd: r, rs: s, rt: t },
        Op::Alu { op: AluOp::Rem, rd: r, rs: s, rt: t },
        Op::AluImm { op: AluImmOp::Addiu, rt: r, rs: s, imm: -7 },
        Op::AluImm { op: AluImmOp::Andi, rt: r, rs: s, imm: 7 },
        Op::AluImm { op: AluImmOp::Ori, rt: r, rs: s, imm: 7 },
        Op::AluImm { op: AluImmOp::Xori, rt: r, rs: s, imm: 7 },
        Op::AluImm { op: AluImmOp::Slti, rt: r, rs: s, imm: -7 },
        Op::AluImm { op: AluImmOp::Sltiu, rt: r, rs: s, imm: 7 },
        Op::Shift { op: ShiftOp::Sll, rd: r, rt: s, sh: 3 },
        Op::Shift { op: ShiftOp::Srl, rd: r, rt: s, sh: 3 },
        Op::Shift { op: ShiftOp::Sra, rd: r, rt: s, sh: 3 },
        Op::Lui { rt: r, imm: -100 },
        Op::Branch { cond: BranchCond::Eq, rs: r, rt: s, off: -4 },
        Op::Branch { cond: BranchCond::Ne, rs: r, rt: s, off: 4 },
        Op::BranchZ { cond: BranchZCond::Lez, rs: r, off: 1 },
        Op::BranchZ { cond: BranchZCond::Gtz, rs: r, off: 1 },
        Op::BranchZ { cond: BranchZCond::Ltz, rs: r, off: 1 },
        Op::BranchZ { cond: BranchZCond::Gez, rs: r, off: 1 },
        Op::Jump { link: false, target: 0x1000 },
        Op::Jump { link: true, target: 0x1000 },
        Op::Jr { rs: Reg::RA },
        Op::Jalr { rd: Reg::RA, rs: r },
        Op::FpMov { fd: f, fs: g },
        Op::CvtDW { fd: f, rs: r },
        Op::CvtWD { rd: r, fs: f },
        Op::Dmtc1 { fs: f, rt: r },
        Op::Dmfc1 { rt: r, fs: f },
        Op::Release { regs: RegList::from_slice(&[r, s]) },
        Op::Halt,
        Op::Nop,
    ];
    for width in [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D] {
        for signed in [true, false] {
            if width == MemWidth::D && !signed {
                continue; // ld has no unsigned form
            }
            ops.push(Op::Load { width, signed, rt: r, base: s, off: 4 });
        }
        ops.push(Op::Store { width, rt: r, base: s, off: -4 });
    }
    for kind in [FpArithKind::Add, FpArithKind::Sub, FpArithKind::Mul, FpArithKind::Div] {
        for prec in [Prec::S, Prec::D] {
            ops.push(Op::FpArith { kind, prec, fd: f, fs: g, ft: h });
        }
    }
    for cond in [FpCmpCond::Eq, FpCmpCond::Lt, FpCmpCond::Le] {
        for prec in [Prec::S, Prec::D] {
            ops.push(Op::FpCmp { cond, prec, rd: r, fs: f, ft: g });
        }
    }
    for prec in [Prec::S, Prec::D] {
        ops.push(Op::FpNeg { prec, fd: f, fs: g });
        ops.push(Op::FpAbs { prec, fd: f, fs: g });
    }
    ops
}

#[test]
fn every_variant_encodes_and_round_trips() {
    for op in all_ops() {
        let instr = Instr::new(op);
        let (word, tag) = encode(&instr).unwrap_or_else(|e| panic!("{instr} fails to encode: {e}"));
        let back = decode(word, tag).unwrap_or_else(|e| panic!("{instr}: {e}"));
        assert_eq!(back, instr, "round trip for {instr}");
    }
}

#[test]
fn every_variant_displays_nonempty_and_classifies() {
    for op in all_ops() {
        let shown = Instr::new(op).to_string();
        assert!(!shown.is_empty());
        assert!(!op.mnemonic().is_empty());
        // Classes are callable for every variant without panicking.
        let _ = op.fu_class();
        let _ = op.exec_class();
        let _ = op.def();
        let _ = op.uses();
    }
}

#[test]
fn defs_and_uses_are_in_range() {
    for op in all_ops() {
        for u in op.uses().iter() {
            assert!(u.index() < 64);
        }
        if let Some(d) = op.def() {
            assert!(d.index() < 64);
        }
    }
}

#[test]
fn control_classification_is_consistent() {
    for op in all_ops() {
        if op.is_branch() {
            assert!(op.is_control());
            assert!(!op.is_jump());
            assert_eq!(op.fu_class(), FuClass::Branch);
            assert_eq!(op.exec_class(), ExecClass::Branch);
        }
        if op.is_jump() {
            assert!(op.is_control());
            assert_eq!(op.fu_class(), FuClass::Branch);
        }
        if op.is_load() || op.is_store() {
            assert_eq!(op.fu_class(), FuClass::Mem);
        }
    }
}

/// Tag bits for the `i`th entry of [`all_ops`]: cycles through every
/// forward/stop combination, so the pinned rows pin the tag nibble too.
fn tags_for(i: usize) -> TagBits {
    let stop = [StopCond::None, StopCond::Always, StopCond::IfTaken, StopCond::IfNotTaken];
    TagBits { forward: i % 2 == 1, stop: stop[(i / 2) % 4] }
}

/// One opcode-table row: the encoded word and tag nibble in hex, the
/// display text, both classes, and the `def`/`uses` lists that build
/// `InstrMeta`'s hazard masks.
fn row(instr: &Instr) -> String {
    let (word, tag) = encode(instr).unwrap_or_else(|e| panic!("{instr} fails to encode: {e}"));
    let op = instr.op;
    let def = op.def().map_or("-".to_owned(), |r| r.to_string());
    let uses: Vec<String> = op.uses().iter().map(|r| r.to_string()).collect();
    let uses = if uses.is_empty() { "-".to_owned() } else { uses.join(" ") };
    format!(
        "{word:08x} {tag:x} | {instr} | {:?} {:?} | def {def} | uses {uses}",
        op.fu_class(),
        op.exec_class()
    )
}

/// The opcode table as [`row`] renders it for [`all_ops`], one row per
/// opcode byte. A refactor of the instruction set must leave every row
/// unchanged: the round trips above cannot see an opcode renumbered or
/// renamed on both sides at once.
const PINNED: &str = "\
011461c0 0 | addu $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $6 $7
021461c0 4 | subu!f $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $6 $7
031461c0 1 | and!s $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $6 $7
041461c0 5 | or!f!s $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $6 $7
051461c0 2 | xor!st $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $6 $7
061461c0 6 | nor!f!st $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $6 $7
071461c0 3 | sllv!sn $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $7 $6
081461c0 7 | srlv!f!sn $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $7 $6
091461c0 0 | srav $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $7 $6
0a1461c0 4 | slt!f $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $6 $7
0b1461c0 1 | sltu!s $5, $6, $7 | SimpleInt IntAlu | def $5 | uses $6 $7
0c1461c0 5 | mul!f!s $5, $6, $7 | ComplexInt IntMul | def $5 | uses $6 $7
0d1461c0 2 | div!st $5, $6, $7 | ComplexInt IntDiv | def $5 | uses $6 $7
0e1461c0 6 | rem!f!st $5, $6, $7 | ComplexInt IntDiv | def $5 | uses $6 $7
0f146ff9 3 | addiu!sn $5, $6, -7 | SimpleInt IntAlu | def $5 | uses $6
10146007 7 | andi!f!sn $5, $6, 7 | SimpleInt IntAlu | def $5 | uses $6
11146007 0 | ori $5, $6, 7 | SimpleInt IntAlu | def $5 | uses $6
12146007 4 | xori!f $5, $6, 7 | SimpleInt IntAlu | def $5 | uses $6
13146ff9 1 | slti!s $5, $6, -7 | SimpleInt IntAlu | def $5 | uses $6
14146007 5 | sltiu!f!s $5, $6, 7 | SimpleInt IntAlu | def $5 | uses $6
151460c0 2 | sll!st $5, $6, 3 | SimpleInt IntAlu | def $5 | uses $6
161460c0 6 | srl!f!st $5, $6, 3 | SimpleInt IntAlu | def $5 | uses $6
171460c0 3 | sra!sn $5, $6, 3 | SimpleInt IntAlu | def $5 | uses $6
1817ff9c 7 | lui!f!sn $5, -100 | SimpleInt IntAlu | def $5 | uses -
24146ffc 0 | beq $5, $6, -4 | Branch Branch | def - | uses $5 $6
25146004 4 | bne!f $5, $6, +4 | Branch Branch | def - | uses $5 $6
26140001 1 | blez!s $5, +1 | Branch Branch | def - | uses $5
27140001 5 | bgtz!f!s $5, +1 | Branch Branch | def - | uses $5
28140001 2 | bltz!st $5, +1 | Branch Branch | def - | uses $5
29140001 6 | bgez!f!st $5, +1 | Branch Branch | def - | uses $5
2a000400 3 | j!sn 0x1000 | Branch Branch | def - | uses -
2b000400 7 | jal!f!sn 0x1000 | Branch Branch | def $31 | uses -
2c01f000 0 | jr $31 | Branch Branch | def - | uses $31
2d7c5000 4 | jalr!f $31, $5 | Branch Branch | def $31 | uses $5
408a3000 1 | mov.d!s $f2, $f3 | Fp FpAddD | def $f2 | uses $f3
41885000 5 | cvt.d.w!f!s $f2, $5 | Fp FpAddD | def $f2 | uses $5
42162000 2 | cvt.w.d!st $5, $f2 | Fp FpAddD | def $5 | uses $f2
43885000 6 | dmtc1!f!st $f2, $5 | SimpleInt IntAlu | def $f2 | uses $5
44162000 3 | dmfc1!sn $5, $f2 | SimpleInt IntAlu | def $5 | uses $f2
45146000 7 | release!f!sn $5, $6 | SimpleInt IntAlu | def - | uses $5 $6
46000000 0 | halt | SimpleInt IntAlu | def - | uses -
00000000 4 | nop!f | SimpleInt IntAlu | def - | uses -
19146004 1 | lb!s $5, 4($6) | Mem Load | def $5 | uses $6
1a146004 5 | lbu!f!s $5, 4($6) | Mem Load | def $5 | uses $6
20146ffc 2 | sb!st $5, -4($6) | Mem Store | def - | uses $5 $6
1b146004 6 | lh!f!st $5, 4($6) | Mem Load | def $5 | uses $6
1c146004 3 | lhu!sn $5, 4($6) | Mem Load | def $5 | uses $6
21146ffc 7 | sh!f!sn $5, -4($6) | Mem Store | def - | uses $5 $6
1d146004 0 | lw $5, 4($6) | Mem Load | def $5 | uses $6
1e146004 4 | lwu!f $5, 4($6) | Mem Load | def $5 | uses $6
22146ffc 1 | sw!s $5, -4($6) | Mem Store | def - | uses $5 $6
1f146004 5 | ld!f!s $5, 4($6) | Mem Load | def $5 | uses $6
23146ffc 2 | sd!st $5, -4($6) | Mem Store | def - | uses $5 $6
2e8a3900 6 | add.s!f!st $f2, $f3, $f4 | Fp FpAddS | def $f2 | uses $f3 $f4
328a3900 3 | add.d!sn $f2, $f3, $f4 | Fp FpAddD | def $f2 | uses $f3 $f4
2f8a3900 7 | sub.s!f!sn $f2, $f3, $f4 | Fp FpAddS | def $f2 | uses $f3 $f4
338a3900 0 | sub.d $f2, $f3, $f4 | Fp FpAddD | def $f2 | uses $f3 $f4
308a3900 4 | mul.s!f $f2, $f3, $f4 | Fp FpMulS | def $f2 | uses $f3 $f4
348a3900 1 | mul.d!s $f2, $f3, $f4 | Fp FpMulD | def $f2 | uses $f3 $f4
318a3900 5 | div.s!f!s $f2, $f3, $f4 | Fp FpDivS | def $f2 | uses $f3 $f4
358a3900 2 | div.d!st $f2, $f3, $f4 | Fp FpDivD | def $f2 | uses $f3 $f4
361628c0 6 | c.eq.s!f!st $5, $f2, $f3 | Fp FpAddS | def $5 | uses $f2 $f3
391628c0 3 | c.eq.d!sn $5, $f2, $f3 | Fp FpAddD | def $5 | uses $f2 $f3
371628c0 7 | c.lt.s!f!sn $5, $f2, $f3 | Fp FpAddS | def $5 | uses $f2 $f3
3a1628c0 0 | c.lt.d $5, $f2, $f3 | Fp FpAddD | def $5 | uses $f2 $f3
381628c0 4 | c.le.s!f $5, $f2, $f3 | Fp FpAddS | def $5 | uses $f2 $f3
3b1628c0 1 | c.le.d!s $5, $f2, $f3 | Fp FpAddD | def $5 | uses $f2 $f3
3c8a3000 5 | neg.s!f!s $f2, $f3 | Fp FpAddS | def $f2 | uses $f3
3e8a3000 2 | abs.s!st $f2, $f3 | Fp FpAddS | def $f2 | uses $f3
3d8a3000 6 | neg.d!f!st $f2, $f3 | Fp FpAddD | def $f2 | uses $f3
3f8a3000 3 | abs.d!sn $f2, $f3 | Fp FpAddD | def $f2 | uses $f3
";

#[test]
fn every_opcode_matches_its_pinned_row() {
    let pinned: Vec<&str> = PINNED.lines().collect();
    let ops = all_ops();
    assert_eq!(ops.len(), pinned.len(), "one pinned row per operation");
    for (i, (op, want)) in ops.into_iter().zip(&pinned).enumerate() {
        assert_eq!(row(&Instr { op, tags: tags_for(i) }), *want, "encoding side, row {i}");
    }
    // Decoding side: each pinned word and nibble decodes to an instruction
    // that renders the same row, whatever constructors built `all_ops`.
    let mut bytes = Vec::new();
    for want in &pinned {
        let word = u32::from_str_radix(&want[..8], 16).unwrap();
        let tag = u8::from_str_radix(&want[9..10], 16).unwrap();
        let instr = decode(word, tag).unwrap_or_else(|e| panic!("{want}: {e}"));
        assert_eq!(row(&instr), *want, "decoding side");
        bytes.push((word >> 24) as u8);
    }
    bytes.sort_unstable();
    assert_eq!(bytes, (0..=70).collect::<Vec<u8>>(), "every opcode byte exactly once");
}

#[test]
fn instr_stays_sixteen_bytes() {
    assert!(std::mem::size_of::<Instr>() <= 16, "{}", std::mem::size_of::<Instr>());
}
