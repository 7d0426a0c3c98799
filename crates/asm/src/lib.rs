//! # ms-asm — assembler for multiscalar programs
//!
//! A two-pass assembler producing [`ms_isa::Program`] images for the
//! multiscalar and scalar simulators. It plays the role of the paper's
//! "multiscalar compiler" back end: the human (or a workload generator)
//! writes one annotated source, and the assembler produces *both* the
//! scalar baseline binary and the multiscalar binary from it — just as the
//! paper derives an annotated binary and compares its dynamic instruction
//! count against the plain one (Table 2).
//!
//! ## Source syntax
//!
//! ```text
//! .data
//! buf:     .space 64
//! msg:     .asciiz "hi"
//! ptrs:    .word node0, node1     ; label references in data
//! pi:      .double 3.14159
//!
//! .text
//! ; A task: one iteration of the outer loop (paper Figure 4).
//! .task targets=OUTER,OUTERFALLOUT create=$4,$8,$17,$20,$23
//! OUTER:
//!     addiu!f $20, $20, 16        ; !f = forward bit
//!     release $8, $17             ; release unproduced creates
//!     bne!s   $20, $16, OUTER     ; !s = stop always
//! OUTERFALLOUT:
//!     halt
//!
//! .ms_begin
//!     nop    ; lines assembled only into the multiscalar binary
//! .ms_end
//! ```
//!
//! Tag suffixes: `!f` (forward), `!s` (stop always), `!st` (stop if
//! taken), `!sn` (stop if not taken). Comments: `;`, `#`, or `//`.
//! Pseudo-instructions: `li`, `la`, `move`, `not`, `neg`, `b`, `beqz`,
//! `bnez`, `blt`/`bge`/`bgt`/`ble` (+`u` variants, via `$at`), and
//! `release` with any number of registers. Aliases: `add`, `sub`, `mult`,
//! `addi`, `l.d`/`ldc1`, `s.d`/`sdc1`, `mov.s`. Every other mnemonic is
//! looked up in `ms-isa`'s opcode tables ([`ms_isa::Op::from_mnemonic`]).
//!
//! A branch target is a label or a numeric offset in instructions from
//! the next instruction; either must fit the signed 12-bit offset field.
//! A jump target must be word-aligned and below 2^26. An operand or a
//! section that does not fit its field or the 32-bit address space is an
//! `OutOfRange` error.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod assemble;
mod disasm;
mod error;
mod parser;

pub use assemble::{assemble, AsmMode};
pub use disasm::{
    annotate_source, program_to_source, write_data_line, Annotations, InsertOp, TaskAnn,
};
pub use error::{AsmError, AsmErrorKind};

#[cfg(test)]
mod tests {
    use super::*;
    use ms_isa::{AluImmOp, AluOp, BranchCond, Op, Reg, StopCond, TargetKind, TEXT_BASE};

    const FIG4: &str = r#"
.data
buffer:   .space 256
listhd:   .word 0

.text
main:
.task targets=OUTER,OUTERFALLOUT create=$4,$8,$17,$20,$23
OUTER:
    addiu!f $20, $20, 16
    lw!f    $23, -16($20)
    la      $17, listhd
    lw      $17, 0($17)
    beq     $17, $0, SKIPINNER
INNER:
    lw      $8, 0($17)
    bne     $8, $23, SKIPCALL
    move    $4, $17
    jal     process
    j       INNERFALLOUT
SKIPCALL:
    lw      $17, 8($17)
    bne     $17, $0, INNER
INNERFALLOUT:
    release $8, $17
    bne     $17, $0, SKIPINNER
    move    $4, $23
    jal     addlist
SKIPINNER:
    release $4
    bne!s   $20, $16, OUTER
OUTERFALLOUT:
    halt
process:
    jr      $31
addlist:
    jr      $31
"#;

    #[test]
    fn figure4_assembles_in_both_modes() {
        let ms = assemble(FIG4, AsmMode::Multiscalar).expect("multiscalar");
        let sc = assemble(FIG4, AsmMode::Scalar).expect("scalar");
        // The multiscalar binary carries release instructions the scalar
        // one lacks (Table 2's instruction-count increase).
        assert_eq!(ms.text.len(), sc.text.len() + 2);
        assert_eq!(ms.tasks.len(), 1);
        assert!(sc.tasks.is_empty());

        let outer = ms.symbol("OUTER").unwrap();
        let desc = ms.task_at(outer).unwrap();
        assert_eq!(desc.create.to_string(), "$4,$8,$17,$20,$23");
        assert_eq!(desc.targets.len(), 2);
        assert_eq!(desc.targets[0].kind, TargetKind::Addr(outer));
        assert_eq!(desc.targets[1].kind, TargetKind::Addr(ms.symbol("OUTERFALLOUT").unwrap()));

        // Tag bits present only in the multiscalar binary.
        let first = ms.instr_at(outer).unwrap();
        assert!(first.tags.forward);
        let first_sc = sc.instr_at(sc.symbol("OUTER").unwrap()).unwrap();
        assert!(!first_sc.tags.forward);
        // The closing branch stops the task.
        let stop_pc = ms.symbol("OUTERFALLOUT").unwrap() - 4;
        assert_eq!(ms.instr_at(stop_pc).unwrap().tags.stop, StopCond::Always);
    }

    #[test]
    fn out_of_range_shift_amounts_are_rejected() {
        for mnem in ["sll", "srl", "sra"] {
            for sh in [64i64, 65, 1000, -1] {
                let src = format!("main:\n {mnem} $2, $3, {sh}\n halt\n");
                let e = assemble(&src, AsmMode::Scalar)
                    .expect_err("out-of-range shift must not assemble");
                assert!(matches!(e.kind, crate::AsmErrorKind::BadOperands(_)), "{mnem} {sh}: {e}");
            }
            // The boundary value still assembles.
            let src = format!("main:\n {mnem} $2, $3, 63\n halt\n");
            assemble(&src, AsmMode::Scalar).expect("shift by 63 is legal");
        }
    }

    #[test]
    fn release_of_zero_register_is_rejected() {
        for src in ["main:\n release $0\n halt\n", "main:\n release $5, $0, $6\n halt\n"] {
            let e =
                assemble(src, AsmMode::Multiscalar).expect_err("release of $0 must not assemble");
            assert!(matches!(e.kind, crate::AsmErrorKind::BadOperands(_)), "{e}");
        }
    }

    #[test]
    fn layout_overflow_is_an_error_not_a_panic() {
        // `.space` past the end of the 32-bit address space (the data
        // section starts at 0x100000), and data items and strings that
        // each cross the data image's bound at their own line.
        let room = ms_isa::STACK_TOP - ms_isa::DATA_BASE - 4; // 4 bytes short of the bound
        for (src, line) in [
            (".data\nx: .space 4294967295\ny: .word 1\n".to_owned(), 2),
            (format!(".data\nx: .space {room}\ny: .word 1, 2\n"), 3),
            (format!(".data\nx: .space {room}\ny: .asciiz \"four\"\n"), 3),
            (".data\nx: .space -1\n".to_owned(), 2),
        ] {
            let e = assemble(&src, AsmMode::Scalar).expect_err(&src);
            assert!(matches!(e.kind, AsmErrorKind::OutOfRange(_)), "{src}: {e}");
            assert_eq!(e.line, line, "{src}: {e}");
        }
    }

    #[test]
    fn data_images_stop_below_the_stack() {
        // The image may grow up to the stack top and not one byte past it,
        // however the bytes are asked for: one `.space`, or many
        // alignments that each add almost 64 KiB.
        let room = ms_isa::STACK_TOP - ms_isa::DATA_BASE;
        let p = assemble(&format!(".data\nx: .space {room}\n"), AsmMode::Scalar).unwrap();
        assert_eq!(p.data[0].bytes.len(), room as usize);
        let aligns = ".data\n".to_owned() + &".byte 1\n.align 16\n".repeat(200);
        // Each `.byte`/`.align` pair adds 64 KiB; the `.byte` after the
        // pair that fills the room is the first byte past it.
        let past_aligns = 2 + 2 * (room as usize / 65536);
        for (src, line) in [
            (format!(".data\nx: .space {}\n", room + 1), 2),
            (".data\nx: .space 2147483647\n".to_owned(), 2),
            (aligns, past_aligns),
        ] {
            let e = assemble(&src, AsmMode::Scalar).expect_err(&src[..40.min(src.len())]);
            assert!(matches!(e.kind, AsmErrorKind::OutOfRange(_)), "{e}");
            assert_eq!(e.line, line, "{e}");
        }
    }

    #[test]
    fn text_stops_below_the_data_image() {
        // `.align` in `.text` pads with `nop`s, so alignments alone can
        // fill the text section: up to the data image and not one byte
        // past it. Each `nop`/`.align 16` pair ends on a 64 KiB boundary.
        let pairs = (ms_isa::DATA_BASE / 65536) as usize;
        let full = "nop\n.align 16\n".repeat(pairs) + "top:\n";
        let p = assemble(&full, AsmMode::Scalar).unwrap();
        assert_eq!(p.symbol("top"), Some(ms_isa::DATA_BASE));
        assert_eq!(p.text.len() as u32, (ms_isa::DATA_BASE - TEXT_BASE) / 4);
        // The `nop` after the pair that fills the room is the first byte
        // past it.
        let src = "nop\n.align 16\n".repeat(8 * pairs);
        let e = assemble(&src, AsmMode::Scalar).expect_err("text past the data image");
        assert!(matches!(e.kind, AsmErrorKind::OutOfRange(_)), "{e}");
        assert_eq!(e.line, 2 * pairs + 1, "{e}");
    }

    #[test]
    fn align_in_text_pads_with_nops_up_to_the_label() {
        let p = assemble("main: nop\n.align 4\nb: halt\n", AsmMode::Scalar).unwrap();
        let b = p.symbol("b").unwrap();
        assert_eq!(b, TEXT_BASE + 16);
        assert_eq!(p.instr_at(b).unwrap().op, Op::Halt);
        assert_eq!(p.text.len(), 5);
        assert!(p.text[..4].iter().all(|i| i.op == Op::Nop));
    }

    #[test]
    fn numeric_branch_offsets_and_jump_targets_are_range_checked() {
        for bad in [
            "beq $1, $2, 5000",
            "bne $1, $2, -2049",
            "bgez $1, 2048",
            "j -3",
            "jal 2",
            "j 0x4000000",
            "j main+2",
        ] {
            let e = assemble(&format!("main:\n {bad}\n halt\n"), AsmMode::Scalar).expect_err(bad);
            assert!(matches!(e.kind, AsmErrorKind::OutOfRange(_)), "{bad}: {e}");
        }
        // The field boundaries themselves assemble and encode.
        for ok in ["beq $1, $2, 2047", "bltz $1, -2048", "j 0x3fffffc", "jal 0"] {
            let p = assemble(&format!("main:\n {ok}\n halt\n"), AsmMode::Scalar).expect(ok);
            ms_isa::encode(&p.text[0]).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn entry_defaults_to_main() {
        let p = assemble("start: nop\nmain: halt\n", AsmMode::Scalar).unwrap();
        assert_eq!(p.entry, p.symbol("main").unwrap());
        let q = assemble("start: nop\n halt\n", AsmMode::Scalar).unwrap();
        assert_eq!(q.entry, TEXT_BASE);
        let r = assemble(".entry start\nstart: nop\nmain: halt\n", AsmMode::Scalar).unwrap();
        assert_eq!(r.entry, r.symbol("start").unwrap());
    }

    #[test]
    fn li_expansion_sizes() {
        let p = assemble("main: li $2, 5\nli $3, 100000\nhalt\n", AsmMode::Scalar).unwrap();
        assert_eq!(p.text.len(), 4); // 1 + 2 + 1
        assert!(matches!(p.text[0].op, Op::AluImm { op: AluImmOp::Addiu, imm: 5, .. }));
        assert!(matches!(p.text[1].op, Op::Lui { .. }));
        assert!(matches!(p.text[2].op, Op::AluImm { op: AluImmOp::Ori, .. }));
    }

    #[test]
    fn li_reconstructs_value_semantics() {
        // lui(hi) then ori(lo) must reconstruct the exact constant under
        // the ISA semantics rt = (hi << 12) | lo.
        for v in [100000i64, -100000, 4096, -4097, 0x3fffff, -2049, 2048] {
            let p = assemble(&format!("main: li $2, {v}\n halt\n"), AsmMode::Scalar).unwrap();
            let (hi, lo) = match (p.text[0].op, p.text[1].op) {
                (Op::Lui { imm: hi, .. }, Op::AluImm { op: AluImmOp::Ori, imm: lo, .. }) => {
                    (hi, lo)
                }
                other => panic!("unexpected {other:?}"),
            };
            let got = ((hi as i64) << 12) | (lo as i64);
            assert_eq!(got, v, "li {v}");
        }
    }

    #[test]
    fn branch_offsets_resolve_both_directions() {
        let src = "main:\nL1: addiu $2, $2, 1\n beq $2, $3, L2\n b L1\nL2: halt\n";
        let p = assemble(src, AsmMode::Scalar).unwrap();
        match p.text[1].op {
            Op::Branch { cond: BranchCond::Eq, off, .. } => assert_eq!(off, 1),
            ref other => panic!("unexpected {other:?}"),
        }
        match p.text[2].op {
            Op::Branch { cond: BranchCond::Eq, off, .. } => assert_eq!(off, -3),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ms_blocks_select_lines_by_mode() {
        let src = "main:\n.ms_begin\n addiu $2, $2, 1\n.ms_end\n.scalar_begin\n addiu $3, $3, 1\n.scalar_end\n halt\n";
        let ms = assemble(src, AsmMode::Multiscalar).unwrap();
        let sc = assemble(src, AsmMode::Scalar).unwrap();
        assert_eq!(ms.text.len(), 2);
        assert_eq!(sc.text.len(), 2);
        assert!(matches!(ms.text[0].op, Op::AluImm { rt, .. } if rt == Reg::int(2)));
        assert!(matches!(sc.text[0].op, Op::AluImm { rt, .. } if rt == Reg::int(3)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("main:\n bogus $1\n", AsmMode::Scalar).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, AsmErrorKind::UnknownMnemonic(_)));

        let e = assemble("main:\n lw $1, nowhere($2)\n", AsmMode::Scalar).unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::UndefinedSymbol(_)));

        let e = assemble("a: nop\na: nop\n", AsmMode::Scalar).unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::DuplicateSymbol(_)));

        let e = assemble("main: addiu $1, $2, 99999\n", AsmMode::Scalar).unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::OutOfRange(_)));
    }

    #[test]
    fn data_labels_resolve_in_words() {
        let src = "\n.data\nn0: .word 7, n1\nn1: .word 9, 0\n.text\nmain: halt\n";
        let p = assemble(src, AsmMode::Scalar).unwrap();
        let n1 = p.symbol("n1").unwrap();
        let seg = &p.data[0];
        let w = u32::from_le_bytes(seg.bytes[4..8].try_into().unwrap());
        assert_eq!(w, n1);
    }

    #[test]
    fn release_chunks_into_triples() {
        let p =
            assemble("main: release $4, $5, $6, $7, $8\n halt\n", AsmMode::Multiscalar).unwrap();
        assert_eq!(p.text.len(), 3); // 2 release instrs + halt
        match p.text[0].op {
            Op::Release { regs } => assert_eq!(regs.len(), 3),
            ref other => panic!("unexpected {other:?}"),
        }
        match p.text[1].op {
            Op::Release { regs } => assert_eq!(regs.len(), 2),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cmp_branch_pseudos_use_at() {
        let p = assemble("main:\nL: blt $4, $5, L\n halt\n", AsmMode::Scalar).unwrap();
        assert_eq!(p.text.len(), 3);
        assert!(matches!(p.text[0].op, Op::Alu { op: AluOp::Slt, rd, .. } if rd == Reg::int(1)));
        assert!(matches!(p.text[1].op, Op::Branch { cond: BranchCond::Ne, off: -2, .. }));
    }

    #[test]
    fn double_data_round_trips() {
        let src = ".data\npi: .double 3.5\n.text\nmain: halt\n";
        let p = assemble(src, AsmMode::Scalar).unwrap();
        let seg = &p.data[0];
        let bits = u64::from_le_bytes(seg.bytes[0..8].try_into().unwrap());
        assert_eq!(f64::from_bits(bits), 3.5);
    }

    #[test]
    fn unbalanced_blocks_rejected() {
        assert!(assemble(".ms_begin\nmain: halt\n", AsmMode::Scalar).is_err());
        assert!(assemble(".ms_end\nmain: halt\n", AsmMode::Scalar).is_err());
        assert!(assemble(
            ".ms_begin\n.scalar_begin\n.scalar_end\n.ms_end\nmain: halt\n",
            AsmMode::Scalar
        )
        .is_err());
    }

    #[test]
    fn task_without_code_is_an_error() {
        let e = assemble(".task targets=halt\n", AsmMode::Multiscalar).unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::Directive(_)));
    }
}
