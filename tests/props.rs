//! Property-based tests over the core invariants:
//!
//! * ISA encode/decode round-trips for every instruction shape,
//! * register-mask set algebra,
//! * `li` constant reconstruction through the assembler,
//! * end-to-end: randomly generated task loops produce identical
//!   architectural results on the scalar baseline and on multiscalar
//!   processors of every size.

use ms_asm::{assemble, AsmMode};
use ms_isa::{
    decode, encode, AluImmOp, AluOp, BranchCond, BranchZCond, FpArithKind, FpCmpCond, Instr,
    MemWidth, Op, Prec, Reg, RegList, RegMask, ShiftOp, StopCond, TagBits,
};
use multiscalar::{Processor, ScalarProcessor, SimConfig};
use proptest::prelude::*;

fn any_reg() -> impl Strategy<Value = Reg> {
    (0usize..64).prop_map(|i| Reg::from_index(i).unwrap())
}

fn any_width() -> impl Strategy<Value = MemWidth> {
    prop_oneof![Just(MemWidth::B), Just(MemWidth::H), Just(MemWidth::W), Just(MemWidth::D)]
}

fn any_op() -> impl Strategy<Value = Op> {
    let r = any_reg;
    prop_oneof![
        (r(), r(), r()).prop_map(|(rd, rs, rt)| Op::Alu { op: AluOp::Addu, rd, rs, rt }),
        (r(), r(), r()).prop_map(|(rd, rs, rt)| Op::Alu { op: AluOp::Subu, rd, rs, rt }),
        (r(), r(), r()).prop_map(|(rd, rs, rt)| Op::Alu { op: AluOp::Xor, rd, rs, rt }),
        (r(), r(), r()).prop_map(|(rd, rs, rt)| Op::Alu { op: AluOp::Mul, rd, rs, rt }),
        (r(), r(), -2048i32..=2047).prop_map(|(rt, rs, imm)| Op::AluImm {
            op: AluImmOp::Addiu,
            rt,
            rs,
            imm
        }),
        (r(), r(), 0i32..=4095).prop_map(|(rt, rs, imm)| Op::AluImm {
            op: AluImmOp::Ori,
            rt,
            rs,
            imm
        }),
        (r(), r(), 0u8..=63).prop_map(|(rd, rt, sh)| Op::Shift { op: ShiftOp::Sll, rd, rt, sh }),
        (r(), -131072i32..=131071).prop_map(|(rt, imm)| Op::Lui { rt, imm }),
        (any_width(), any::<bool>(), r(), r(), -2048i32..=2047).prop_map(
            |(width, signed, rt, base, off)| Op::Load {
                width,
                // A doubleword load has no signedness; its canonical form
                // is `signed: true`.
                signed: signed || width == MemWidth::D,
                rt,
                base,
                off
            }
        ),
        (any_width(), r(), r(), -2048i32..=2047).prop_map(|(width, rt, base, off)| Op::Store {
            width,
            rt,
            base,
            off
        }),
        (r(), r(), -2048i32..=2047).prop_map(|(rs, rt, off)| Op::Branch {
            cond: BranchCond::Eq,
            rs,
            rt,
            off
        }),
        (r(), -2048i32..=2047).prop_map(|(rs, off)| Op::BranchZ {
            cond: BranchZCond::Gez,
            rs,
            off
        }),
        (0u32..(1 << 22)).prop_map(|w| Op::Jump { link: false, target: w * 4 }),
        (0u32..(1 << 22)).prop_map(|w| Op::Jump { link: true, target: w * 4 }),
        r().prop_map(|rs| Op::Jr { rs }),
        (r(), r(), r()).prop_map(|(fd, fs, ft)| Op::FpArith {
            kind: FpArithKind::Mul,
            prec: Prec::D,
            fd,
            fs,
            ft
        }),
        (r(), r(), r()).prop_map(|(rd, fs, ft)| Op::FpCmp {
            cond: FpCmpCond::Le,
            prec: Prec::S,
            rd,
            fs,
            ft
        }),
        proptest::collection::vec((1usize..64).prop_map(|i| Reg::from_index(i).unwrap()), 1..=3)
            .prop_map(|regs| Op::Release { regs: RegList::from_slice(&regs) }),
        Just(Op::Halt),
        Just(Op::Nop),
    ]
}

fn any_tags() -> impl Strategy<Value = TagBits> {
    (
        any::<bool>(),
        prop_oneof![
            Just(StopCond::None),
            Just(StopCond::Always),
            Just(StopCond::IfTaken),
            Just(StopCond::IfNotTaken)
        ],
    )
        .prop_map(|(forward, stop)| TagBits { forward, stop })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_decode_round_trips(op in any_op(), tags in any_tags()) {
        let instr = Instr { op, tags };
        let (word, tag) = encode(&instr).expect("in-range instruction encodes");
        let back = decode(word, tag).expect("decodes");
        prop_assert_eq!(back, instr);
    }

    #[test]
    fn regmask_set_algebra(a in any::<u64>(), b in any::<u64>(), i in 0usize..64) {
        let (ma, mb) = (RegMask::from_bits(a), RegMask::from_bits(b));
        let r = Reg::from_index(i).unwrap();
        prop_assert_eq!(ma.union(mb).bits(), a | b);
        prop_assert_eq!(ma.intersect(mb).bits(), a & b);
        prop_assert_eq!(ma.difference(mb).bits(), a & !b);
        prop_assert_eq!(ma.contains(r), a & (1 << i) != 0);
        prop_assert_eq!(ma.len(), a.count_ones());
        // Iteration visits exactly the members, in order.
        let collected: RegMask = ma.iter().collect();
        prop_assert_eq!(collected.bits(), a);
    }

    #[test]
    fn li_reconstructs_any_30_bit_constant(v in -(1i64 << 29)..(1i64 << 29)) {
        let src = format!("main:\n li $2, {v}\n sd $2, 0($3)\n halt\n");
        let p = assemble(&src, AsmMode::Scalar).expect("assembles");
        // Execute just the li semantics through the functional core.
        let mut val = 0u64;
        for instr in &p.text {
            match instr.op {
                Op::AluImm { op: AluImmOp::Addiu, rt, imm, .. } if rt == Reg::int(2) => {
                    val = imm as i64 as u64
                }
                Op::Lui { rt, imm } if rt == Reg::int(2) => val = ((imm as i64) << 12) as u64,
                Op::AluImm { op: AluImmOp::Ori, rt, imm, .. } if rt == Reg::int(2) => {
                    val |= imm as u32 as u64
                }
                _ => {}
            }
        }
        prop_assert_eq!(val, v as u64);
    }

    #[test]
    fn wide_release_disassembly_round_trips(
        regs in proptest::collection::vec(1usize..64, 1..=8),
        stop in prop_oneof![Just(""), Just("!s")],
    ) {
        // `release` with more than RegList::CAPACITY registers is chunked
        // into several instructions (tags on the last); the disassembler's
        // output must reassemble to the identical binary.
        let list =
            regs.iter().map(|&i| Reg::from_index(i).unwrap().to_string()).collect::<Vec<_>>();
        let create: RegMask = regs.iter().map(|&i| Reg::from_index(i).unwrap()).collect();
        let src = format!(
            ".text\nmain:\n.task targets=halt create={create}\nA:\n    release{stop} {}\n    halt\n",
            list.join(", ")
        );
        let p1 = assemble(&src, AsmMode::Multiscalar).expect("assembles");
        let regen = ms_asm::program_to_source(&p1);
        let p2 = assemble(&regen, AsmMode::Multiscalar)
            .unwrap_or_else(|e| panic!("regenerated source fails: {e}\n{regen}"));
        prop_assert_eq!(&p1.text, &p2.text, "text differs\n{}", regen);
        prop_assert_eq!(&p1.tasks, &p2.tasks);
    }
}

/// Generates a random loop body of register arithmetic, wraps it in the
/// canonical task structure, and checks scalar/multiscalar equivalence.
fn random_loop_program(ops: &[(u8, u8, u8, u8)], iters: u32) -> String {
    use std::fmt::Write;
    let mut body = String::new();
    for &(kind, d, a, b) in ops {
        let rd = 8 + (d % 6);
        let ra = 8 + (a % 6);
        let rb = 8 + (b % 6);
        let line = match kind % 5 {
            0 => format!("    addu ${rd}, ${ra}, ${rb}\n"),
            1 => format!("    subu ${rd}, ${ra}, ${rb}\n"),
            2 => format!("    xor  ${rd}, ${ra}, ${rb}\n"),
            3 => format!("    mul  ${rd}, ${ra}, ${rb}\n"),
            _ => format!("    addiu ${rd}, ${ra}, {}\n", (b as i32) - 128),
        };
        let _ = write!(body, "{line}");
    }
    format!(
        "
.data
out: .space 64
.text
main:
.task targets=LOOP create=$16,$20,$8,$9,$10,$11,$12,$13
INIT:
    li!f $16, {iters}
    li!f $20, 0
    li!f $8, 1
    li!f $9, 2
    li!f $10, 3
    li!f $11, 5
    li!f $12, 7
    li!f $13, 11
    b!s  LOOP
; The loop body writes a subset of $8-$13; the create mask is the
; conservative superset and end-of-task auto-release covers the rest.
.task targets=LOOP,FIN create=$20,$8,$9,$10,$11,$12,$13
LOOP:
    addiu!f $20, $20, 1
{body}
    bne!s $20, $16, LOOP
.task targets=halt create=
FIN:
    la $21, out
    sd $8, 0($21)
    sd $9, 8($21)
    sd $10, 16($21)
    sd $11, 24($21)
    sd $12, 32($21)
    sd $13, 40($21)
    halt
"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_task_loops_match_scalar_execution(
        ops in proptest::collection::vec(any::<(u8, u8, u8, u8)>(), 1..12),
        iters in 1u32..20,
        units in 2usize..=8,
    ) {
        let src = random_loop_program(&ops, iters);
        let sc = assemble(&src, AsmMode::Scalar).expect("scalar assembles");
        let ms = assemble(&src, AsmMode::Multiscalar).expect("ms assembles");
        let mut s = ScalarProcessor::new(sc, SimConfig::scalar()).expect("scalar");
        s.run().expect("scalar run");
        let mut p = Processor::new(ms.clone(), SimConfig::multiscalar(units)).expect("ms");
        p.run().expect("ms run");
        let out = ms.symbol("out").unwrap();
        for slot in 0..6u32 {
            prop_assert_eq!(
                p.memory().read_le(out + 8 * slot, 8),
                s.memory().read_le(out + 8 * slot, 8),
                "slot {} differs (units={})", slot, units
            );
        }
    }
}
