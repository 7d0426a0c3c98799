//! Source regeneration (disassembly to reassemblable text).
//!
//! The paper's software-migration story (Section 2.2): "The job of
//! migrating a multiscalar program from one generation to another
//! generation of hardware might be as simple as taking an old binary,
//! determining the CFG (a routine task), deciding upon a task structure,
//! and producing a new binary." [`program_to_source`] implements the
//! mechanical part: it reconstructs annotated assembly from a
//! [`Program`] image — labels, task descriptors, tag suffixes, data —
//! such that reassembling yields a bit-identical binary. Retargeting is
//! then a matter of editing the emitted `.task` directives.

use ms_isa::{Op, Program, Reg, RegList, RegMask, StopCond, TagBits, TargetKind, DATA_BASE};
use std::collections::BTreeMap;
use std::fmt::Write;

/// One task annotation for [`annotate_source`]: the create mask and the
/// descriptor targets (labels are synthesized from the addresses).
#[derive(Clone, Debug, Default)]
pub struct TaskAnn {
    /// Registers the task may produce.
    pub create: RegMask,
    /// Descriptor targets in order.
    pub targets: Vec<TargetKind>,
}

/// An instruction spliced in *before* an existing text address. Inserted
/// lines use labels for their control operands, so the emitted source
/// reassembles correctly even though insertion shifts every later
/// address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertOp {
    /// `release $a, $b, …`.
    Release(Vec<Reg>),
    /// `j <label>`, optionally stop-tagged (`j!s`) — the shape a
    /// partitioner needs to end a task whose last real instruction
    /// cannot carry the stop bit itself (e.g. a `jal` call).
    Jump {
        /// Jump target address (labelled in the output).
        target: u32,
        /// Whether the jump carries a `!s` stop tag.
        stop: bool,
    },
}

/// A full annotation overlay for [`annotate_source`]: task descriptors,
/// per-instruction tag bits, and inserted instructions, all keyed by the
/// *original* program's addresses.
#[derive(Clone, Debug, Default)]
pub struct Annotations {
    /// Task descriptors by entry address. These *replace* `prog.tasks`
    /// in the emitted source.
    pub tasks: BTreeMap<u32, TaskAnn>,
    /// Tag-bit overrides by address; instructions without an entry keep
    /// their own tags (none, for a scalar-mode program).
    pub tags: BTreeMap<u32, TagBits>,
    /// Instructions to emit immediately before the given address (an
    /// address equal to the text end appends at the end). Inserted
    /// instructions precede the address's `.task` directive and label:
    /// they belong to the *preceding* task.
    pub insert_before: BTreeMap<u32, Vec<InsertOp>>,
}

impl Annotations {
    /// The identity overlay for `prog`: its own task descriptors, no tag
    /// overrides, no insertions. [`annotate_source`] with this overlay
    /// is exactly [`program_to_source`].
    pub fn from_program(prog: &Program) -> Annotations {
        let tasks = prog
            .tasks
            .iter()
            .map(|(&e, d)| {
                let targets = d.targets.iter().map(|t| t.kind).collect();
                (e, TaskAnn { create: d.create, targets })
            })
            .collect();
        Annotations { tasks, ..Annotations::default() }
    }
}

/// Appends one data line, such as `  .byte 1, 2, 3`, to `out`: the
/// `directive` and `items` in decimal, comma-separated. This is the one
/// form data is written in, by [`annotate_source`] and the workload
/// generators.
pub fn write_data_line<T: Copy + Into<u64>>(out: &mut String, directive: &str, items: &[T]) {
    out.push_str("  ");
    out.push_str(directive);
    out.push(' ');
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let (mut v, mut digits, mut at) = (item.into(), [0u8; 20], 20);
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.extend(digits[at..].iter().map(|&d| char::from(d)));
    }
    out.push('\n');
}

/// Computes a label name for every address that needs one: task entries,
/// branch/jump targets, and the entry point. Existing symbol names are
/// reused; anonymous targets get `L_<hex>`.
fn label_map(prog: &Program, ann: &Annotations) -> BTreeMap<u32, String> {
    let mut labels: BTreeMap<u32, String> = BTreeMap::new();
    let mut need = |addr: u32| {
        labels.entry(addr).or_insert_with(|| format!("L_{addr:x}"));
    };
    need(prog.entry);
    for (&entry, task) in &ann.tasks {
        need(entry);
        for t in &task.targets {
            if let TargetKind::Addr(a) = *t {
                need(a);
            }
        }
    }
    for ops in ann.insert_before.values() {
        for op in ops {
            if let InsertOp::Jump { target, .. } = *op {
                need(target);
            }
        }
    }
    for (i, instr) in prog.text.iter().enumerate() {
        let pc = prog.text_base + 4 * i as u32;
        if let Some(t) = control_target(&instr.op, pc) {
            need(t);
        }
    }
    // Prefer original symbol names where available (text addresses only).
    for (name, &addr) in &prog.symbols {
        if labels.contains_key(&addr) && addr >= prog.text_base && addr < prog.text_end() {
            labels.insert(addr, name.clone());
        }
    }
    labels
}

/// The address a branch or direct jump at `pc` names, which the source
/// writes as a label.
fn control_target(op: &Op, pc: u32) -> Option<u32> {
    match *op {
        Op::Jump { target, .. } => Some(target),
        _ => op.branch_target(pc),
    }
}

/// Renders one instruction with labelled control-flow operands.
fn render_instr(op: &Op, pc: u32, labels: &BTreeMap<u32, String>) -> String {
    let lab = |a: u32| labels.get(&a).cloned().unwrap_or_else(|| format!("{a:#x}"));
    let ops = match (*op, control_target(op, pc)) {
        (Op::Branch { rs, rt, .. }, Some(t)) => format!("{rs}, {rt}, {}", lab(t)),
        (Op::BranchZ { rs, .. }, Some(t)) => format!("{rs}, {}", lab(t)),
        (Op::Jump { .. }, Some(t)) => lab(t),
        _ => op.operands(),
    };
    if ops.is_empty() {
        op.mnemonic().to_owned()
    } else {
        format!("{} {ops}", op.mnemonic())
    }
}

/// Regenerates annotated assembly source from a program image.
///
/// The output reassembles (in multiscalar mode) to a binary with
/// identical text, task descriptors, entry point and data bytes. Tag
/// suffixes, `.task` directives and data contents are all reproduced;
/// synthesized labels are used where the original symbol table has none.
///
/// # Panics
/// Panics if a data segment lies below the standard data base (never
/// produced by this assembler).
pub fn program_to_source(prog: &Program) -> String {
    annotate_source(prog, &Annotations::from_program(prog))
}

fn render_insert(op: &InsertOp, labels: &BTreeMap<u32, String>) -> String {
    match *op {
        InsertOp::Release(ref regs) => {
            let names: Vec<String> = regs.iter().map(|r| r.to_string()).collect();
            format!("{} {}", Op::Release { regs: RegList::EMPTY }.mnemonic(), names.join(", "))
        }
        InsertOp::Jump { target, stop } => {
            let body = render_instr(&Op::Jump { link: false, target }, 0, labels);
            let stop = if stop { StopCond::Always } else { StopCond::None };
            with_tags(&body, TagBits { forward: false, stop })
        }
    }
}

/// `body` with the tag suffixes attached to its mnemonic.
fn with_tags(body: &str, tags: TagBits) -> String {
    match body.split_once(' ') {
        Some((m, rest)) => format!("{m}{} {rest}", tags.suffix()),
        None => format!("{body}{}", tags.suffix()),
    }
}

/// Re-emits `prog` as assembly source with the annotation overlay `ann`
/// applied: `ann.tasks` becomes the `.task` directives, `ann.tags`
/// overrides per-instruction tag suffixes, and `ann.insert_before`
/// splices new instructions in front of existing addresses.
///
/// This is the emission half of the paper's Section 2.2 migration story:
/// a partitioner decides a task structure over an un-annotated (scalar)
/// binary and this function produces the annotated program text. Because
/// every control operand is emitted as a label, inserted instructions
/// shift later addresses without breaking branches, jumps, or descriptor
/// targets.
///
/// # Panics
/// Panics if a data segment lies below the standard data base (never
/// produced by this assembler).
pub fn annotate_source(prog: &Program, ann: &Annotations) -> String {
    let labels = label_map(prog, ann);
    let mut out = String::new();
    let _ = writeln!(out, "; regenerated by ms-asm (paper Section 2.2 binary migration)");

    // Data-segment symbols, sorted by (address, name) so the emission —
    // and therefore the whole regenerated source — is deterministic.
    // They must survive the round trip: workload memory expectations and
    // validation harnesses address results by data label.
    let mut data_syms: Vec<(u32, &str)> = prog
        .symbols
        .iter()
        .filter(|&(_, &a)| a >= DATA_BASE)
        .map(|(n, &a)| (a, n.as_str()))
        .collect();
    data_syms.sort_unstable();
    let mut di = 0;

    // Emits every data label bound to `addr`.
    fn labels_at(out: &mut String, syms: &[(u32, &str)], di: &mut usize, addr: u32) {
        while *di < syms.len() && syms[*di].0 == addr {
            let _ = writeln!(out, "{}:", syms[*di].1);
            *di += 1;
        }
    }

    // Advances `cursor` to `target` with `.space`, pausing at labels.
    fn space_to(
        out: &mut String,
        syms: &[(u32, &str)],
        di: &mut usize,
        cursor: &mut u32,
        target: u32,
    ) {
        loop {
            labels_at(out, syms, di, *cursor);
            let stop = match syms.get(*di) {
                Some(&(a, _)) if a < target => a,
                _ => target,
            };
            if stop > *cursor {
                let _ = writeln!(out, ".space {}", stop - *cursor);
                *cursor = stop;
            }
            if *cursor == target {
                break;
            }
        }
    }

    // Data segments, reproduced byte-for-byte at their original layout,
    // with `.space` runs and `.byte` chunks split wherever a label lands.
    if !prog.data.is_empty() || !data_syms.is_empty() {
        let _ = writeln!(out, ".data");
        let mut cursor = DATA_BASE;
        for seg in &prog.data {
            assert!(seg.base >= cursor, "data segment below the data base");
            space_to(&mut out, &data_syms, &mut di, &mut cursor, seg.base);
            let end = seg.base + seg.bytes.len() as u32;
            while cursor < end {
                labels_at(&mut out, &data_syms, &mut di, cursor);
                let mut stop = (cursor + 24).min(end);
                if let Some(&(a, _)) = data_syms.get(di) {
                    stop = stop.min(a.max(cursor + 1));
                }
                let chunk = &seg.bytes[(cursor - seg.base) as usize..(stop - seg.base) as usize];
                write_data_line(&mut out, ".byte", chunk);
                cursor = stop;
            }
        }
        // Labels past the last initialized byte (`.space` result areas).
        if let Some(&(last, _)) = data_syms.last() {
            let target = last.max(cursor);
            space_to(&mut out, &data_syms, &mut di, &mut cursor, target);
            labels_at(&mut out, &data_syms, &mut di, cursor);
        }
    }

    let _ = writeln!(out, ".text");
    if let Some(entry_label) = labels.get(&prog.entry) {
        let _ = writeln!(out, ".entry {entry_label}");
    }
    for (i, instr) in prog.text.iter().enumerate() {
        let pc = prog.text_base + 4 * i as u32;
        if let Some(ops) = ann.insert_before.get(&pc) {
            for op in ops {
                let _ = writeln!(out, "    {}", render_insert(op, &labels));
            }
        }
        if let Some(task) = ann.tasks.get(&pc) {
            let targets: Vec<String> = task
                .targets
                .iter()
                .map(|t| match *t {
                    TargetKind::Addr(a) => {
                        labels.get(&a).cloned().unwrap_or_else(|| format!("{a:#x}"))
                    }
                    TargetKind::Return => "ret".into(),
                    TargetKind::Halt => "halt".into(),
                })
                .collect();
            let create: Vec<String> = task.create.iter().map(|r| r.to_string()).collect();
            let _ =
                writeln!(out, ".task targets={} create={}", targets.join(","), create.join(","));
        }
        if let Some(l) = labels.get(&pc) {
            let _ = writeln!(out, "{l}:");
        }
        let body = render_instr(&instr.op, pc, &labels);
        let tags = ann.tags.get(&pc).copied().unwrap_or(instr.tags);
        let _ = writeln!(out, "    {}", with_tags(&body, tags));
    }
    if let Some(ops) = ann.insert_before.get(&prog.text_end()) {
        for op in ops {
            let _ = writeln!(out, "    {}", render_insert(op, &labels));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble, AsmMode};
    use proptest::collection::vec;
    use proptest::prelude::*;

    const SRC: &str = "
.data
vals: .word 3, 1, 4, 1, 5
msg:  .asciiz \"hi\"
.text
main:
.task targets=LOOP create=$2,$16
INIT:
    li!f $16, 5
    li!f $2, 0
    b!s  LOOP
.task targets=LOOP,DONE create=$2
LOOP:
    addiu!f $2, $2, 1
    bne!s $2, $16, LOOP
.task targets=halt create=
DONE:
    halt
";

    fn roundtrip_equal(src: &str) {
        let p1 = assemble(src, AsmMode::Multiscalar).expect("original assembles");
        let regenerated = program_to_source(&p1);
        let p2 = assemble(&regenerated, AsmMode::Multiscalar)
            .unwrap_or_else(|e| panic!("regenerated source fails: {e}\n{regenerated}"));
        assert_eq!(p1.text, p2.text, "text differs\n{regenerated}");
        assert_eq!(p1.entry, p2.entry);
        assert_eq!(p1.tasks, p2.tasks, "task descriptors differ");
        assert_eq!(p1.data, p2.data, "data differs");
    }

    #[test]
    fn simple_program_round_trips() {
        roundtrip_equal(SRC);
    }

    #[test]
    fn wide_release_round_trips() {
        // More than RegList::CAPACITY registers: the assembler chunks the
        // pseudo into several release instructions with the tags on the
        // last one; the disassembly must reassemble to the identical text.
        roundtrip_equal(
            "
.text
main:
.task targets=halt create=$4,$5,$6,$7,$8,$9,$f2
A:
    li $4, 1
    release $4, $5, $6, $7
    release!s $8, $9, $f2, $4, $5
    halt
",
        );
    }

    #[test]
    fn calls_releases_and_fp_round_trip() {
        roundtrip_equal(
            "
.data
q: .double 0.25
.text
main:
.task targets=T create=$4,$29,$31,$f1
A:
    la   $9, q
    l.d!f $f1, 0($9)
    addiu!f $29, $29, -8
    sd   $31, 0($29)
    li!f $4, 3
    jal!f!s T
.task targets=halt create=$2
T:
    cvt.d.w $f2, $4
    mul.d $f2, $f2, $f1
    c.lt.d $2, $f1, $f2
    release $2
    blez!st $2, SKIP
    addiu!f $2, $2, 1
SKIP:
    halt
",
        );
    }

    #[test]
    fn regenerated_source_contains_annotations() {
        let p = assemble(SRC, AsmMode::Multiscalar).unwrap();
        let s = program_to_source(&p);
        assert!(s.contains(".task targets="), "{s}");
        assert!(s.contains("addiu!f"), "{s}");
        assert!(s.contains("bne!s"), "{s}");
        assert!(s.contains(".entry"), "{s}");
    }

    #[test]
    fn original_label_names_are_preferred() {
        let p = assemble(SRC, AsmMode::Multiscalar).unwrap();
        let s = program_to_source(&p);
        assert!(s.contains("LOOP:"), "{s}");
        assert!(s.contains("DONE:"), "{s}");
    }

    #[test]
    fn annotate_source_applies_overlay_to_scalar_program() {
        use ms_isa::{Reg, RegMask, StopCond, TagBits, TargetKind};

        // A scalar program (no tags, no tasks) gets a two-task overlay:
        // forward + stop tags, a release, and an inserted stop-jump.
        let scalar = assemble(
            "
.text
main:
A:
    li $4, 1
    addiu $5, $4, 2
B:
    addiu $5, $5, 1
    halt
",
            AsmMode::Scalar,
        )
        .unwrap();
        assert!(scalar.tasks.is_empty());
        let a = scalar.symbol("A").unwrap();
        let b = scalar.symbol("B").unwrap();

        let mut ann = Annotations::default();
        ann.tasks.insert(
            a,
            TaskAnn {
                create: RegMask::from_iter([Reg::int(4), Reg::int(5)]),
                targets: vec![TargetKind::Addr(b)],
            },
        );
        ann.tasks.insert(
            b,
            TaskAnn { create: RegMask::from_iter([Reg::int(5)]), targets: vec![TargetKind::Halt] },
        );
        ann.tags.insert(a, TagBits { forward: true, stop: StopCond::None });
        ann.insert_before.insert(
            b,
            vec![InsertOp::Release(vec![Reg::int(5)]), InsertOp::Jump { target: b, stop: true }],
        );

        let src = annotate_source(&scalar, &ann);
        let prog = assemble(&src, AsmMode::Multiscalar)
            .unwrap_or_else(|e| panic!("annotated source fails: {e}\n{src}"));
        // Two inserted instructions shift the text by two words.
        assert_eq!(prog.text.len(), scalar.text.len() + 2, "{src}");
        assert_eq!(prog.tasks.len(), 2, "{src}");
        // The second task's entry shifted past the inserted lines but
        // its descriptor still lands on the right instruction.
        let (&e2, d2) = prog.tasks.iter().nth(1).unwrap();
        assert_eq!(d2.targets[0].kind, TargetKind::Halt);
        assert!(e2 > a, "{src}");
        // Tag override applied to the first instruction.
        assert!(prog.text[0].tags.forward, "{src}");
        // Reassembling the same source in scalar mode drops the overlay
        // and the inserted release (but keeps the jump).
        let rescalar = assemble(&src, AsmMode::Scalar).unwrap();
        assert_eq!(rescalar.text.len(), scalar.text.len() + 1, "{src}");
        assert!(rescalar.tasks.is_empty());
    }

    /// The data line `to_string` and `join` wrote before the renderer.
    fn joined<T: ToString>(directive: &str, items: &[T]) -> String {
        let items: Vec<String> = items.iter().map(T::to_string).collect();
        format!("  {directive} {}\n", items.join(", "))
    }

    fn rendered<T: Copy + Into<u64>>(directive: &str, items: &[T]) -> String {
        let mut out = String::new();
        write_data_line(&mut out, directive, items);
        out
    }

    #[test]
    fn data_lines_render_extreme_values() {
        let edges = [0u64, 1, 9, 10, 99, 100, 255, 256, u32::MAX.into(), u64::MAX];
        assert_eq!(rendered(".dword", &edges), joined(".dword", &edges));
        assert_eq!(rendered(".byte", &[7u8]), "  .byte 7\n");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn data_lines_match_to_string_and_join(
            bytes in vec(any::<u8>(), 1..=24),
            words in vec(any::<u32>(), 1..=12),
        ) {
            prop_assert_eq!(rendered(".byte", &bytes), joined(".byte", &bytes));
            prop_assert_eq!(rendered(".word", &words), joined(".word", &words));
        }
    }

    #[test]
    fn identity_overlay_matches_program_to_source() {
        let p = assemble(SRC, AsmMode::Multiscalar).unwrap();
        assert_eq!(program_to_source(&p), annotate_source(&p, &Annotations::from_program(&p)));
    }
}
