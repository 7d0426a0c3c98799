//! The executable program image.

use crate::instr::Instr;
use crate::task::TaskDescriptor;
use std::collections::BTreeMap;
use std::fmt;

/// Base address of the text segment.
pub const TEXT_BASE: u32 = 0x1000;
/// Base address of the data segment.
pub const DATA_BASE: u32 = 0x0010_0000;
/// Initial stack pointer (stack grows down).
pub const STACK_TOP: u32 = 0x0080_0000;

/// A contiguous initialized data region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataSegment {
    /// Base byte address.
    pub base: u32,
    /// Initial contents.
    pub bytes: Vec<u8>,
}

/// A complete multiscalar program: text, initialized data, the task
/// descriptors demarcating the CFG partition, and a symbol table.
///
/// The same structure also represents a *scalar* program — one with no
/// task descriptors and no tag bits — which is how the paper's baseline
/// binaries are modelled (Table 2 compares the two).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// Base address of the text segment.
    pub text_base: u32,
    /// Instructions, one per word starting at `text_base`.
    pub text: Vec<Instr>,
    /// Initialized data regions.
    pub data: Vec<DataSegment>,
    /// Task descriptors keyed by task entry address.
    pub tasks: BTreeMap<u32, TaskDescriptor>,
    /// Label addresses.
    pub symbols: BTreeMap<String, u32>,
    /// Address of the first instruction to execute.
    pub entry: u32,
}

impl Program {
    /// An empty program based at [`TEXT_BASE`].
    pub fn new() -> Program {
        Program { text_base: TEXT_BASE, entry: TEXT_BASE, ..Program::default() }
    }

    /// The instruction at byte address `pc`, if it lies in the text
    /// segment and is word-aligned.
    pub fn instr_at(&self, pc: u32) -> Option<Instr> {
        if pc < self.text_base || !pc.is_multiple_of(4) {
            return None;
        }
        self.text.get(((pc - self.text_base) / 4) as usize).copied()
    }

    /// One past the last text byte address.
    pub fn text_end(&self) -> u32 {
        self.text_base + (self.text.len() as u32) * 4
    }

    /// The task descriptor whose entry is exactly `entry`, if any.
    pub fn task_at(&self, entry: u32) -> Option<&TaskDescriptor> {
        self.tasks.get(&entry)
    }

    /// Looks up a label address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Renders a human-readable listing: addresses, labels, task headers,
    /// and disassembly (the shape of the paper's Figure 4).
    pub fn listing(&self) -> String {
        use fmt::Write;
        let mut by_addr: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (name, &addr) in &self.symbols {
            by_addr.entry(addr).or_default().push(name);
        }
        let mut out = String::new();
        for (i, instr) in self.text.iter().enumerate() {
            let pc = self.text_base + (i as u32) * 4;
            if let Some(desc) = self.tasks.get(&pc) {
                let _ = writeln!(out, ";; {desc}");
            }
            if let Some(labels) = by_addr.get(&pc) {
                for l in labels {
                    let _ = writeln!(out, "{l}:");
                }
            }
            let _ = writeln!(out, "  {pc:#07x}:  {instr}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluImmOp, Op};
    use crate::reg::Reg;
    use crate::tags::RegMask;
    use crate::task::TaskTarget;

    fn tiny() -> Program {
        let mut p = Program::new();
        p.text = vec![
            Instr::new(Op::AluImm { op: AluImmOp::Addiu, rt: Reg::int(2), rs: Reg::ZERO, imm: 1 }),
            Instr::new(Op::Halt),
        ];
        p.symbols.insert("main".into(), TEXT_BASE);
        p.tasks.insert(
            TEXT_BASE,
            TaskDescriptor::new(TEXT_BASE, RegMask::EMPTY, vec![TaskTarget::halt()]),
        );
        p
    }

    #[test]
    fn instr_at_respects_bounds_and_alignment() {
        let p = tiny();
        assert!(p.instr_at(TEXT_BASE).is_some());
        assert!(p.instr_at(TEXT_BASE + 4).is_some());
        assert!(p.instr_at(TEXT_BASE + 8).is_none());
        assert!(p.instr_at(TEXT_BASE + 2).is_none());
        assert!(p.instr_at(0).is_none());
        assert_eq!(p.text_end(), TEXT_BASE + 8);
    }

    #[test]
    fn listing_contains_labels_tasks_and_disasm() {
        let l = tiny().listing();
        assert!(l.contains("main:"), "{l}");
        assert!(l.contains("task @0x1000"), "{l}");
        assert!(l.contains("addiu $2, $0, 1"), "{l}");
    }
}
