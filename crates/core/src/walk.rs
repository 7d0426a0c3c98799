//! The sequential walk: a binary run one instruction at a time, with no
//! pipeline, cache or bus, cut into tasks where a unit resolves its stop
//! (at `halt`, or where an instruction's stop tag fires). Every task a
//! [`crate::Processor::run_checked`] run retires is held to it; a scalar
//! binary carries no tags, so its whole run is one task.

use crate::error::SimError;
use ms_isa::{PredecodedProgram, Program, Reg, RegMask, NUM_REGS, STACK_TOP};
use ms_memsys::Memory;
use ms_pipeline::{execute, extend_load, ProcessingUnit};

/// A program walked task by task, in sequential order.
pub struct SequentialWalk {
    prog: PredecodedProgram,
    mem: Memory,
    regs: [u64; NUM_REGS],
    pc: u32,
    halted: bool,
    /// `(address, size)` of every store of the last task walked.
    stores: Vec<(u32, u32)>,
}

/// The state every machine boots `prog` into: its data loaded, `$sp` at
/// [`STACK_TOP`], every other register zero.
pub(crate) fn boot(prog: &Program) -> (Memory, [u64; NUM_REGS]) {
    let mut mem = Memory::new();
    for seg in &prog.data {
        mem.write_slice(seg.base, &seg.bytes);
    }
    let mut regs = [0; NUM_REGS];
    regs[Reg::SP.index()] = STACK_TOP as u64;
    (mem, regs)
}

impl SequentialWalk {
    /// Boots `prog` as the processors do: its data loaded, `$sp` at
    /// [`STACK_TOP`], every other register zero.
    pub fn new(prog: Program) -> SequentialWalk {
        let (mem, regs) = boot(&prog);
        let (pc, prog) = (prog.entry, PredecodedProgram::new(prog));
        SequentialWalk { prog, mem, regs, pc, halted: false, stores: Vec::new() }
    }

    /// The memory as the walk has left it.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The register file as the walk has left it.
    pub fn regs(&self) -> &[u64; NUM_REGS] {
        &self.regs
    }

    /// Whether the walk has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Walks the next task, executing at most `limit` instructions.
    /// Returns its entry PC and its instruction count, or `None` for the
    /// count when the limit cut the task short.
    ///
    /// # Errors
    /// Returns [`SimError::Fault`] on a fetch outside the text segment or
    /// after `halt`.
    pub fn next_task(&mut self, limit: u64) -> Result<(u32, Option<u64>), SimError> {
        let entry = self.pc;
        self.stores.clear();
        for n in 1..=limit {
            let Some((instr, _)) = self.prog.fetch(self.pc).filter(|_| !self.halted) else {
                let why = if self.halted { "after halt" } else { "outside the text segment" };
                return Err(SimError::Fault(format!(
                    "sequential walk: fetch at {:#x} {why}",
                    self.pc
                )));
            };
            let regs = &self.regs;
            let out = execute(instr, self.pc, |r| regs[r.index()]);
            let mut write = out.writeback;
            if let Some(req) = out.mem {
                if req.is_store {
                    self.mem.write_le(req.addr, req.size, req.value);
                    self.stores.push((req.addr, req.size));
                } else {
                    let raw = self.mem.read_le(req.addr, req.size);
                    write = req.dest.map(|rd| (rd, extend_load(&req, raw)));
                }
            }
            if let Some((rd, v)) = write.filter(|(rd, _)| !rd.is_zero()) {
                self.regs[rd.index()] = v;
            }
            self.pc = out.control.map_or(self.pc + 4, |c| c.next_pc);
            self.halted = out.halt;
            if out.ends_task(instr) {
                return Ok((entry, Some(n)));
            }
        }
        Ok((entry, None))
    }

    /// Walks the next task and compares it with the task `unit` retires:
    /// the entry, the instruction count, its `create` registers in the
    /// unit's forwarded view, and the bytes `mem` holds wherever the walk
    /// stored. Returns the first difference, worded as what the retired
    /// task did.
    pub(crate) fn diff(
        &mut self,
        entry: u32,
        create: RegMask,
        unit: &ProcessingUnit,
        mem: &Memory,
    ) -> Option<String> {
        let (instructions, regs) = (unit.counters().instructions, unit.fwd_view().0);
        let walked = match self.next_task(instructions) {
            Ok((at, _)) if at != entry => {
                return Some(format!("entered where the walk is at {at:#x}"))
            }
            Ok((_, walked)) => walked,
            Err(e) => return Some(format!("the walk faulted: {e}")),
        };
        if walked != Some(instructions) {
            let walked = walked.map_or(format!("more than {instructions}"), |n| n.to_string());
            return Some(format!("{instructions} instructions where the walk has {walked}"));
        }
        if let Some(r) = create.iter().find(|r| regs[r.index()] != self.regs[r.index()]) {
            let (it, walk) = (regs[r.index()], self.regs[r.index()]);
            return Some(format!("{r} is {it:#x} where the walk has {walk:#x}"));
        }
        let mut bytes =
            self.stores.iter().flat_map(|&(at, n)| (0..n).map(move |i| at.wrapping_add(i)));
        let a = bytes.find(|&a| mem.read_u8(a) != self.mem.read_u8(a))?;
        let (it, walk) = (mem.read_u8(a), self.mem.read_u8(a));
        Some(format!("byte {a:#x} is {it:#04x} where the walk has {walk:#04x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Processor, SimConfig};
    use ms_asm::{assemble, AsmMode};
    use ms_trace::{TraceEvent, VecSink};

    /// Figure 4's shape: one outer-loop iteration per task, an inner loop
    /// inside it, the induction variable forwarded early, a release in
    /// the prologue, and a load/store chain through memory across tasks.
    const FIGURE4_LOOP: &str = "
.data
list:  .word 3, 1, 4, 1, 5
total: .word 0
.text
main:
.task targets=OUTER create=$16,$20
INIT:
    la      $20, list
    la!f    $16, total
    release $20
    b!s     OUTER
.task targets=OUTER,DONE create=$20
OUTER:
    addiu!f $20, $20, 4
    lw      $9, -4($20)
    li      $8, 0
INNER:
    addiu   $8, $8, 2
    addiu   $9, $9, -1
    bne     $9, $0, INNER
    lw      $10, 0($16)
    addu    $10, $10, $8
    sw      $10, 0($16)
    bne!s   $20, $16, OUTER
.task targets=halt create=
DONE:
    halt
";

    /// A caller task that ends in `jal` and a callee that returns.
    const JAL_EXIT: &str = "
main:
.task targets=FN create=$4,$31
CALLER:
    li!f $4, 21
    jal!f!s FN
.task targets=halt create=
BACK:
    halt
.task targets=ret create=$2
FN:
    addu!f $2, $4, $4
    jr!s  $31
";

    #[test]
    fn walk_cuts_tasks_where_an_ms4_run_retires_them() {
        for (src, tasks) in [(FIGURE4_LOOP, 7), (JAL_EXIT, 3)] {
            let prog = assemble(src, AsmMode::Multiscalar).unwrap();
            let mut walk = SequentialWalk::new(prog.clone());
            let mut walked = Vec::new();
            while !walk.halted() {
                let (entry, instructions) = walk.next_task(1_000).unwrap();
                walked.push((entry, instructions.expect("every task ends")));
            }
            let cfg = SimConfig::multiscalar(4);
            let mut p = Processor::with_sink(prog, cfg, VecSink::default()).unwrap();
            p.run_checked().unwrap();
            let retired: Vec<(u32, u64)> = (p.sink().events.iter())
                .filter_map(|ev| match *ev {
                    TraceEvent::TaskRetire { entry, instructions, .. } => {
                        Some((entry, instructions))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(walked.len(), tasks);
            assert_eq!(walked, retired);
        }
    }

    #[test]
    fn walk_matches_the_final_state() {
        let prog = assemble(FIGURE4_LOOP, AsmMode::Multiscalar).unwrap();
        let total = prog.symbol("total").unwrap();
        let mut walk = SequentialWalk::new(prog);
        while !walk.halted() {
            walk.next_task(u64::MAX).unwrap();
        }
        assert_eq!(walk.memory().read_le(total, 4), 2 * (3 + 1 + 4 + 1 + 5));
        assert_eq!(walk.regs()[Reg::SP.index()], STACK_TOP as u64);
        let err = walk.next_task(1).unwrap_err();
        assert!(err.to_string().contains("after halt"), "{err}");
        // The scalar binary has no stop tags: one task, cut here by the limit.
        let mut scalar = SequentialWalk::new(assemble(JAL_EXIT, AsmMode::Scalar).unwrap());
        assert_eq!(scalar.next_task(2).unwrap(), (0x1000, None));
        assert_eq!(scalar.next_task(10).unwrap(), (0x100c, Some(3)));
        assert!(scalar.halted());
    }
}
