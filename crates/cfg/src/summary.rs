//! Function summaries for suppressed calls.
//!
//! "A task should be free to contain function calls" (paper Section
//! 3.2.3), and a function executed entirely inside a task is the paper's
//! *suppressed* function. To check a task's annotations we need each
//! callee's effects: the registers it may write, forward and release,
//! whether it can return, whether it can end the program, and the task
//! exits its stop tags can fire. Summaries are computed to a fixpoint,
//! so mutual recursion converges.

use crate::taskcheck::{edges, StaticExit};
use ms_isa::{Op, Program, RegMask, StopCond};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The may-effects of one function (a `jal` target).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Entry address.
    pub entry: u32,
    /// Registers any instruction in the function (or its callees) may
    /// write.
    pub writes: RegMask,
    /// Registers carrying forward bits anywhere inside.
    pub forwards: RegMask,
    /// Registers named by `release` anywhere inside.
    pub releases: RegMask,
    /// Whether a path reaches `jr $31` at the function's own call depth.
    pub returns: bool,
    /// Whether the function or a function it calls reaches `halt`: a
    /// call to it can end the calling task at the program's end.
    pub halts: bool,
    /// Functions this one calls directly.
    pub calls: BTreeSet<u32>,
    /// PCs of stop-tagged instructions inside the function (a task ending
    /// inside a suppressed call — legal but worth surfacing).
    pub internal_stops: Vec<u32>,
    /// The task exits the stop tags of the function or its callees can
    /// fire, each where [`StopCond::fires`] fires it: a call to it can
    /// end the calling task at any of them.
    pub stop_exits: BTreeSet<StaticExit>,
    /// PCs of register-indirect jumps through a register other than `$31`
    /// (statically unverifiable control).
    pub indirect_jumps: Vec<u32>,
    /// Every address the function's own body reaches (callee bodies
    /// excluded), ascending.
    pub(crate) body: Vec<u32>,
}

/// Walks one function body (without descending into callees) along the
/// task walks' [`edges`] and records its local effects, its direct call
/// targets and the addresses it reaches. Stops are recorded, with the
/// exit of each edge they fire on, but not obeyed: the walk goes on past
/// them, and assumes every nested call returns.
fn walk_function(prog: &Program, entry: u32) -> FnSummary {
    let mut s = FnSummary { entry, ..FnSummary::default() };
    let mut seen = BTreeSet::new();
    let mut work = VecDeque::from([entry]);
    while let Some(pc) = work.pop_front() {
        if !seen.insert(pc) {
            continue;
        }
        let Some(instr) = prog.instr_at(pc) else {
            continue; // running off text is reported by the task checker
        };
        if let Some(d) = instr.op.def() {
            s.writes.insert(d);
            if instr.tags.forward {
                s.forwards.insert(d);
            }
        }
        if let Op::Release { regs } = instr.op {
            s.releases = s.releases.union(regs.to_mask());
        }
        s.halts |= matches!(instr.op, Op::Halt);
        if instr.tags.stop != StopCond::None {
            s.internal_stops.push(pc);
        }
        if let Op::Jump { link: true, target } = instr.op {
            s.calls.insert(target);
        }
        for e in edges(&instr.op, pc, &|_| true) {
            if instr.tags.stop.fires(e.taken) {
                s.stop_exits.insert(e.exit);
            }
            match e.exit {
                StaticExit::Return => s.returns = true,
                StaticExit::Unverifiable(_) => s.indirect_jumps.push(pc),
                StaticExit::Addr(_) | StaticExit::Halt => {}
            }
            work.extend(e.next);
        }
    }
    s.body = seen.into_iter().collect();
    s
}

/// Computes summaries for every `jal` target in the program, propagating
/// callee effects to callers until a fixpoint.
pub fn summarize_functions(prog: &Program) -> BTreeMap<u32, FnSummary> {
    // Function entries: every jal target.
    let mut entries = BTreeSet::new();
    for instr in &prog.text {
        if let Op::Jump { link: true, target } = instr.op {
            entries.insert(target);
        }
    }
    let mut summaries: BTreeMap<u32, FnSummary> =
        entries.iter().map(|&e| (e, walk_function(prog, e))).collect();

    // Fixpoint: fold callee effects into callers.
    loop {
        let mut changed = false;
        let snapshot = summaries.clone();
        for s in summaries.values_mut() {
            for callee in s.calls.clone() {
                if let Some(c) = snapshot.get(&callee) {
                    let w = s.writes.union(c.writes);
                    let f = s.forwards.union(c.forwards);
                    let r = s.releases.union(c.releases);
                    if w != s.writes || f != s.forwards || r != s.releases || (c.halts && !s.halts)
                    {
                        s.writes = w;
                        s.forwards = f;
                        s.releases = r;
                        s.halts |= c.halts;
                        changed = true;
                    }
                    for &stop in &c.internal_stops {
                        if !s.internal_stops.contains(&stop) {
                            s.internal_stops.push(stop);
                            changed = true;
                        }
                    }
                    for &exit in &c.stop_exits {
                        changed |= s.stop_exits.insert(exit);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_asm::{assemble, AsmMode};

    #[test]
    fn leaf_function_summary() {
        let prog = assemble(
            "main:\n jal f\n halt\nf:\n addiu!f $5, $5, 1\n release $6\n jr $31\n",
            AsmMode::Multiscalar,
        )
        .unwrap();
        let sums = summarize_functions(&prog);
        let f = sums.get(&prog.symbol("f").unwrap()).unwrap();
        assert!(f.returns);
        assert!(f.writes.contains(ms_isa::Reg::int(5)));
        assert!(f.forwards.contains(ms_isa::Reg::int(5)));
        assert!(f.releases.contains(ms_isa::Reg::int(6)));
        assert!(f.calls.is_empty());
        assert!(!f.halts);
    }

    #[test]
    fn a_halt_in_a_callee_halts_its_callers() {
        let prog = assemble(
            "main:\n jal outer\n halt\nouter:\n jal inner\n jr $31\ninner:\n halt\n",
            AsmMode::Multiscalar,
        )
        .unwrap();
        let sums = summarize_functions(&prog);
        let outer = sums.get(&prog.symbol("outer").unwrap()).unwrap();
        let inner = sums.get(&prog.symbol("inner").unwrap()).unwrap();
        assert!(inner.halts && !inner.returns);
        assert!(outer.halts, "the callee's halt folds into its caller");
    }

    #[test]
    fn stop_exits_fire_as_at_run_time_and_fold_into_callers() {
        let prog = assemble(
            "main:\n jal outer\n halt\nouter:\n jal inner\n jr $31\n\
             inner:\n addiu!s $3, $0, 1\n beq!st $3, $0, inner\n jr $31\n",
            AsmMode::Multiscalar,
        )
        .unwrap();
        let sums = summarize_functions(&prog);
        let inner_at = prog.symbol("inner").unwrap();
        let inner = sums.get(&inner_at).unwrap();
        // `addiu!s` fires on its fall-through; `beq!st` only when taken.
        let want = BTreeSet::from([StaticExit::Addr(inner_at), StaticExit::Addr(inner_at + 4)]);
        assert_eq!(inner.stop_exits, want);
        let outer = sums.get(&prog.symbol("outer").unwrap()).unwrap();
        assert_eq!(outer.stop_exits, want, "the callee's stop exits fold into its caller");
    }

    #[test]
    fn nested_calls_fold_effects() {
        let prog = assemble(
            "main:\n jal outer\n halt\nouter:\n jal inner\n jr $31\ninner:\n li!f $7, 1\n jr $31\n",
            AsmMode::Multiscalar,
        )
        .unwrap();
        let sums = summarize_functions(&prog);
        let outer = sums.get(&prog.symbol("outer").unwrap()).unwrap();
        assert!(outer.forwards.contains(ms_isa::Reg::int(7)));
        assert!(outer.returns);
    }

    #[test]
    fn recursion_converges() {
        let prog = assemble(
            "main:\n jal f\n halt\nf:\n blez $4, OUT\n addiu $4, $4, -1\n jal f\nOUT:\n jr $31\n",
            AsmMode::Multiscalar,
        )
        .unwrap();
        let sums = summarize_functions(&prog);
        let f = sums.get(&prog.symbol("f").unwrap()).unwrap();
        assert!(f.returns);
        assert!(f.writes.contains(ms_isa::Reg::int(4)));
    }

    #[test]
    fn indirect_jumps_are_flagged() {
        let prog = assemble("main:\n jal f\n halt\nf:\n jr $9\n", AsmMode::Multiscalar).unwrap();
        let sums = summarize_functions(&prog);
        let f = sums.get(&prog.symbol("f").unwrap()).unwrap();
        assert_eq!(f.indirect_jumps.len(), 1);
        assert!(!f.returns);
    }
}
