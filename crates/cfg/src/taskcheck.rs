//! Task-region discovery and annotation checking.
//!
//! Every walk in this crate reads control flow through one edge function,
//! [`edges`], which gives each edge the taken bit the runtime gives it. A
//! walk that honours stop tags cuts an edge exactly where
//! [`StopCond::fires`] says a processing unit ends its task.

use crate::summary::{summarize_functions, FnSummary};
use ms_isa::{Instr, Op, Program, Reg, RegMask, StopCond, TargetKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Severity of a [`Diagnostic`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (e.g. reliance on end-of-task auto-release).
    Info,
    /// Suspicious but not provably wrong (e.g. unverifiable indirect
    /// control).
    Warning,
    /// The annotation is inconsistent with the code; the program will
    /// misbehave or fault at run time.
    Error,
}

/// One finding of the checker.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Severity.
    pub severity: Severity,
    /// The task the finding belongs to, if any.
    pub task: Option<u32>,
    /// The program counter of the offending instruction, if any.
    pub pc: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        };
        write!(f, "{sev}")?;
        if let Some(t) = self.task {
            write!(f, " [task {t:#x}]")?;
        }
        if let Some(pc) = self.pc {
            write!(f, " at {pc:#x}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// A statically discovered task exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StaticExit {
    /// Exit to a static address.
    Addr(u32),
    /// Exit through `jr $31` (sequencer return-address stack).
    Return,
    /// Program end.
    Halt,
    /// Register-indirect exit that cannot be verified statically.
    Unverifiable(u32),
}

/// Static analysis results for one task.
#[derive(Clone, Debug)]
pub struct TaskAnalysis {
    /// Task entry address.
    pub entry: u32,
    /// Number of statically reachable instructions at task level
    /// (excluding callee bodies).
    pub reachable: usize,
    /// Discovered exits (deduplicated).
    pub exits: Vec<StaticExit>,
    /// Registers forwarded anywhere in the task (including callees).
    pub forwards: RegMask,
    /// Registers released anywhere in the task (including callees).
    pub releases: RegMask,
}

/// The checker's full output.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-task analyses, in entry order.
    pub tasks: Vec<TaskAnalysis>,
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether any error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Diagnostics of a given severity.
    pub fn of_severity(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity == s)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} tasks analysed", self.tasks.len())?;
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// One control edge leaving an instruction, as the runtime takes it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    /// The taken bit the runtime gives this path; a stop tag fires on it
    /// as [`StopCond::fires`] says.
    pub(crate) taken: bool,
    /// The task exit this edge is when a stop fires on it.
    pub(crate) exit: StaticExit,
    /// Where control goes on inside the task when no stop fires: the
    /// destination, or past a suppressed call. `None` after
    /// register-indirect control and after a call that cannot return.
    pub(crate) next: Option<u32>,
}

/// The control edges of `op` at `pc`, each with the taken bit a
/// processing unit gives it (ms-pipeline's `Outcome::ends_task` fires a
/// stop on the same bit): a jump is taken and a fall-through is not, an
/// always-taken branch has no fall-through, and a `jal` whose stop does
/// not fire is a suppressed call, which continues past the call only
/// when `returns(callee)`. `halt` has no edges: it ends the task whatever
/// its tags.
pub(crate) fn edges(op: &Op, pc: u32, returns: &dyn Fn(u32) -> bool) -> impl Iterator<Item = Edge> {
    let to = |dest: u32, taken| Edge { taken, exit: StaticExit::Addr(dest), next: Some(dest) };
    let leave = |exit| Edge { taken: true, exit, next: None };
    let (first, second) = match *op {
        Op::Halt => (None, None),
        Op::Jump { link: false, target } => (Some(to(target, true)), None),
        Op::Jump { link: true, target } => {
            (Some(Edge { next: returns(target).then_some(pc + 4), ..to(target, true) }), None)
        }
        Op::Jr { rs } if rs == Reg::RA => (Some(leave(StaticExit::Return)), None),
        Op::Jr { .. } | Op::Jalr { .. } => (Some(leave(StaticExit::Unverifiable(pc))), None),
        ref op => match op.branch_target(pc) {
            Some(t) if op.is_always_taken() => (Some(to(t, true)), None),
            Some(t) => (Some(to(pc + 4, false)), Some(to(t, true))),
            None => (Some(to(pc + 4, false)), None),
        },
    };
    first.into_iter().chain(second)
}

/// What a task walk reads besides the code: the stop tag at each address
/// and where tasks begin. An assembled program answers from its tags and
/// descriptors, and the partitioner from the boundaries it plans, so both
/// ask the same walk.
pub(crate) trait TaskView {
    /// The stop tag of the instruction at `pc`.
    fn stop_at(&self, pc: u32) -> StopCond;
    /// Whether a task begins at `pc`.
    fn is_entry(&self, pc: u32) -> bool;
}

impl TaskView for Program {
    fn stop_at(&self, pc: u32) -> StopCond {
        self.instr_at(pc).map_or(StopCond::None, |i| i.tags.stop)
    }

    fn is_entry(&self, pc: u32) -> bool {
        self.task_at(pc).is_some()
    }
}

/// A program's code and the summaries of its functions: what every task
/// walk reads.
pub(crate) struct Code<'a> {
    pub(crate) prog: &'a Program,
    pub(crate) summaries: BTreeMap<u32, FnSummary>,
}

impl<'a> Code<'a> {
    pub(crate) fn new(prog: &'a Program) -> Self {
        Code { prog, summaries: summarize_functions(prog) }
    }

    /// Whether a call to `callee` can return.
    pub(crate) fn returns(&self, callee: u32) -> bool {
        self.summaries.get(&callee).is_none_or(|s| s.returns)
    }

    /// The [`edges`] of `op` at `pc`, calls returning as their callees'
    /// summaries say.
    pub(crate) fn edges(&self, op: &Op, pc: u32) -> impl Iterator<Item = Edge> {
        edges(op, pc, &|callee| self.returns(callee))
    }

    /// The registers `instr` writes, its callee's writes included.
    pub(crate) fn writes(&self, instr: &Instr) -> RegMask {
        let written = RegMask::from_iter(instr.op.def());
        match instr.op {
            Op::Jump { link: true, target } => {
                self.summaries.get(&target).map_or(written, |s| written.union(s.writes))
            }
            _ => written,
        }
    }

    /// The first write of each register in `regs` that the task entered
    /// at `entry` reaches after the instruction at `from`, with its
    /// address, in walk order. The walk follows every edge whose stop (as
    /// `view` gives it) does not fire; with `unconditional` it also drops
    /// both edges of a conditional branch, so what it reaches executes
    /// whenever `from` does. Another task's entry ends a path (the task
    /// walk reports falling into it); the task's own entry does not, so a
    /// loop's next iteration counts.
    pub(crate) fn rewrites(
        &self,
        view: &impl TaskView,
        entry: u32,
        from: u32,
        regs: RegMask,
        unconditional: bool,
    ) -> Vec<(Reg, u32)> {
        let successors = |pc: u32| -> Vec<u32> {
            let Some(instr) = self.prog.instr_at(pc) else {
                return Vec::new();
            };
            let edges: Vec<Edge> = self.edges(&instr.op, pc).collect();
            if unconditional && edges.len() > 1 {
                return Vec::new();
            }
            let stop = view.stop_at(pc);
            edges.iter().filter(|e| !stop.fires(e.taken)).filter_map(|e| e.next).collect()
        };
        let (mut found, mut live) = (Vec::new(), regs);
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut work: VecDeque<u32> = successors(from).into();
        while let Some(pc) = work.pop_front() {
            if live.is_empty() {
                break;
            }
            if !seen.insert(pc) || (pc != entry && view.is_entry(pc)) {
                continue;
            }
            let Some(instr) = self.prog.instr_at(pc) else {
                continue;
            };
            let written = self.writes(&instr);
            for r in live.iter().filter(|&r| written.contains(r)) {
                found.push((r, pc));
                live.remove(r);
            }
            work.extend(successors(pc));
        }
        found
    }
}

struct Checker<'a> {
    code: Code<'a>,
    diags: Vec<Diagnostic>,
}

impl Checker<'_> {
    fn diag(&mut self, severity: Severity, task: u32, pc: Option<u32>, message: String) {
        self.diags.push(Diagnostic { severity, task: Some(task), pc, message });
    }

    /// Checks every register in `regs` communicated at `comm_pc` (forward
    /// bit or release) for later writes inside the task. A rewrite reached
    /// through unconditional edges only executes on *every* run that
    /// communicates, so it is a definite staleness error; a rewrite that
    /// needs a conditional branch may sit on a dynamically exclusive path
    /// (the paper's Figure 4 forwards `$4` on two such paths) and is only
    /// a warning.
    fn check_stale_communication(
        &mut self,
        entry: u32,
        comm_pc: u32,
        regs: RegMask,
        what: &'static str,
    ) {
        let mut reported = RegMask::EMPTY;
        for (unconditional, severity) in [(true, Severity::Error), (false, Severity::Warning)] {
            let live = regs.difference(reported);
            for (r, pc) in self.code.rewrites(self.code.prog, entry, comm_pc, live, unconditional) {
                let msg = if unconditional {
                    format!(
                        "{r} {what} here but is written again at {pc:#x} before the task ends; \
                         successors receive the stale value"
                    )
                } else {
                    format!(
                        "{r} {what} here but may be written again at {pc:#x} on a conditional \
                         path; if both execute, successors receive the stale value"
                    )
                };
                self.diag(severity, entry, Some(comm_pc), msg);
                reported.insert(r);
            }
        }
    }

    /// Validates the descriptor *layout* itself: the map key must name a
    /// descriptor that agrees about its entry, and the entry must be a
    /// word-aligned text address. The assembler never produces a layout
    /// that fails these checks, but a directly constructed [`Program`]
    /// (or a future binary loader) can; a malformed layout must surface
    /// as an error diagnostic, never as a checker panic.
    fn check_descriptor_layout(&mut self, key: u32) -> bool {
        let Some(desc) = self.code.prog.task_at(key) else {
            self.diag(
                Severity::Error,
                key,
                None,
                format!("no task descriptor exists for entry {key:#x}"),
            );
            return false;
        };
        if desc.entry != key {
            let entry = desc.entry;
            self.diag(
                Severity::Error,
                key,
                None,
                format!("descriptor keyed at {key:#x} declares a different entry {entry:#x}"),
            );
            return false;
        }
        if !key.is_multiple_of(4) {
            self.diag(
                Severity::Error,
                key,
                None,
                format!("task entry {key:#x} is not word-aligned"),
            );
            return false;
        }
        if key < self.code.prog.text_base || key >= self.code.prog.text_end() {
            self.diag(
                Severity::Error,
                key,
                None,
                format!("task entry {key:#x} lies outside the text segment"),
            );
            return false;
        }
        true
    }

    fn check_task(&mut self, entry: u32) -> TaskAnalysis {
        let Some(desc) = self.code.prog.task_at(entry) else {
            // Defensive twin of `check_descriptor_layout`: a task walk
            // without a descriptor is a malformed layout, not a panic.
            self.diag(
                Severity::Error,
                entry,
                None,
                format!("no task descriptor exists for entry {entry:#x}"),
            );
            return TaskAnalysis {
                entry,
                reachable: 0,
                exits: Vec::new(),
                forwards: RegMask::EMPTY,
                releases: RegMask::EMPTY,
            };
        };
        let desc = desc.clone();
        let mut exits: BTreeSet<StaticExit> = BTreeSet::new();
        let mut forwards = RegMask::EMPTY;
        let mut releases = RegMask::EMPTY;
        let mut comm_points: Vec<(u32, RegMask, &'static str)> = Vec::new();
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut work = VecDeque::from([entry]);

        while let Some(pc) = work.pop_front() {
            if !seen.insert(pc) {
                continue;
            }
            if pc != entry && self.code.prog.task_at(pc).is_some() {
                self.diag(
                    Severity::Error,
                    entry,
                    Some(pc),
                    format!("control falls through into the task at {pc:#x} without a stop bit"),
                );
                continue;
            }
            let Some(instr) = self.code.prog.instr_at(pc) else {
                self.diag(
                    Severity::Error,
                    entry,
                    Some(pc),
                    "control runs off the end of the text segment".into(),
                );
                continue;
            };
            if let Some(d) = instr.op.def() {
                if instr.tags.forward {
                    forwards.insert(d);
                    comm_points.push((pc, RegMask::from_iter([d]), "carries a forward bit"));
                }
            }
            if let Op::Release { regs } = instr.op {
                releases = releases.union(regs.to_mask());
                comm_points.push((pc, regs.to_mask(), "is released"));
            }

            // Halt ends the program regardless of tags.
            if matches!(instr.op, Op::Halt) {
                exits.insert(StaticExit::Halt);
                continue;
            }

            // A stop fires on an edge exactly as it does at run time: the
            // edge is then an exit, and otherwise the task goes on.
            let stop = instr.tags.stop;
            if matches!(stop, StopCond::IfTaken | StopCond::IfNotTaken) && !instr.op.is_branch() {
                self.diag(
                    Severity::Warning,
                    entry,
                    Some(pc),
                    "conditional stop bit on a non-branch instruction".into(),
                );
            }
            for e in self.code.edges(&instr.op, pc) {
                if stop.fires(e.taken) {
                    exits.insert(e.exit);
                    continue;
                }
                if let Op::Jump { link: true, target } = instr.op {
                    if let Some(sum) = self.code.summaries.get(&target).cloned() {
                        // A `halt` or a stop that fires inside the
                        // suppressed call ends this task, as it does at
                        // run time.
                        if sum.halts {
                            exits.insert(StaticExit::Halt);
                        }
                        exits.extend(&sum.stop_exits);
                        forwards = forwards.union(sum.forwards);
                        releases = releases.union(sum.releases);
                        for &at in &sum.internal_stops {
                            self.diag(
                                Severity::Warning,
                                entry,
                                Some(at),
                                format!("stop bit inside function {target:#x} called by this task"),
                            );
                        }
                        for &ij in &sum.indirect_jumps {
                            self.diag(
                                Severity::Warning,
                                entry,
                                Some(ij),
                                "register-indirect control inside a called function cannot \
                                 be verified statically"
                                    .into(),
                            );
                        }
                    }
                    if e.next.is_none() {
                        self.diag(
                            Severity::Warning,
                            entry,
                            Some(pc),
                            format!("call to {target:#x} never returns statically"),
                        );
                    }
                } else if e.next.is_none() {
                    self.diag(
                        Severity::Error,
                        entry,
                        Some(pc),
                        "register-indirect jump at task level without a stop bit \
                         (control would leave the task unmarked)"
                            .into(),
                    );
                }
                work.extend(e.next);
            }
        }

        // Stale-communication check: a forward bit (or `release`) sends a
        // register value to successors exactly once per task, so any later
        // write of the same register inside the task is lost to them — the
        // successor computes on the stale value with no squash to save it.
        for (pc, regs, what) in comm_points {
            self.check_stale_communication(entry, pc, regs, what);
        }

        // Exit-vs-descriptor check.
        for exit in &exits {
            let ok = match exit {
                StaticExit::Addr(a) => desc.target_index_for(*a).is_some(),
                StaticExit::Return => desc.targets.iter().any(|t| t.kind == TargetKind::Return),
                StaticExit::Halt => desc.targets.iter().any(|t| t.kind == TargetKind::Halt),
                StaticExit::Unverifiable(pc) => {
                    self.diag(
                        Severity::Warning,
                        entry,
                        Some(*pc),
                        "register-indirect task exit cannot be verified statically".into(),
                    );
                    true
                }
            };
            if !ok {
                self.diag(
                    Severity::Error,
                    entry,
                    None,
                    format!("exit {exit:?} is not among its descriptor targets"),
                );
            }
        }

        // Create-mask checks.
        let communicated = forwards.union(releases);
        for r in communicated.difference(desc.create).iter() {
            self.diag(
                Severity::Error,
                entry,
                None,
                format!("{r} is forwarded or released but missing from the create mask"),
            );
        }
        let auto = desc.create.difference(communicated);
        if !auto.is_empty() {
            self.diag(
                Severity::Info,
                entry,
                None,
                format!(
                    "create-mask registers {auto} have no forward bit or release on any \
                     path; successors wait for end-of-task auto-release"
                ),
            );
        }

        TaskAnalysis {
            entry,
            reachable: seen.len(),
            exits: exits.into_iter().collect(),
            forwards,
            releases,
        }
    }
}

/// Checks every task annotation in `prog` against its code.
///
/// Malformed descriptor layouts (a map key disagreeing with its
/// descriptor's entry, a misaligned entry, an entry outside the text
/// segment) produce error diagnostics and skip the per-task walk — they
/// never panic the checker.
pub fn check_program(prog: &Program) -> Report {
    let mut checker = Checker { code: Code::new(prog), diags: Vec::new() };
    let mut tasks = Vec::new();
    for &entry in prog.tasks.keys() {
        if checker.check_descriptor_layout(entry) {
            tasks.push(checker.check_task(entry));
        }
    }
    Report { tasks, diagnostics: checker.diags }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_isa::{AluImmOp, Instr, Op, TaskDescriptor, TaskTarget};

    /// A minimal two-instruction program with one well-formed task.
    fn tiny_program() -> Program {
        let mut prog = Program::new();
        prog.text = vec![
            Instr::new(Op::AluImm { op: AluImmOp::Addiu, rt: Reg::int(2), rs: Reg::ZERO, imm: 1 }),
            Instr::new(Op::Halt),
        ];
        let entry = prog.text_base;
        prog.entry = entry;
        prog.tasks.insert(
            entry,
            TaskDescriptor::new(entry, RegMask::from_iter([Reg::int(2)]), vec![TaskTarget::halt()]),
        );
        prog
    }

    #[test]
    fn well_formed_layout_passes() {
        let r = check_program(&tiny_program());
        assert!(!r.has_errors(), "{r}");
        assert_eq!(r.tasks.len(), 1);
    }

    #[test]
    fn descriptor_key_entry_mismatch_is_an_error_not_a_panic() {
        // The regression this pins: a descriptor registered under a key
        // that disagrees with its own entry used to reach
        // `task_at(entry).expect("caller verified")` style assumptions.
        let mut prog = tiny_program();
        let desc = prog.tasks.remove(&prog.text_base).unwrap();
        prog.tasks.insert(prog.text_base + 4, desc);
        let r = check_program(&prog);
        assert!(r.has_errors(), "{r}");
        assert!(
            r.diagnostics.iter().any(|d| d.message.contains("declares a different entry")),
            "{r}"
        );
        // The malformed task is skipped, not analysed.
        assert!(r.tasks.is_empty(), "{r}");
    }

    #[test]
    fn entry_outside_text_is_an_error_not_a_panic() {
        let mut prog = tiny_program();
        let far = prog.text_end() + 0x100;
        prog.tasks.insert(far, TaskDescriptor::new(far, RegMask::EMPTY, vec![TaskTarget::halt()]));
        let r = check_program(&prog);
        assert!(r.has_errors(), "{r}");
        assert!(
            r.diagnostics.iter().any(|d| d.message.contains("outside the text segment")),
            "{r}"
        );
    }

    #[test]
    fn misaligned_entry_is_an_error_not_a_panic() {
        let mut prog = tiny_program();
        let odd = prog.text_base + 2;
        prog.tasks.insert(odd, TaskDescriptor::new(odd, RegMask::EMPTY, vec![TaskTarget::halt()]));
        let r = check_program(&prog);
        assert!(r.has_errors(), "{r}");
        assert!(r.diagnostics.iter().any(|d| d.message.contains("not word-aligned")), "{r}");
    }
}
