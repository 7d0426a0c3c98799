//! Task-region discovery and annotation checking.

use crate::summary::{summarize_functions, FnSummary};
use ms_isa::{Op, Program, Reg, RegMask, StopCond, TargetKind};
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

struct Checker<'a> {
    prog: &'a Program,
    summaries: BTreeMap<u32, FnSummary>,
    diags: Vec<Diagnostic>,
}

impl Checker<'_> {
    fn diag(&mut self, severity: Severity, task: u32, pc: Option<u32>, message: String) {
        self.diags.push(Diagnostic { severity, task: Some(task), pc, message });
    }

    /// Intra-task control successors of `pc`, honouring stop bits the same
    /// way the main task walk does (a firing stop ends the task-level path).
    ///
    /// With `only_unconditional`, successors that depend on a conditional
    /// branch outcome are dropped, so reachability through the remaining
    /// edges means "executes whenever `pc` does".
    fn intra_task_successors(&self, pc: u32, only_unconditional: bool) -> Vec<u32> {
        let Some(instr) = self.prog.instr_at(pc) else {
            return Vec::new();
        };
        if matches!(instr.op, Op::Halt) {
            return Vec::new();
        }
        let always_taken = instr.op.is_always_taken();
        let is_branch = instr.op.is_branch() && !always_taken;
        match instr.tags.stop {
            StopCond::Always => return Vec::new(),
            StopCond::IfTaken if is_branch => {
                return if only_unconditional { Vec::new() } else { vec![pc + 4] };
            }
            StopCond::IfNotTaken if is_branch => {
                return if only_unconditional {
                    Vec::new()
                } else {
                    instr.op.branch_target(pc).into_iter().collect()
                };
            }
            StopCond::IfTaken | StopCond::IfNotTaken if always_taken => {
                // An always-taken branch resolves its conditional stop
                // statically: `!st` fires (exit), `!sn` never does.
                return match instr.tags.stop {
                    StopCond::IfTaken => Vec::new(),
                    _ => instr.op.branch_target(pc).into_iter().collect(),
                };
            }
            _ => {}
        }
        match instr.op {
            Op::Jump { link: false, target } => vec![target],
            // Callee effects are folded in via summaries at the visit site.
            Op::Jump { link: true, .. } => vec![pc + 4],
            Op::Jr { .. } | Op::Jalr { .. } => Vec::new(),
            _ if always_taken => instr.op.branch_target(pc).into_iter().collect(),
            ref op if op.is_branch() => {
                if only_unconditional {
                    Vec::new()
                } else {
                    let mut v = vec![pc + 4];
                    if let Some(t) = op.branch_target(pc) {
                        v.push(t);
                    }
                    v
                }
            }
            _ => vec![pc + 4],
        }
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
        for (only_unconditional, severity) in [(true, Severity::Error), (false, Severity::Warning)]
        {
            let mut live = regs.difference(reported);
            if live.is_empty() {
                continue;
            }
            let mut seen: BTreeSet<u32> = BTreeSet::new();
            let mut work: VecDeque<u32> =
                self.intra_task_successors(comm_pc, only_unconditional).into();
            while let Some(pc) = work.pop_front() {
                if live.is_empty() {
                    break;
                }
                if !seen.insert(pc) {
                    continue;
                }
                if pc != entry && self.prog.task_at(pc).is_some() {
                    continue; // fall-through into another task is reported separately
                }
                let Some(instr) = self.prog.instr_at(pc) else {
                    continue;
                };
                let mut written = RegMask::EMPTY;
                if let Some(d) = instr.op.def() {
                    written.insert(d);
                }
                if let Op::Jump { link: true, target } = instr.op {
                    if let Some(sum) = self.summaries.get(&target) {
                        written = written.union(sum.writes);
                    }
                }
                for r in live.iter() {
                    if written.contains(r) {
                        let msg = if only_unconditional {
                            format!(
                                "{r} {what} here but is written again at {pc:#x} before the \
                                 task ends; successors receive the stale value"
                            )
                        } else {
                            format!(
                                "{r} {what} here but may be written again at {pc:#x} on a \
                                 conditional path; if both execute, successors receive the \
                                 stale value"
                            )
                        };
                        self.diag(severity, entry, Some(comm_pc), msg);
                        reported.insert(r);
                        live.remove(r);
                    }
                }
                for s in self.intra_task_successors(pc, only_unconditional) {
                    work.push_back(s);
                }
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
        let Some(desc) = self.prog.task_at(key) else {
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
        if key < self.prog.text_base || key >= self.prog.text_end() {
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
        let Some(desc) = self.prog.task_at(entry) else {
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
            if pc != entry && self.prog.task_at(pc).is_some() {
                self.diag(
                    Severity::Error,
                    entry,
                    Some(pc),
                    format!("control falls through into the task at {pc:#x} without a stop bit"),
                );
                continue;
            }
            let Some(instr) = self.prog.instr_at(pc) else {
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

            let is_branch = instr.op.is_branch();
            match instr.tags.stop {
                StopCond::Always => {
                    match instr.op {
                        Op::Jump { target, .. } => {
                            exits.insert(StaticExit::Addr(target));
                        }
                        Op::Jr { rs } => {
                            if rs == Reg::RA {
                                exits.insert(StaticExit::Return);
                            } else {
                                exits.insert(StaticExit::Unverifiable(pc));
                            }
                        }
                        Op::Jalr { .. } => {
                            exits.insert(StaticExit::Unverifiable(pc));
                        }
                        ref op if op.is_branch() => {
                            if let Some(t) = op.branch_target(pc) {
                                exits.insert(StaticExit::Addr(t));
                            }
                            exits.insert(StaticExit::Addr(pc + 4));
                        }
                        _ => {
                            exits.insert(StaticExit::Addr(pc + 4));
                        }
                    }
                    continue; // the path ends at a stop-always
                }
                StopCond::IfTaken if is_branch => {
                    if let Some(t) = instr.op.branch_target(pc) {
                        exits.insert(StaticExit::Addr(t));
                    }
                    work.push_back(pc + 4); // not-taken continues the task
                    continue;
                }
                StopCond::IfNotTaken if is_branch => {
                    exits.insert(StaticExit::Addr(pc + 4));
                    if let Some(t) = instr.op.branch_target(pc) {
                        work.push_back(t); // taken continues the task
                    }
                    continue;
                }
                StopCond::IfTaken | StopCond::IfNotTaken => {
                    self.diag(
                        Severity::Warning,
                        entry,
                        Some(pc),
                        "conditional stop bit on a non-branch instruction".into(),
                    );
                }
                StopCond::None => {}
            }

            match instr.op {
                Op::Jump { link: false, target } => work.push_back(target),
                Op::Jump { link: true, target } => {
                    if let Some(sum) = self.summaries.get(&target).cloned() {
                        forwards = forwards.union(sum.forwards);
                        releases = releases.union(sum.releases);
                        for stop in &sum.internal_stops {
                            self.diag(
                                Severity::Warning,
                                entry,
                                Some(*stop),
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
                        if sum.returns {
                            work.push_back(pc + 4);
                        } else {
                            self.diag(
                                Severity::Warning,
                                entry,
                                Some(pc),
                                format!("call to {target:#x} never returns statically"),
                            );
                        }
                    } else {
                        work.push_back(pc + 4);
                    }
                }
                Op::Jr { .. } | Op::Jalr { .. } => {
                    self.diag(
                        Severity::Error,
                        entry,
                        Some(pc),
                        "register-indirect jump at task level without a stop bit \
                         (control would leave the task unmarked)"
                            .into(),
                    );
                }
                ref op if op.is_branch() => {
                    work.push_back(pc + 4);
                    if let Some(t) = op.branch_target(pc) {
                        work.push_back(t);
                    }
                }
                _ => work.push_back(pc + 4),
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
    let mut checker = Checker { prog, summaries: summarize_functions(prog), diags: Vec::new() };
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
