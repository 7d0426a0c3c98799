//! Automatic task partitioning of plain scalar programs.
//!
//! The paper's multiscalar compiler "walks through the CFG and demarcates
//! tasks" (Section 2.2) and then records, per task, the create mask, the
//! control edges leaving the task (targets), forward bits and release
//! instructions. The hand-annotated workloads in this repository play the
//! role of that compiler's *output*; this module supplies the missing
//! *front half*: given an un-annotated scalar binary, it partitions the
//! task-level code into tasks under a [`PartitionPolicy`] and derives a
//! complete, checker-clean annotation overlay.
//!
//! The partitioner is deliberately conservative. Its proof obligations
//! (DESIGN.md Section 15) are:
//!
//! 1. every emitted program passes [`crate::check_program`] with zero
//!    errors,
//! 2. the multiscalar execution computes the same architectural result as
//!    the scalar input (same data memory, same registers except `$31`,
//!    which legitimately differs when inserted instructions shift code
//!    addresses),
//! 3. the emitted source is deterministic: same input and policy, same
//!    bytes.
//!
//! Functions (`jal` targets and everything reachable from them) are left
//! un-partitioned: they execute as the paper's *suppressed* calls inside
//! whichever task invokes them, and their effects are folded into create
//! masks via [`crate::summarize_functions`].

use crate::summary::{summarize_functions, FnSummary};
use ms_asm::{annotate_source, assemble, Annotations, AsmMode, InsertOp, TaskAnn};
use ms_isa::{Op, Program, Reg, RegMask, StopCond, TargetKind, MAX_TARGETS};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Knobs of the task partitioner. Each field is a policy axis with a
/// stable textual form, so sweeps can treat the partitioner like any
/// other [`SimConfig`](https://docs.rs) knob: the key identifies the
/// policy point in job ids, cache keys and reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPolicy {
    /// Greedy upper bound on task size: once a task has accumulated this
    /// many instructions, the next instruction starts a new task.
    pub max_task_instrs: u32,
    /// Start a new task at every loop head (back-edge target), so one
    /// loop iteration becomes one task — the paper's Figure 4 shape.
    pub loop_heads: bool,
    /// Start a new task after every call site, bounding how much of a
    /// caller rides in the same task as a suppressed call.
    pub call_split: bool,
    /// Derive `!f` forward bits for registers whose final value is
    /// produced early; without them successors wait for end-of-task
    /// auto-release.
    pub forward: bool,
    /// Insert explicit `release` instructions before a task's closing
    /// stop for create-mask registers the task never redefines.
    pub releases: bool,
}

impl Default for PartitionPolicy {
    fn default() -> Self {
        PartitionPolicy {
            max_task_instrs: 32,
            loop_heads: true,
            call_split: false,
            forward: true,
            releases: true,
        }
    }
}

impl PartitionPolicy {
    /// Stable identity of this policy point, safe for cache keys and
    /// reports. Versioned like `SimConfig::stable_key`: any change to
    /// partitioning semantics must bump `part v1`.
    pub fn stable_key(&self) -> String {
        format!(
            "part v1;size={};loops={};calls={};fwd={};rel={}",
            self.max_task_instrs,
            u8::from(self.loop_heads),
            u8::from(self.call_split),
            u8::from(self.forward),
            u8::from(self.releases),
        )
    }

    /// Parses a key produced by [`PartitionPolicy::stable_key`].
    ///
    /// # Errors
    /// Returns a message naming the malformed field, unknown version or
    /// missing field.
    pub fn from_stable_key(key: &str) -> Result<PartitionPolicy, String> {
        let mut parts = key.split(';');
        let version = parts.next().unwrap_or_default();
        if version != "part v1" {
            return Err(format!("unknown partition policy version `{version}`"));
        }
        let mut policy = PartitionPolicy::default();
        let mut seen = BTreeSet::new();
        for field in parts {
            let (k, v) =
                field.split_once('=').ok_or_else(|| format!("malformed policy field `{field}`"))?;
            policy.apply(k, v)?;
            seen.insert(k.to_string());
        }
        for required in ["size", "loops", "calls", "fwd", "rel"] {
            if !seen.contains(required) {
                return Err(format!("policy key is missing field `{required}`"));
            }
        }
        Ok(policy)
    }

    /// Parses a comma-separated CLI override list (e.g. `size=8,loops=0`)
    /// on top of the default policy. An empty string is the default.
    ///
    /// # Errors
    /// Returns a message naming the unknown or malformed override.
    pub fn parse(overrides: &str) -> Result<PartitionPolicy, String> {
        let mut policy = PartitionPolicy::default();
        for field in overrides.split(',').filter(|f| !f.trim().is_empty()) {
            let (k, v) = field
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("malformed policy override `{field}`"))?;
            policy.apply(k, v)?;
        }
        Ok(policy)
    }

    fn apply(&mut self, k: &str, v: &str) -> Result<(), String> {
        fn flag(k: &str, v: &str) -> Result<bool, String> {
            match v {
                "0" => Ok(false),
                "1" => Ok(true),
                _ => Err(format!("policy field `{k}` wants 0 or 1, got `{v}`")),
            }
        }
        match k {
            "size" => {
                self.max_task_instrs =
                    v.parse::<u32>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("policy field `size` wants a positive integer, got `{v}`")
                    })?;
            }
            "loops" => self.loop_heads = flag(k, v)?,
            "calls" => self.call_split = flag(k, v)?,
            "fwd" => self.forward = flag(k, v)?,
            "rel" => self.releases = flag(k, v)?,
            _ => return Err(format!("unknown policy field `{k}`")),
        }
        Ok(())
    }
}

/// Why a program cannot be partitioned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The input already carries task descriptors or tag bits; the
    /// partitioner only accepts plain scalar programs.
    AlreadyAnnotated,
    /// The program has no text to partition.
    EmptyText,
    /// Scalar assembly of the input source failed.
    Assemble(String),
    /// A register-indirect jump at task level: its successors cannot be
    /// enumerated statically, so no descriptor targets can be derived.
    IndirectControl {
        /// Address of the `jr`/`jalr`.
        pc: u32,
    },
    /// Task-level control reaches an address past the text segment.
    RunsOffText {
        /// Address of the instruction whose successor is out of text.
        pc: u32,
    },
    /// An address is reachable both at task level and inside a called
    /// function; tasks and suppressed-call bodies must not overlap.
    SharedCode {
        /// The doubly-reachable address.
        pc: u32,
    },
    /// A control shape the partitioner declines (e.g. an always-taken
    /// branch as the final text instruction, whose checker-mandated
    /// fall-through target would dangle past the text segment).
    Unsupported {
        /// Address of the offending instruction.
        pc: u32,
        /// What about it is unsupported.
        what: &'static str,
    },
    /// A task could not be split below [`MAX_TARGETS`] descriptor
    /// targets (defensive: the splitter peels blocks until every task
    /// fits, so this indicates an internal invariant violation).
    TooManyTargets {
        /// Entry of the over-full task.
        entry: u32,
    },
    /// The emitted annotated source failed to re-assemble — an internal
    /// emitter bug surfaced as an error instead of a panic.
    Emit(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::AlreadyAnnotated => {
                write!(f, "input already carries multiscalar annotations")
            }
            PartitionError::EmptyText => write!(f, "program has no text segment"),
            PartitionError::Assemble(e) => write!(f, "scalar assembly failed: {e}"),
            PartitionError::IndirectControl { pc } => {
                write!(f, "register-indirect jump at task level at {pc:#x}")
            }
            PartitionError::RunsOffText { pc } => {
                write!(f, "control at {pc:#x} runs off the end of the text segment")
            }
            PartitionError::SharedCode { pc } => {
                write!(f, "address {pc:#x} is reachable both at task level and inside a function")
            }
            PartitionError::Unsupported { pc, what } => write!(f, "{what} at {pc:#x}"),
            PartitionError::TooManyTargets { entry } => {
                write!(f, "task at {entry:#x} cannot be split below {MAX_TARGETS} targets")
            }
            PartitionError::Emit(e) => write!(f, "emitted source failed to assemble: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// The result of a successful partition.
#[derive(Debug)]
pub struct Partitioned {
    /// The annotated assembly source (dual-mode: assembles as both the
    /// multiscalar and the scalar program).
    pub source: String,
    /// The assembled multiscalar binary of [`Partitioned::source`].
    pub program: Program,
    /// The policy that produced this partition.
    pub policy: PartitionPolicy,
    /// Task entry addresses in the *input* (scalar) address space.
    pub entries: Vec<u32>,
    /// Number of tasks (equals `entries.len()`).
    pub task_count: usize,
    /// Number of instructions inserted (releases and boundary jumps).
    pub inserted: usize,
    /// Number of forward bits placed.
    pub forwards: usize,
    /// Number of registers named by inserted releases.
    pub releases: usize,
    /// Size of the largest task, in input instructions.
    pub max_task_instrs: usize,
}

/// Static facts about the task-level code of the input program.
struct Analysis<'a> {
    prog: &'a Program,
    summaries: BTreeMap<u32, FnSummary>,
    /// Every address reachable at task level (functions excluded).
    task_pcs: BTreeSet<u32>,
    /// Maximal runs of consecutive task-level addresses, half-open.
    ranges: Vec<(u32, u32)>,
    /// Task-level control edges, with always-taken branches resolved.
    edges: Vec<(u32, u32)>,
}

/// Task-level successors of `pc` in the scalar program, with always-taken
/// branches resolved to their target. `jal` continues past the call only
/// when the callee can return; the callee body itself is not a successor
/// (it is a suppressed call).
fn scalar_successors(
    prog: &Program,
    summaries: &BTreeMap<u32, FnSummary>,
    pc: u32,
) -> Result<Vec<u32>, PartitionError> {
    let instr = prog.instr_at(pc).expect("caller ensured pc is in text");
    let succ = match instr.op {
        Op::Halt => Vec::new(),
        Op::Jump { link: false, target } => vec![target],
        Op::Jump { link: true, target } => {
            if summaries.get(&target).is_none_or(|s| s.returns) {
                vec![pc + 4]
            } else {
                Vec::new()
            }
        }
        Op::Jr { .. } | Op::Jalr { .. } => return Err(PartitionError::IndirectControl { pc }),
        ref op if op.is_branch() => {
            let t = op.branch_target(pc).expect("is_branch implies a target");
            if op.is_always_taken() {
                vec![t]
            } else {
                vec![pc + 4, t]
            }
        }
        _ => vec![pc + 4],
    };
    for &s in &succ {
        if prog.instr_at(s).is_none() {
            return Err(PartitionError::RunsOffText { pc });
        }
    }
    Ok(succ)
}

/// Collects every address inside the function at `entry` (following the
/// same walk as the summarizer: `jal` assumed to return, callees not
/// entered).
fn function_pcs(prog: &Program, entry: u32) -> BTreeSet<u32> {
    let mut seen = BTreeSet::new();
    let mut work = VecDeque::from([entry]);
    while let Some(pc) = work.pop_front() {
        if !seen.insert(pc) {
            continue;
        }
        let Some(instr) = prog.instr_at(pc) else {
            continue;
        };
        match instr.op {
            Op::Jump { link: false, target } => work.push_back(target),
            Op::Jump { link: true, .. } => work.push_back(pc + 4),
            Op::Jr { .. } | Op::Jalr { .. } | Op::Halt => {}
            ref op if op.is_branch() => {
                work.push_back(pc + 4);
                if let Some(t) = op.branch_target(pc) {
                    work.push_back(t);
                }
            }
            _ => work.push_back(pc + 4),
        }
    }
    seen
}

fn analyze(prog: &Program) -> Result<Analysis<'_>, PartitionError> {
    let summaries = summarize_functions(prog);

    // Task-level reachability from the program entry.
    let mut task_pcs = BTreeSet::new();
    let mut work = VecDeque::from([prog.entry]);
    if prog.instr_at(prog.entry).is_none() {
        return Err(PartitionError::EmptyText);
    }
    let mut edges = Vec::new();
    while let Some(pc) = work.pop_front() {
        if !task_pcs.insert(pc) {
            continue;
        }
        for s in scalar_successors(prog, &summaries, pc)? {
            edges.push((pc, s));
            work.push_back(s);
        }
    }
    edges.sort_unstable();
    edges.dedup();

    // Suppressed-call bodies must be disjoint from task-level code.
    for &entry in summaries.keys() {
        for pc in function_pcs(prog, entry) {
            if task_pcs.contains(&pc) {
                return Err(PartitionError::SharedCode { pc });
            }
        }
    }

    // Maximal contiguous runs of task-level addresses.
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    for &pc in &task_pcs {
        match ranges.last_mut() {
            Some((_, end)) if *end == pc => *end = pc + 4,
            _ => ranges.push((pc, pc + 4)),
        }
    }

    Ok(Analysis { prog, summaries, task_pcs, ranges, edges })
}

impl Analysis<'_> {
    fn range_of(&self, pc: u32) -> (u32, u32) {
        *self
            .ranges
            .iter()
            .find(|&&(s, e)| pc >= s && pc < e)
            .expect("pc is task-level, so it lies in a range")
    }

    /// The entry of the task that owns `pc`: tasks tile each range, so
    /// this is the greatest entry at or below `pc` within its range.
    fn task_of(&self, entries: &BTreeSet<u32>, pc: u32) -> u32 {
        let (start, _) = self.range_of(pc);
        *entries.range(start..=pc).next_back().expect("every range start is an entry")
    }

    /// The half-open address span of the task entered at `entry`.
    fn span_of(&self, entries: &BTreeSet<u32>, entry: u32) -> (u32, u32) {
        let (_, range_end) = self.range_of(entry);
        let end = entries.range(entry + 4..range_end).next().copied().unwrap_or(range_end);
        (entry, end)
    }
}

/// How one instruction participates in its task's boundary: the stop
/// condition it must carry, the static exits it contributes, and whether
/// a boundary jump must be inserted after it (the `jal` case: a stop bit
/// on the call itself would make the checker treat the *callee* as the
/// exit, so the stop rides on an inserted `j`).
#[derive(Clone, Debug, Default)]
struct Boundary {
    stop: StopCond,
    exits: Vec<TargetKind>,
    insert_jump: Option<u32>,
}

/// Decides the boundary role of `pc` inside its task `span` given the
/// current entry set. Mirrors the checker's task walk exactly:
///
/// * a stop-always on a *branch* records both the branch target and the
///   fall-through as exits, so an always-taken `b!s` must list both;
/// * a conditional stop keeps the task walking on the non-stopping side,
///   so `!st`/`!sn` are only used when that side stays inside the task;
/// * `jal` is never stop-tagged (see [`Boundary::insert_jump`]);
/// * an untagged always-taken branch still has its fall-through walked by
///   the checker, so when the fall-through is a task entry the branch
///   carries `!sn` — a stop that provably never fires but marks the edge.
fn classify(
    a: &Analysis<'_>,
    entries: &BTreeSet<u32>,
    span: (u32, u32),
    pc: u32,
) -> Result<Boundary, PartitionError> {
    let instr = a.prog.instr_at(pc).expect("span addresses are in text");
    let is_entry = |v: u32| entries.contains(&v);
    let b = |stop, exits, insert_jump| Boundary { stop, exits, insert_jump };
    let none = Boundary::default();
    Ok(match instr.op {
        Op::Halt => b(StopCond::None, vec![TargetKind::Halt], None),
        Op::Jump { link: false, target } => {
            if is_entry(target) {
                b(StopCond::Always, vec![TargetKind::Addr(target)], None)
            } else {
                none
            }
        }
        Op::Jump { link: true, target } => {
            let returns = a.summaries.get(&target).is_none_or(|s| s.returns);
            if returns && is_entry(pc + 4) {
                b(StopCond::None, vec![TargetKind::Addr(pc + 4)], Some(pc + 4))
            } else {
                none
            }
        }
        Op::Jr { .. } | Op::Jalr { .. } => {
            return Err(PartitionError::IndirectControl { pc });
        }
        ref op if op.is_branch() => {
            let t = op.branch_target(pc).expect("is_branch implies a target");
            if op.is_always_taken() {
                if is_entry(t) {
                    if pc + 4 < span.1 {
                        // Fall-through stays inside the task: the stop
                        // fires only when taken (i.e. always).
                        b(StopCond::IfTaken, vec![TargetKind::Addr(t)], None)
                    } else {
                        // Stop-always on a branch: the checker demands
                        // the (dead) fall-through among the targets too.
                        if a.prog.instr_at(pc + 4).is_none() {
                            return Err(PartitionError::Unsupported {
                                pc,
                                what: "always-taken branch at the end of the text segment",
                            });
                        }
                        b(
                            StopCond::Always,
                            vec![TargetKind::Addr(t), TargetKind::Addr(pc + 4)],
                            None,
                        )
                    }
                } else if pc + 4 >= span.1 {
                    // Target stays in the task but the checker still
                    // walks the dead fall-through, which would escape the
                    // span; `!sn` marks it as a (never-taken) exit.
                    if a.prog.instr_at(pc + 4).is_none() {
                        return Err(PartitionError::Unsupported {
                            pc,
                            what: "always-taken branch at the end of the text segment",
                        });
                    }
                    b(StopCond::IfNotTaken, vec![TargetKind::Addr(pc + 4)], None)
                } else {
                    none
                }
            } else {
                match (is_entry(t), is_entry(pc + 4)) {
                    (true, true) => b(
                        StopCond::Always,
                        vec![TargetKind::Addr(t), TargetKind::Addr(pc + 4)],
                        None,
                    ),
                    (true, false) => b(StopCond::IfTaken, vec![TargetKind::Addr(t)], None),
                    (false, true) => b(StopCond::IfNotTaken, vec![TargetKind::Addr(pc + 4)], None),
                    (false, false) => none,
                }
            }
        }
        _ => {
            if is_entry(pc + 4) {
                b(StopCond::Always, vec![TargetKind::Addr(pc + 4)], None)
            } else {
                none
            }
        }
    })
}

/// The deduplicated descriptor targets of the task at `entry`, in first
/// contribution order.
fn targets_of(
    a: &Analysis<'_>,
    entries: &BTreeSet<u32>,
    entry: u32,
) -> Result<Vec<TargetKind>, PartitionError> {
    let span = a.span_of(entries, entry);
    let mut targets = Vec::new();
    let mut pc = span.0;
    while pc < span.1 {
        for exit in classify(a, entries, span, pc)?.exits {
            if !targets.contains(&exit) {
                targets.push(exit);
            }
        }
        pc += 4;
    }
    Ok(targets)
}

/// Builds the final entry set: range starts, policy-selected boundaries,
/// then a fixpoint making every cross-task edge land on an entry and
/// splitting any task with more than [`MAX_TARGETS`] targets.
fn place_entries(
    a: &Analysis<'_>,
    policy: &PartitionPolicy,
) -> Result<BTreeSet<u32>, PartitionError> {
    let mut entries: BTreeSet<u32> = a.ranges.iter().map(|&(s, _)| s).collect();

    if policy.loop_heads {
        for &(u, v) in &a.edges {
            if v <= u {
                entries.insert(v);
            }
        }
    }
    if policy.call_split {
        for &pc in &a.task_pcs {
            if matches!(a.prog.instr_at(pc).map(|i| i.op), Some(Op::Jump { link: true, .. }))
                && a.task_pcs.contains(&(pc + 4))
            {
                entries.insert(pc + 4);
            }
        }
    }
    // Greedy size cap. A fall-through boundary is legal at any address
    // (the preceding instruction takes a plain `!s`), so no leader set
    // is needed.
    for &(start, end) in &a.ranges {
        let mut count = 0u32;
        let mut pc = start;
        while pc < end {
            if entries.contains(&pc) {
                count = 0;
            } else if count >= policy.max_task_instrs {
                entries.insert(pc);
                count = 0;
            }
            count += 1;
            pc += 4;
        }
    }

    loop {
        // Every cross-task edge must enter at the target task's entry:
        // the checker reports fall-through or branches into a task's
        // middle, and the sequencer could not describe such an edge.
        let mut changed = false;
        for &(u, v) in &a.edges {
            if a.task_of(&entries, u) != a.task_of(&entries, v) && !entries.contains(&v) {
                entries.insert(v);
                changed = true;
            }
        }
        if changed {
            continue;
        }
        // Descriptors hold at most MAX_TARGETS targets; halve any task
        // that exceeds it. A single instruction contributes at most two
        // targets, so halving terminates.
        for &entry in entries.clone().iter() {
            if targets_of(a, &entries, entry)?.len() > MAX_TARGETS {
                let span = a.span_of(&entries, entry);
                let instrs = (span.1 - span.0) / 4;
                let mid = span.0 + 4 * (instrs / 2);
                if mid == span.0 || !entries.insert(mid) {
                    return Err(PartitionError::TooManyTargets { entry });
                }
                changed = true;
                break;
            }
        }
        if !changed {
            return Ok(entries);
        }
    }
}

/// Successors of `pc` as the *checker's stale-communication walk* will
/// see them in the emitted program, expressed in input addresses: stop
/// bits end the path, conditional stops keep the non-stopping side, an
/// inserted boundary jump ends the path after a `jal`.
fn stale_successors(a: &Analysis<'_>, boundaries: &BTreeMap<u32, Boundary>, pc: u32) -> Vec<u32> {
    let Some(instr) = a.prog.instr_at(pc) else {
        return Vec::new();
    };
    let always = instr.op.is_always_taken();
    let is_real_branch = instr.op.is_branch() && !always;
    let boundary = boundaries.get(&pc);
    match boundary.map_or(StopCond::None, |b| b.stop) {
        StopCond::Always => return Vec::new(),
        StopCond::IfTaken if is_real_branch => return vec![pc + 4],
        StopCond::IfNotTaken if is_real_branch => {
            return instr.op.branch_target(pc).into_iter().collect();
        }
        StopCond::IfTaken if always => return Vec::new(),
        StopCond::IfNotTaken if always => {
            return instr.op.branch_target(pc).into_iter().collect();
        }
        _ => {}
    }
    match instr.op {
        Op::Jump { link: false, target } => vec![target],
        Op::Jump { link: true, .. } => {
            if boundary.is_some_and(|b| b.insert_jump.is_some()) {
                Vec::new() // the inserted `j!s` ends the walk
            } else {
                vec![pc + 4] // the checker walks past every other call
            }
        }
        Op::Jr { .. } | Op::Jalr { .. } | Op::Halt => Vec::new(),
        ref op if always => op.branch_target(pc).into_iter().collect(),
        ref op if op.is_branch() => {
            let mut v = vec![pc + 4];
            v.extend(op.branch_target(pc));
            v
        }
        _ => vec![pc + 4],
    }
}

/// Whether any write of `reg` (a task-level def or a callee write) is
/// reachable from `pc` on the checker's stale walk. Walking through the
/// task's own entry models loop-carried staleness; other entries end the
/// walk just as the checker's does.
fn write_reachable(
    a: &Analysis<'_>,
    entries: &BTreeSet<u32>,
    boundaries: &BTreeMap<u32, Boundary>,
    own_entry: u32,
    from: u32,
    reg: Reg,
) -> bool {
    let mut seen = BTreeSet::new();
    let mut work: VecDeque<u32> = stale_successors(a, boundaries, from).into();
    while let Some(pc) = work.pop_front() {
        if !seen.insert(pc) {
            continue;
        }
        if pc != own_entry && entries.contains(&pc) {
            continue;
        }
        let Some(instr) = a.prog.instr_at(pc) else {
            continue;
        };
        let mut written = RegMask::EMPTY;
        if let Some(d) = instr.op.def() {
            written.insert(d);
        }
        if let Op::Jump { link: true, target } = instr.op {
            if let Some(sum) = a.summaries.get(&target) {
                written = written.union(sum.writes);
            }
        }
        if written.contains(reg) {
            return true;
        }
        work.extend(stale_successors(a, boundaries, pc));
    }
    false
}

/// Partitions a plain scalar `prog` into tasks under `policy` and derives
/// a complete annotation overlay: task descriptors (entry, create mask,
/// targets), stop bits, forward bits and optional explicit releases.
///
/// # Errors
/// Returns a [`PartitionError`] when the input is already annotated, has
/// task-level indirect control, overlaps task and function code, or hits
/// a declined control shape.
pub fn partition_program(
    prog: &Program,
    policy: &PartitionPolicy,
) -> Result<Partitioned, PartitionError> {
    if prog.text.is_empty() {
        return Err(PartitionError::EmptyText);
    }
    if !prog.tasks.is_empty()
        || prog.text.iter().any(|i| i.tags.forward || i.tags.stop != StopCond::None)
        || prog.text.iter().any(|i| matches!(i.op, Op::Release { .. }))
    {
        return Err(PartitionError::AlreadyAnnotated);
    }

    let a = analyze(prog)?;
    let entries = place_entries(&a, policy)?;

    // Boundary classification for every task-level instruction.
    let mut boundaries: BTreeMap<u32, Boundary> = BTreeMap::new();
    let mut max_task_instrs = 0usize;
    for &entry in &entries {
        let span = a.span_of(&entries, entry);
        max_task_instrs = max_task_instrs.max(((span.1 - span.0) / 4) as usize);
        let mut pc = span.0;
        while pc < span.1 {
            let b = classify(&a, &entries, span, pc)?;
            if b.stop != StopCond::None || !b.exits.is_empty() || b.insert_jump.is_some() {
                boundaries.insert(pc, b);
            }
            pc += 4;
        }
    }

    // Create masks: every task-level def in the span plus each callee's
    // write set. Over-approximating with span-dead code is harmless (the
    // checker only requires communicated registers to be covered).
    let mut creates: BTreeMap<u32, RegMask> = BTreeMap::new();
    for &entry in &entries {
        let span = a.span_of(&entries, entry);
        let mut create = RegMask::EMPTY;
        let mut pc = span.0;
        while pc < span.1 {
            let instr = a.prog.instr_at(pc).expect("span addresses are in text");
            if let Some(d) = instr.op.def() {
                create.insert(d);
            }
            if let Op::Jump { link: true, target } = instr.op {
                if let Some(sum) = a.summaries.get(&target) {
                    create = create.union(sum.writes);
                }
            }
            pc += 4;
        }
        create.remove(Reg::ZERO);
        creates.insert(entry, create);
    }

    // Forward bits: a task-level write whose register is never written
    // again on any checker-visible path gets `!f` — the value is final,
    // successors need not wait for end-of-task auto-release. Multiple
    // mutually exclusive final writes may each carry the bit (Figure 4).
    let mut forward_pcs: BTreeSet<u32> = BTreeSet::new();
    if policy.forward {
        for &entry in &entries {
            let span = a.span_of(&entries, entry);
            let mut pc = span.0;
            while pc < span.1 {
                let instr = a.prog.instr_at(pc).expect("span addresses are in text");
                let candidate = match instr.op {
                    Op::Jump { link: true, .. } => None, // $31 shifts with inserted code
                    ref op => op.def().filter(|d| *d != Reg::ZERO),
                };
                if let Some(d) = candidate {
                    if !write_reachable(&a, &entries, &boundaries, entry, pc, d) {
                        forward_pcs.insert(pc);
                    }
                }
                pc += 4;
            }
        }
    }

    // Explicit releases: when a task closes on a stop-always boundary,
    // create-mask registers that were neither forwarded nor defined at
    // the closing instruction are released just before it, sparing
    // successors the end-of-task auto-release wait.
    let mut inserts: BTreeMap<u32, Vec<InsertOp>> = BTreeMap::new();
    let mut released = 0usize;
    for &entry in &entries {
        let span = a.span_of(&entries, entry);
        if let Some(b) = boundaries.get(&(span.1 - 4)) {
            if let Some(target) = b.insert_jump {
                inserts.entry(target).or_default().push(InsertOp::Jump { target, stop: true });
            }
        }
        if !policy.releases {
            continue;
        }
        let last_pc = span.1 - 4;
        let Some(b) = boundaries.get(&last_pc) else {
            continue;
        };
        let last = a.prog.instr_at(last_pc).expect("span addresses are in text");
        let mut rel = creates[&entry];
        let mut pc = span.0;
        while pc < span.1 {
            if forward_pcs.contains(&pc) {
                if let Some(d) = a.prog.instr_at(pc).and_then(|i| i.op.def()) {
                    rel.remove(d);
                }
            }
            pc += 4;
        }
        let (key, front) = if b.insert_jump.is_some() {
            // Release between the call and the inserted boundary jump.
            (span.1, true)
        } else if b.stop == StopCond::Always {
            if let Some(d) = last.op.def() {
                rel.remove(d); // the closing instruction writes after us
            }
            (last_pc, false)
        } else {
            continue; // conditional exits keep executing: no safe point
        };
        rel.remove(Reg::ZERO);
        if rel.is_empty() {
            continue;
        }
        released += rel.iter().count();
        let op = InsertOp::Release(rel.iter().collect());
        let slot = inserts.entry(key).or_default();
        if front {
            slot.insert(0, op);
        } else {
            slot.push(op);
        }
    }

    // Assemble the overlay and emit.
    let mut ann = Annotations::default();
    for (&pc, b) in &boundaries {
        if b.stop != StopCond::None || forward_pcs.contains(&pc) {
            let base = a.prog.instr_at(pc).expect("boundary pcs are in text").tags;
            ann.tags.insert(
                pc,
                ms_isa::TagBits {
                    forward: base.forward || forward_pcs.contains(&pc),
                    stop: b.stop,
                },
            );
        }
    }
    for &pc in &forward_pcs {
        ann.tags
            .entry(pc)
            .or_insert(ms_isa::TagBits { forward: true, stop: StopCond::None })
            .forward = true;
    }
    for &entry in &entries {
        let mut targets = targets_of(&a, &entries, entry)?;
        if targets.is_empty() {
            // A task that can never exit (an intra-task infinite loop)
            // still needs a descriptor target; point it at itself.
            targets.push(TargetKind::Addr(entry));
        }
        ann.tasks.insert(entry, TaskAnn { create: creates[&entry], targets });
    }
    ann.insert_before = inserts;

    let source = annotate_source(prog, &ann);
    let program =
        assemble(&source, AsmMode::Multiscalar).map_err(|e| PartitionError::Emit(e.to_string()))?;
    let inserted = program.text.len() - prog.text.len();

    Ok(Partitioned {
        source,
        program,
        policy: policy.clone(),
        entries: entries.iter().copied().collect(),
        task_count: ann.tasks.len(),
        inserted,
        forwards: forward_pcs.len(),
        releases: released,
        max_task_instrs,
    })
}

/// Assembles `src` in scalar mode (dropping any multiscalar annotations
/// it may carry) and partitions the result under `policy`.
///
/// # Errors
/// Returns [`PartitionError::Assemble`] when the source does not
/// assemble, otherwise whatever [`partition_program`] reports.
pub fn partition_source(
    src: &str,
    policy: &PartitionPolicy,
) -> Result<Partitioned, PartitionError> {
    let scalar =
        assemble(src, AsmMode::Scalar).map_err(|e| PartitionError::Assemble(e.to_string()))?;
    partition_program(&scalar, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_program;

    const LOOPY: &str = "
.data
arr: .word 1, 2, 3, 4
out: .space 32

.text
main:
    li $16, 4
    li $2, 0
    la $8, arr
LOOP:
    lw $9, 0($8)
    addu $2, $2, $9
    addiu $8, $8, 4
    addiu $16, $16, -1
    bne $16, $0, LOOP
    la $10, out
    sw $2, 0($10)
    halt
";

    const CALLS: &str = "
main:
    li $4, 3
    jal double
    jal double
    halt
double:
    addu $4, $4, $4
    jr $31
";

    fn checked(src: &str, policy: &PartitionPolicy) -> Partitioned {
        let part = partition_source(src, policy).expect("partitions");
        let report = check_program(&part.program);
        assert!(
            !report.has_errors(),
            "checker rejects emitted program:\n{report}\n{}",
            part.source
        );
        part
    }

    #[test]
    fn loop_program_partitions_cleanly() {
        let part = checked(LOOPY, &PartitionPolicy::default());
        // Loop-head splitting puts the loop body in its own task.
        assert!(part.task_count >= 2, "{}", part.source);
        assert!(part.forwards > 0, "{}", part.source);
    }

    #[test]
    fn size_cap_produces_more_tasks() {
        let coarse = checked(LOOPY, &PartitionPolicy { max_task_instrs: 64, ..Default::default() });
        let fine = checked(LOOPY, &PartitionPolicy { max_task_instrs: 2, ..Default::default() });
        assert!(
            fine.task_count > coarse.task_count,
            "{} vs {}",
            fine.task_count,
            coarse.task_count
        );
        assert!(fine.max_task_instrs <= 2 + 1, "{}", fine.max_task_instrs);
    }

    #[test]
    fn call_split_starts_a_task_after_each_call() {
        let merged = checked(CALLS, &PartitionPolicy { call_split: false, ..Default::default() });
        let split = checked(CALLS, &PartitionPolicy { call_split: true, ..Default::default() });
        assert!(split.task_count > merged.task_count, "{}", split.source);
        // The boundary after a call is an inserted `j!s`, never a stop
        // bit on the `jal` itself.
        assert!(split.source.contains("j!s"), "{}", split.source);
        assert!(!split.source.contains("jal!"), "{}", split.source);
    }

    #[test]
    fn releases_ride_before_the_closing_stop() {
        let part = checked(LOOPY, &PartitionPolicy { forward: false, ..Default::default() });
        assert!(part.releases > 0, "{}", part.source);
        assert!(part.source.contains("release"), "{}", part.source);
    }

    #[test]
    fn annotated_input_is_rejected() {
        let src = "main:\n.task targets=halt create=$2\nA:\n li!f $2, 1\n halt\n";
        let prog = assemble(src, AsmMode::Multiscalar).unwrap();
        match partition_program(&prog, &PartitionPolicy::default()) {
            Err(PartitionError::AlreadyAnnotated) => {}
            other => panic!("expected AlreadyAnnotated, got {:?}", other.map(|p| p.source)),
        }
        // Scalar-stripping the same source makes it partitionable.
        partition_source(src, &PartitionPolicy::default()).expect("stripped input partitions");
    }

    #[test]
    fn task_level_indirect_jump_is_rejected() {
        let src = "main:\n la $8, main\n jr $8\n";
        match partition_source(src, &PartitionPolicy::default()) {
            Err(PartitionError::IndirectControl { .. }) => {}
            other => panic!("expected IndirectControl, got {other:?}"),
        }
    }

    #[test]
    fn stable_key_round_trips() {
        for policy in [
            PartitionPolicy::default(),
            PartitionPolicy {
                max_task_instrs: 7,
                loop_heads: false,
                call_split: true,
                forward: false,
                releases: false,
            },
        ] {
            let key = policy.stable_key();
            assert_eq!(PartitionPolicy::from_stable_key(&key), Ok(policy.clone()), "{key}");
        }
        assert!(PartitionPolicy::from_stable_key("part v0;size=1").is_err());
        assert!(PartitionPolicy::from_stable_key("part v1;size=8").is_err(), "missing fields");
    }

    #[test]
    fn cli_overrides_parse() {
        let p = PartitionPolicy::parse("size=8,loops=0,rel=0").unwrap();
        assert_eq!(p.max_task_instrs, 8);
        assert!(!p.loop_heads);
        assert!(!p.releases);
        assert_eq!(PartitionPolicy::parse("").unwrap(), PartitionPolicy::default());
        assert!(PartitionPolicy::parse("bogus=1").is_err());
        assert!(PartitionPolicy::parse("size=0").is_err());
    }

    #[test]
    fn emitted_source_is_deterministic() {
        let a = checked(LOOPY, &PartitionPolicy::default());
        let b = checked(LOOPY, &PartitionPolicy::default());
        assert_eq!(a.source, b.source);
    }
}
