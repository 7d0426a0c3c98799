//! The processing unit.
//!
//! "Each of these units fetches and executes instructions belonging to its
//! assigned task" (paper abstract). The pipeline is the paper's
//! "traditional 5 stage pipeline (IF/ID/EX/MEM/WB) which can be configured
//! with in-order/out-of-order and 1-way/2-way issue characteristics.
//! Instructions complete out-of-order and are serviced by a collection of
//! pipelined functional units."
//!
//! The model is functional-first: an instruction's architectural effect is
//! computed when it *issues* (in program order for in-order units; under
//! conservative scoreboard constraints for out-of-order units), and its
//! timing is tracked through per-register ready cycles and memory-system
//! completion cycles with full bypassing. Fetch follows fall-through
//! (static not-taken); taken branches resolve at issue and pay a 2-cycle
//! redirect, statically-targeted jumps redirect at fetch with a 1-cycle
//! bubble, and register-indirect jumps stall fetch until they issue. No
//! instruction issues past an unresolved (un-issued) control instruction,
//! so intra-task execution is never control-speculative — task-level
//! speculation is the multiscalar mechanism, and intra-unit speculation is
//! not part of the paper's unit model.

use crate::exec::{execute, extend_load, MemRequest};
use crate::fu::{FuPool, LatencyTable};
use crate::regfile::{ReadStatus, RegFile};
use ms_isa::{Instr, InstrMeta, Op, PredecodedProgram, Reg, RegMask, StopCond, NUM_REGS};
use ms_memsys::{Arb, DataBanks, ICache, ICacheConfig, MemBus, Memory};
use ms_trace::{NullSink, StallReason, TraceEvent, TraceSink};
use std::collections::VecDeque;

/// Static configuration of one processing unit.
#[derive(Clone, Copy, Debug)]
pub struct UnitConfig {
    /// Instructions issued per cycle (paper: 1 or 2).
    pub issue_width: usize,
    /// Out-of-order issue within the window (paper: in-order or OoO).
    pub ooo: bool,
    /// How many decoded instructions the OoO issue logic considers.
    pub window: usize,
    /// Capacity of the decoded-instruction buffer.
    pub fetch_buffer: usize,
    /// Operation latencies.
    pub latencies: LatencyTable,
    /// Instruction-cache configuration.
    pub icache: ICacheConfig,
}

impl Default for UnitConfig {
    fn default() -> Self {
        UnitConfig {
            issue_width: 1,
            ooo: false,
            window: 16,
            fetch_buffer: 16,
            latencies: LatencyTable::default(),
            icache: ICacheConfig::default(),
        }
    }
}

/// Ports into the shared memory system, passed to [`ProcessingUnit::tick`].
pub struct MemPorts<'a> {
    /// Architectural memory.
    pub mem: &'a mut Memory,
    /// The shared memory bus.
    pub bus: &'a mut MemBus,
    /// The banked data cache.
    pub banks: &'a mut DataBanks,
    /// The ARB; `None` in scalar mode (direct, non-speculative memory).
    pub arb: Option<&'a mut Arb>,
    /// This unit's ARB stage index.
    pub stage: usize,
    /// Number of currently active tasks (ARB rank horizon).
    pub active_ranks: usize,
}

/// How a completed task exited (determines the actual successor task).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitKind {
    /// Fell through the stop instruction to `pc`.
    Fall(u32),
    /// Jumped or branched to `pc`.
    Jump(u32),
    /// Called a function: the successor task is the callee.
    Call {
        /// Callee entry.
        target: u32,
        /// Return address (pushed on the sequencer RAS).
        ret: u32,
    },
    /// Returned through `$ra` to `pc`.
    Return(u32),
    /// The program halts.
    Halt,
}

impl ExitKind {
    /// The successor PC, if the program continues.
    pub fn next_pc(&self) -> Option<u32> {
        match *self {
            ExitKind::Fall(pc) | ExitKind::Jump(pc) | ExitKind::Return(pc) => Some(pc),
            ExitKind::Call { target, .. } => Some(target),
            ExitKind::Halt => None,
        }
    }
}

/// Why a unit made no progress this cycle (paper Section 3 taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallClass {
    /// Issued at least one instruction.
    Busy,
    /// Oldest ready-to-issue instruction waits on an inter-task register.
    InterTask,
    /// Waiting on an intra-task dependence, cache, FU or fetch.
    IntraTask,
    /// Task complete; waiting to be retired at the head.
    WaitRetire,
    /// Blocked allocating ARB space.
    ArbFull,
    /// No task assigned.
    Idle,
}

impl StallClass {
    /// The Section 3 class of a zero-issue cycle charged to `reason`.
    fn of(reason: StallReason) -> StallClass {
        match reason {
            StallReason::RemoteDep => StallClass::InterTask,
            StallReason::WaitRetire => StallClass::WaitRetire,
            StallReason::ArbFull => StallClass::ArbFull,
            StallReason::NoTask | StallReason::SquashRecovery => StallClass::Idle,
            _ => StallClass::IntraTask,
        }
    }
}

/// Per-task cycle/instruction counters, classified per Section 3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskCounters {
    /// Cycles with at least one issue.
    pub busy_cycles: u64,
    /// Cycles stalled on inter-task register communication.
    pub inter_task_cycles: u64,
    /// Cycles stalled on intra-task dependences/fetch/FUs/cache.
    pub intra_task_cycles: u64,
    /// Cycles complete but not yet retired.
    pub wait_retire_cycles: u64,
    /// Cycles stalled on ARB capacity.
    pub arb_stall_cycles: u64,
    /// Instructions issued (architectural path within the task).
    pub instructions: u64,
}

impl TaskCounters {
    /// Total accounted cycles.
    pub fn total_cycles(&self) -> u64 {
        self.busy_cycles
            + self.inter_task_cycles
            + self.intra_task_cycles
            + self.wait_retire_cycles
            + self.arb_stall_cycles
    }

    fn count(&mut self, class: StallClass) {
        match class {
            StallClass::Busy => self.busy_cycles += 1,
            StallClass::InterTask => self.inter_task_cycles += 1,
            StallClass::IntraTask => self.intra_task_cycles += 1,
            StallClass::WaitRetire => self.wait_retire_cycles += 1,
            StallClass::ArbFull => self.arb_stall_cycles += 1,
            StallClass::Idle => {}
        }
    }
}

/// The result of one cycle of execution.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Instructions issued this cycle.
    pub issued: u32,
    /// Stall classification ([`StallClass::Busy`] when `issued > 0`).
    pub stall: Option<StallClass>,
    /// The task's exit, reported exactly once when its stop resolves.
    pub exit: Option<ExitKind>,
    /// ARB stages whose tasks must be squashed (memory-order violations
    /// caused by stores issued this cycle), earliest first.
    pub violations: Vec<usize>,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    seq: u64,
    pc: u32,
    instr: Instr,
    /// Predecoded classification of `instr` (carried from fetch so the
    /// issue and hazard logic never re-match on the `Op`).
    meta: InstrMeta,
    ready_from: u64,
    /// Where fetch continued after this instruction (`None`: fetch
    /// stalled awaiting this instruction's resolution).
    next_fetched: Option<u32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FetchMode {
    Run,
    WaitControl,
    Stopped,
}

#[derive(Clone, Copy, Debug)]
enum Blocked {
    NotDecoded,
    WaitLocal,
    WaitRemote,
    Fu,
    Hazard,
    ArbFull,
}

/// One multiscalar processing unit (also used standalone as the scalar
/// baseline processor).
pub struct ProcessingUnit {
    id: usize,
    cfg: UnitConfig,
    regs: RegFile,
    icache: ICache,
    fu: FuPool,

    active: bool,
    create: RegMask,
    sent: RegMask,
    release_on_arrival: RegMask,

    fetch_pc: u32,
    fetch_ready_at: u64,
    fetch_mode: FetchMode,
    buf: VecDeque<Slot>,
    next_seq: u64,

    outstanding_max: u64,
    stop_resolved: bool,
    exit_kind: Option<ExitKind>,
    exit_reported: bool,
    completion_handled: bool,

    fwd_vals: [u64; NUM_REGS],
    fwd_known: RegMask,
    pending_sends: Vec<(u64, Reg, u64)>,

    counters: TaskCounters,
    fault: Option<String>,
    /// Fine-grained reason for the most recent zero-issue cycle (`None`
    /// while issuing); surfaced in diagnostic snapshots.
    last_stall: Option<StallReason>,
    /// Cumulative stalled cycles per reason over the unit's lifetime,
    /// indexed by [`StallReason::index`]. Deliberately *not* reset on
    /// task assignment: diagnostic snapshots want the whole history,
    /// and per-task slices come from the cycle accountant instead.
    stall_hist: [u64; StallReason::COUNT],
    /// Event-driven parking (DESIGN.md §13): while `now < parked_until`,
    /// [`ProcessingUnit::tick`] skips the issue, fetch and completion
    /// phases, which a [`ProcessingUnit::quiet_until`] certificate proved
    /// idle, and only classifies the cycle. Any external input (ring
    /// delivery, assignment, squash, retirement) clears the park.
    parked_until: u64,
    /// Why the head slot is blocked throughout the park (`None`: the
    /// buffer is empty) — the classifier's one input that is costly to
    /// recompute, and constant over the span.
    parked_head: Option<Blocked>,
    /// Whether ticks may park (off under a fault injector).
    park_enabled: bool,
    /// Host-side telemetry: (probe attempts, successful parks, parked
    /// cycles replayed). Never part of simulated results.
    park_stats: (u64, u64, u64),
}

impl ProcessingUnit {
    /// Builds unit `id` with the given configuration.
    pub fn new(id: usize, cfg: UnitConfig) -> ProcessingUnit {
        ProcessingUnit {
            id,
            cfg,
            regs: RegFile::new(),
            icache: ICache::new(cfg.icache),
            fu: FuPool::new(cfg.issue_width),
            active: false,
            create: RegMask::EMPTY,
            sent: RegMask::EMPTY,
            release_on_arrival: RegMask::EMPTY,
            fetch_pc: 0,
            fetch_ready_at: 0,
            fetch_mode: FetchMode::Stopped,
            buf: VecDeque::new(),
            next_seq: 0,
            outstanding_max: 0,
            stop_resolved: false,
            exit_kind: None,
            exit_reported: false,
            completion_handled: false,
            fwd_vals: [0; NUM_REGS],
            fwd_known: RegMask::EMPTY,
            pending_sends: Vec::new(),
            counters: TaskCounters::default(),
            fault: None,
            last_stall: None,
            stall_hist: [0; StallReason::COUNT],
            parked_until: 0,
            parked_head: None,
            park_enabled: true,
            park_stats: (0, 0, 0),
        }
    }

    /// Host-side parking telemetry: `(probes, parks, cycles replayed)`.
    pub fn park_stats(&self) -> (u64, u64, u64) {
        self.park_stats
    }

    /// Enables or disables event-driven parking (on by default). Parking
    /// is observationally neutral — ticks produce identical outputs,
    /// counters and stall classifications either way — so this only
    /// trades host time.
    pub fn set_parking(&mut self, on: bool) {
        self.park_enabled = on;
        self.parked_until = 0;
    }

    /// This unit's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether a task is currently assigned.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// A simulation fault raised by this unit (e.g. fetch outside text).
    pub fn fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// Assigns a task: entry PC, create mask, the predecessor's forwarded
    /// register view, and the set of registers still awaiting delivery.
    ///
    /// # Panics
    /// Panics if the unit is already active.
    pub fn assign_task(
        &mut self,
        entry: u32,
        create: RegMask,
        vals: &[u64; NUM_REGS],
        awaiting: RegMask,
        now: u64,
    ) {
        assert!(!self.active, "unit {} already has a task", self.id);
        self.active = true;
        self.create = create;
        self.sent = RegMask::EMPTY;
        self.release_on_arrival = RegMask::EMPTY;
        self.regs.install(vals, awaiting);
        self.fetch_pc = entry;
        self.fetch_ready_at = now;
        self.fetch_mode = FetchMode::Run;
        self.buf.clear();
        self.outstanding_max = now;
        self.stop_resolved = false;
        self.exit_kind = None;
        self.exit_reported = false;
        self.completion_handled = false;
        self.fwd_vals = *vals;
        // Pass-through values: everything known that this task does not
        // itself create is immediately visible to successors.
        self.fwd_known = RegMask::from_bits(!0).difference(awaiting).difference(create);
        self.pending_sends.clear();
        self.counters = TaskCounters::default();
        self.fault = None;
        self.last_stall = None;
        self.parked_until = 0;
    }

    /// Squash: discard the task and all pipeline state. The forwarded view
    /// becomes meaningless until the next [`ProcessingUnit::assign_task`].
    pub fn clear(&mut self) {
        self.active = false;
        self.buf.clear();
        self.pending_sends.clear();
        self.fetch_mode = FetchMode::Stopped;
        self.release_on_arrival = RegMask::EMPTY;
        self.parked_until = 0;
    }

    /// Retire: free the unit, keeping the forwarded view for successor
    /// task assignment.
    ///
    /// # Panics
    /// Panics if the task is not complete.
    pub fn retire(&mut self, now: u64) {
        assert!(self.is_complete(now), "retiring incomplete task on unit {}", self.id);
        self.active = false;
        self.fetch_mode = FetchMode::Stopped;
        self.parked_until = 0;
    }

    /// Whether the assigned task has fully completed: its stop resolved,
    /// all issued instructions are done, every value has been forwarded,
    /// and all awaited inter-task values have arrived (so the forwarded
    /// view is total — required for in-order retirement).
    pub fn is_complete(&self, now: u64) -> bool {
        self.active
            && self.stop_resolved
            && self.buf.is_empty()
            && now >= self.outstanding_max
            && self.pending_sends.is_empty()
            && self.release_on_arrival.is_empty()
            && self.regs.awaiting().is_empty()
    }

    /// The exit of the completed task.
    pub fn exit_kind(&self) -> Option<ExitKind> {
        self.exit_kind
    }

    /// The per-task counters (typically read at retire/squash).
    pub fn counters(&self) -> TaskCounters {
        self.counters
    }

    /// The forwarded register view exposed to the successor task:
    /// `(values, known)`.
    pub fn fwd_view(&self) -> (&[u64; NUM_REGS], RegMask) {
        (&self.fwd_vals, self.fwd_known)
    }

    /// Instruction-cache statistics.
    pub fn icache_stats(&self) -> ms_memsys::CacheStats {
        self.icache.stats()
    }

    /// Reads the current architectural value of `r` in this unit's
    /// register file (diagnostics and end-of-run inspection).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs.read(r)
    }

    /// Registers still awaiting inter-task delivery (diagnostics).
    pub fn awaiting_regs(&self) -> RegMask {
        self.regs.awaiting()
    }

    /// Why the unit issued nothing on its most recent zero-issue cycle
    /// (`None` while issuing, or before the first stall). Diagnostics.
    pub fn stall_reason(&self) -> Option<StallReason> {
        self.last_stall
    }

    /// Cumulative stalled cycles per reason over the unit's lifetime
    /// (across task assignments), indexed by [`StallReason::index`].
    pub fn stall_histogram(&self) -> &[u64; StallReason::COUNT] {
        &self.stall_hist
    }

    /// Ring delivery of register `r` with value `v` at cycle `now`.
    /// Returns whether the message should propagate to the successor unit.
    pub fn receive(&mut self, r: Reg, v: u64, now: u64) -> bool {
        if !self.active {
            return false;
        }
        // An external input: whatever quiet span was proven no longer
        // holds (the delivered value may unblock issue next cycle).
        self.parked_until = 0;
        self.regs.deliver(r, v, now);
        if self.create.contains(r) {
            if self.release_on_arrival.remove(r) {
                // A release (or end-of-task auto-release) was waiting for
                // this value: pass it on now. `sent` was already marked
                // when the release deferred, so emit directly.
                self.emit_send(now + 1, r, v);
            }
            false
        } else {
            self.fwd_vals[r.index()] = v;
            self.fwd_known.insert(r);
            true
        }
    }

    /// Drains ring sends due at or before `now`.
    pub fn take_sends(&mut self, now: u64) -> Vec<(Reg, u64)> {
        let mut due = Vec::new();
        self.drain_sends_into(now, &mut due);
        due
    }

    /// Like [`ProcessingUnit::take_sends`], but appends into a
    /// caller-owned buffer — the allocation-free form the per-cycle
    /// processor step uses.
    pub fn drain_sends_into(&mut self, now: u64, due: &mut Vec<(Reg, u64)>) {
        self.pending_sends.retain(|&(cycle, r, v)| {
            if cycle <= now {
                due.push((r, v));
                false
            } else {
                true
            }
        });
    }

    fn schedule_send(&mut self, cycle: u64, r: Reg, v: u64) {
        // "A value bound to a register is only sent once per task."
        if !self.sent.insert(r) {
            return;
        }
        self.emit_send(cycle, r, v);
    }

    /// Unconditionally queues a ring send of `r` (dedup handled by the
    /// caller) and exposes the value in the forwarded view.
    fn emit_send(&mut self, cycle: u64, r: Reg, v: u64) {
        debug_assert!(
            self.create.contains(r),
            "unit {} forwards {r} outside its create mask",
            self.id
        );
        self.fwd_vals[r.index()] = v;
        self.fwd_known.insert(r);
        self.pending_sends.push((cycle, r, v));
    }

    /// Runs one cycle. `prog` supplies (predecoded) instruction fetch;
    /// `ports` supplies the shared memory system.
    pub fn tick(
        &mut self,
        now: u64,
        prog: &PredecodedProgram,
        ports: &mut MemPorts<'_>,
    ) -> TickOutput {
        self.tick_traced(now, prog, ports, &mut NullSink)
    }

    /// [`ProcessingUnit::tick`] with trace instrumentation: emits one
    /// `UnitIssue` or fine-grained `UnitStall` per cycle of an active
    /// unit, fetch redirects, and the memory events of every access made
    /// this cycle. With [`NullSink`] this is exactly `tick` — the
    /// instrumentation compiles away.
    #[inline]
    pub fn tick_traced<S: TraceSink>(
        &mut self,
        now: u64,
        prog: &PredecodedProgram,
        ports: &mut MemPorts<'_>,
        sink: &mut S,
    ) -> TickOutput {
        // Parked: a quiet_until certificate proved the issue, fetch and
        // completion phases idle this cycle, so only classify it. Only an
        // active, fault-free unit parks, and this path is small enough to
        // inline into the caller's per-unit loop.
        if now < self.parked_until {
            self.park_stats.2 += 1;
            let reason = self.zero_issue_reason(now, self.parked_head);
            let stall = Some(self.record_stall(now, reason, sink));
            return TickOutput { stall, ..TickOutput::default() };
        }
        self.tick_unparked(now, prog, ports, sink)
    }

    /// A full cycle: issue, fetch, completion, classification and, on a
    /// stall, the park probe.
    fn tick_unparked<S: TraceSink>(
        &mut self,
        now: u64,
        prog: &PredecodedProgram,
        ports: &mut MemPorts<'_>,
        sink: &mut S,
    ) -> TickOutput {
        let mut out = TickOutput::default();
        if !self.active || self.fault.is_some() {
            out.stall = Some(StallClass::Idle);
            return out;
        }
        self.fu.begin_cycle();

        let mut first_block: Option<Blocked> = None;
        let mut issued = 0u32;
        if self.cfg.ooo {
            let mut idx = 0usize;
            while issued < self.cfg.issue_width as u32 && idx < self.cfg.window.min(self.buf.len())
            {
                match self.try_issue(idx, now, prog, ports, &mut out, sink) {
                    Ok(()) => issued += 1,
                    Err(b) => {
                        if first_block.is_none() {
                            first_block = Some(b);
                        }
                        idx += 1;
                    }
                }
            }
        } else {
            while issued < self.cfg.issue_width as u32 && !self.buf.is_empty() {
                match self.try_issue(0, now, prog, ports, &mut out, sink) {
                    Ok(()) => issued += 1,
                    Err(b) => {
                        first_block = Some(b);
                        break;
                    }
                }
            }
        }
        out.issued = issued;
        self.counters.instructions += issued as u64;

        self.fetch_phase(now, prog, ports, sink);
        self.completion_phase(now);

        let stall = if issued > 0 {
            self.last_stall = None;
            self.counters.count(StallClass::Busy);
            if S::ENABLED {
                sink.event(&TraceEvent::UnitIssue { cycle: now, unit: self.id });
            }
            StallClass::Busy
        } else {
            let reason = self.zero_issue_reason(now, first_block);
            let class = self.record_stall(now, reason, sink);
            // Try to park for the rest of this stall. Only reasons that
            // produce multi-cycle waits are worth the probe: FetchEmpty
            // resolves next cycle (the fetch pipeline refills every
            // cycle), and FuBusy/Hazard/ArbFull sit next to an issuable
            // slot, where the probe would refuse anyway.
            if self.park_enabled
                && matches!(
                    reason,
                    StallReason::LocalDep
                        | StallReason::RemoteDep
                        | StallReason::CacheMiss
                        | StallReason::Drain
                        | StallReason::WaitRetire
                )
            {
                self.park_stats.0 += 1;
                if let Some((wake, head)) = self.quiet_span(now + 1) {
                    self.park_stats.1 += 1;
                    self.parked_until = wake;
                    self.parked_head = head;
                }
            }
            class
        };
        out.stall = Some(stall);

        if self.stop_resolved && !self.exit_reported {
            self.exit_reported = true;
            out.exit = self.exit_kind;
        }
        out
    }

    /// Why slot `idx` cannot issue at `now`, judged by the checks that
    /// change no state: decode readiness, operand status and out-of-order
    /// hazards against older unissued slots. `None` leaves only the FU
    /// and ARB checks that `try_issue` makes while issuing.
    fn blocked(&self, idx: usize, now: u64) -> Option<Blocked> {
        // Borrow, don't copy: this runs for every considered slot of
        // every stalled cycle.
        let slot = &self.buf[idx];
        if slot.ready_from > now {
            return Some(Blocked::NotDecoded);
        }
        // Operand readiness. A release is exempt: a register that has
        // not arrived yet is passed through on arrival (see the
        // `release_on_arrival` handling at execute) rather than stalling
        // issue — its sources still participate in the out-of-order
        // hazard checks below so it cannot slip past an older writer.
        if !matches!(slot.instr.op, Op::Release { .. }) {
            let mut remote = false;
            let mut local = false;
            for r in slot.meta.uses.iter() {
                match self.regs.status(r, now) {
                    ReadStatus::Ready => {}
                    ReadStatus::WaitLocal => local = true,
                    ReadStatus::WaitRemote => remote = true,
                }
            }
            if remote {
                return Some(Blocked::WaitRemote);
            }
            if local {
                return Some(Blocked::WaitLocal);
            }
        }
        // Out-of-order hazards against older, unissued instructions.
        if self.cfg.ooo && idx > 0 {
            let me = &slot.meta;
            let my_def = me.def;
            let my_is_mem = me.is_load || me.is_store;
            for j in 0..idx {
                let older = &self.buf[j].meta;
                if older.is_control || (my_is_mem && (older.is_load || older.is_store)) {
                    return Some(Blocked::Hazard);
                }
                // RAW (older defines one of my sources) or WAW.
                if let Some(d) = older.def {
                    if me.uses_mask.contains(d) || (my_def == Some(d) && !d.is_zero()) {
                        return Some(Blocked::Hazard);
                    }
                }
                // WAR: older reads my destination.
                if let Some(d) = my_def {
                    if !d.is_zero() && older.uses_mask.contains(d) {
                        return Some(Blocked::Hazard);
                    }
                }
            }
        }
        None
    }

    /// The reason a zero-issue cycle at `now` is charged to, given why
    /// the first slot the issue loop tried was blocked (`None`: the
    /// buffer was empty). The one encoding of the stall taxonomy: `tick`,
    /// the parked replay and [`ProcessingUnit::quiet_until`] all call it.
    fn zero_issue_reason(&self, now: u64, first: Option<Blocked>) -> StallReason {
        if self.stop_resolved && self.buf.is_empty() {
            return if now >= self.outstanding_max {
                StallReason::WaitRetire
            } else {
                StallReason::Drain
            };
        }
        match first {
            // A fetch bubble with a miss fill in flight is a
            // memory-system penalty, not a decode artifact.
            None | Some(Blocked::NotDecoded) => {
                if now < self.fetch_ready_at && self.icache.last_fetch_missed() {
                    StallReason::CacheMiss
                } else {
                    StallReason::FetchEmpty
                }
            }
            Some(Blocked::WaitLocal) => StallReason::LocalDep,
            Some(Blocked::WaitRemote) => StallReason::RemoteDep,
            Some(Blocked::Fu) => StallReason::FuBusy,
            Some(Blocked::Hazard) => StallReason::Hazard,
            Some(Blocked::ArbFull) => StallReason::ArbFull,
        }
    }

    /// Books one zero-issue cycle charged to `reason` — the diagnostic
    /// marker (kept up to date even untraced: snapshots report it), the
    /// stall histogram, the trace event and the Section 3 counter — and
    /// returns its Section 3 class.
    fn record_stall<S: TraceSink>(
        &mut self,
        now: u64,
        reason: StallReason,
        sink: &mut S,
    ) -> StallClass {
        self.last_stall = Some(reason);
        self.stall_hist[reason.index()] += 1;
        if S::ENABLED {
            sink.event(&TraceEvent::UnitStall { cycle: now, unit: self.id, reason });
        }
        let class = StallClass::of(reason);
        self.counters.count(class);
        class
    }

    /// Attempts to issue the instruction at buffer index `idx`.
    fn try_issue<S: TraceSink>(
        &mut self,
        idx: usize,
        now: u64,
        _prog: &PredecodedProgram,
        ports: &mut MemPorts<'_>,
        out: &mut TickOutput,
        sink: &mut S,
    ) -> Result<(), Blocked> {
        if let Some(b) = self.blocked(idx, now) {
            return Err(b);
        }
        let fu_class = self.buf[idx].meta.fu_class;
        if !self.fu.available(fu_class) {
            return Err(Blocked::Fu);
        }
        // Every reject path is behind us (`issue_mem` can still fail, but
        // needs the copy anyway): take the slot by value.
        let slot = self.buf[idx];

        // Execute (functional) and derive timing.
        let regs = &self.regs;
        let outcome = execute(&slot.instr, slot.pc, |r| regs.read(r));
        let lat = self.cfg.latencies.latency(slot.meta.exec_class);
        let mut done = now + lat;

        if let Some(mem) = outcome.mem {
            done = self.issue_mem(&slot, mem, now + lat, ports, out, sink)?;
        }
        // Commit the FU now that nothing can fail.
        let ok = self.fu.try_acquire(fu_class);
        debug_assert!(ok, "FU availability checked above");

        if let Some((rd, v)) = outcome.writeback {
            self.regs.write(rd, v, done);
            if slot.instr.tags.forward {
                self.schedule_send(done, rd, v);
            }
        }
        if let Some(regs) = outcome.release {
            for r in regs.iter() {
                if self.sent.contains(r) {
                    continue; // already forwarded/released: ignored
                }
                if self.regs.status(r, u64::MAX) == ReadStatus::WaitRemote {
                    // Not yet arrived: pass it through on arrival.
                    self.sent.insert(r);
                    self.release_on_arrival.insert(r);
                } else {
                    let v = self.regs.read(r);
                    self.schedule_send(done, r, v);
                }
            }
        }

        // Stop / control resolution.
        let taken = outcome.control.map(|c| c.taken).unwrap_or(false);
        let stop_fires = outcome.halt
            || match slot.instr.tags.stop {
                StopCond::None => false,
                cond => cond.fires(taken),
            };
        let this_seq = slot.seq;
        if stop_fires {
            self.stop_resolved = true;
            self.exit_kind = Some(self.classify_exit(&slot, &outcome));
            self.buf.retain(|s| s.seq <= this_seq);
            self.fetch_mode = FetchMode::Stopped;
        } else if let Some(c) = outcome.control {
            match slot.next_fetched {
                Some(next) if next == c.next_pc => {} // fetch already went the right way
                _ => {
                    // Redirect: flush younger and refetch (2-cycle bubble).
                    self.buf.retain(|s| s.seq <= this_seq);
                    self.fetch_pc = c.next_pc;
                    self.fetch_ready_at = now + 2;
                    self.fetch_mode = FetchMode::Run;
                    if S::ENABLED {
                        sink.event(&TraceEvent::UnitRedirect {
                            cycle: now,
                            unit: self.id,
                            to_pc: c.next_pc,
                        });
                    }
                }
            }
        }

        self.outstanding_max = self.outstanding_max.max(done);
        // Remove the issued slot.
        let pos = self.buf.iter().position(|s| s.seq == this_seq).expect("issued slot present");
        self.buf.remove(pos);
        Ok(())
    }

    fn issue_mem<S: TraceSink>(
        &mut self,
        slot: &Slot,
        req: MemRequest,
        access_at: u64,
        ports: &mut MemPorts<'_>,
        out: &mut TickOutput,
        sink: &mut S,
    ) -> Result<u64, Blocked> {
        if req.is_store {
            match ports.arb.as_deref_mut() {
                Some(arb) => {
                    let violations = arb
                        .store_traced(
                            access_at,
                            ports.stage,
                            req.addr,
                            req.size,
                            req.value,
                            ports.active_ranks,
                            sink,
                        )
                        .map_err(|_| Blocked::ArbFull)?;
                    out.violations.extend(violations);
                    Ok(ports.banks.access_store(access_at, req.addr))
                }
                None => {
                    ports.mem.write_le(req.addr, req.size, req.value);
                    Ok(ports.banks.access_store_allocate(access_at, req.addr, ports.bus))
                }
            }
        } else {
            let (raw, forwarded) = match ports.arb.as_deref_mut() {
                Some(arb) => {
                    let r = arb
                        .load_traced(access_at, ports.stage, req.addr, req.size, ports.mem, sink)
                        .map_err(|_| Blocked::ArbFull)?;
                    (r.value, r.forwarded)
                }
                None => (ports.mem.read_le(req.addr, req.size), false),
            };
            let completion =
                ports.banks.access_load_traced(access_at, req.addr, forwarded, ports.bus, sink);
            let value = extend_load_width(req, raw);
            let dest = req.dest.expect("loads have destinations");
            self.regs.write(dest, value, completion);
            if slot.instr.tags.forward {
                self.schedule_send(completion, dest, value);
            }
            Ok(completion)
        }
    }

    fn classify_exit(&self, slot: &Slot, outcome: &crate::exec::Outcome) -> ExitKind {
        if outcome.halt {
            return ExitKind::Halt;
        }
        match slot.instr.op {
            Op::Jump { link: true, target } => ExitKind::Call { target, ret: slot.pc + 4 },
            Op::Jalr { .. } => {
                let target = outcome.control.expect("jalr resolves control").next_pc;
                ExitKind::Call { target, ret: slot.pc + 4 }
            }
            Op::Jr { rs } => {
                let target = outcome.control.expect("jr resolves control").next_pc;
                if rs == Reg::RA {
                    ExitKind::Return(target)
                } else {
                    ExitKind::Jump(target)
                }
            }
            _ => match outcome.control {
                Some(c) => ExitKind::Jump(c.next_pc),
                None => ExitKind::Fall(slot.pc + 4),
            },
        }
    }

    fn fetch_phase<S: TraceSink>(
        &mut self,
        now: u64,
        prog: &PredecodedProgram,
        ports: &mut MemPorts<'_>,
        sink: &mut S,
    ) {
        if self.fetch_mode != FetchMode::Run
            || self.buf.len() >= self.cfg.fetch_buffer
            || now < self.fetch_ready_at
        {
            return;
        }
        let avail = self.icache.fetch_traced(now, self.fetch_pc, ports.bus, self.id, sink);
        if avail > now + self.cfg.icache.hit_time {
            // Miss: resume when the fill completes.
            self.fetch_ready_at = avail;
            return;
        }
        let first_pc = self.fetch_pc;
        for k in 0..self.cfg.issue_width {
            if self.buf.len() >= self.cfg.fetch_buffer {
                break;
            }
            if k > 0 && !self.icache.same_fetch_group(first_pc, k as u32 + 1) {
                break;
            }
            let pc = self.fetch_pc;
            let Some((instr, meta)) = prog.fetch(pc) else {
                self.fault = Some(format!(
                    "unit {}: instruction fetch outside text segment at {pc:#x}",
                    self.id
                ));
                self.fetch_mode = FetchMode::Stopped;
                return;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let ready_from = now + 2; // IF at `now`, ID at now+1, issue-eligible next
            let mut slot = Slot { seq, pc, instr, meta, ready_from, next_fetched: None };

            match instr.op {
                Op::Halt => {
                    slot.next_fetched = None;
                    self.buf.push_back(slot);
                    self.fetch_mode = FetchMode::Stopped;
                    return;
                }
                Op::Jump { target, .. } => {
                    // Decode-time redirect: one bubble cycle.
                    slot.next_fetched = Some(target);
                    self.buf.push_back(slot);
                    if instr.tags.stop == StopCond::Always {
                        self.fetch_mode = FetchMode::Stopped;
                    } else {
                        self.fetch_pc = target;
                        self.fetch_ready_at = now + 2;
                    }
                    return;
                }
                Op::Jr { .. } | Op::Jalr { .. } => {
                    slot.next_fetched = None;
                    self.buf.push_back(slot);
                    self.fetch_mode = if instr.tags.stop == StopCond::Always {
                        FetchMode::Stopped
                    } else {
                        FetchMode::WaitControl
                    };
                    return;
                }
                op if op.is_branch() => {
                    match instr.tags.stop {
                        StopCond::Always | StopCond::IfNotTaken => {
                            // Either direction may end the task (or go to
                            // the taken target): nothing safe to fetch.
                            slot.next_fetched = None;
                            self.buf.push_back(slot);
                            self.fetch_mode = match instr.tags.stop {
                                StopCond::Always => FetchMode::Stopped,
                                _ => FetchMode::WaitControl,
                            };
                            return;
                        }
                        _ => {
                            // Fall-through (static not-taken) fetch.
                            slot.next_fetched = Some(pc + 4);
                            self.buf.push_back(slot);
                            self.fetch_pc = pc + 4;
                        }
                    }
                }
                _ => {
                    if instr.tags.stop == StopCond::Always {
                        slot.next_fetched = None;
                        self.buf.push_back(slot);
                        self.fetch_mode = FetchMode::Stopped;
                        return;
                    }
                    slot.next_fetched = Some(pc + 4);
                    self.buf.push_back(slot);
                    self.fetch_pc = pc + 4;
                }
            }
        }
    }

    /// The parking certificate (DESIGN.md §13).
    ///
    /// Proves that in every cycle of `[from, wake)` this unit issues
    /// nothing and its fetch and completion phases do nothing, and
    /// returns `(wake, reason)`: the first cycle at which the unit may
    /// act, and the [`StallReason`] cycle `from` is charged. Such a cycle
    /// changes no state but the stall bookkeeping, which a parked
    /// [`ProcessingUnit::tick`] derives through the same classifier as
    /// an ordinary one.
    ///
    /// Returns `None` when the unit may act at `from` itself. `wake` may
    /// be `u64::MAX` when only an external input (a ring delivery,
    /// assignment, squash or retirement, each of which clears a park)
    /// can unblock the unit.
    pub fn quiet_until(&self, from: u64) -> Option<(u64, StallReason)> {
        let (wake, head) = self.quiet_span(from)?;
        Some((wake, self.zero_issue_reason(from, head)))
    }

    /// [`ProcessingUnit::quiet_until`]'s certificate: the wake cycle, and
    /// why the head slot is blocked. That cause holds for the whole span,
    /// because each way it can change is an event bounded here: decode
    /// (`NotDecoded`), a local result (`WaitLocal`), a ring delivery
    /// (`WaitRemote`, external).
    fn quiet_span(&self, from: u64) -> Option<(u64, Option<Blocked>)> {
        if !self.active || self.fault.is_some() || (self.stop_resolved && !self.exit_reported) {
            return None;
        }
        let mut wake = u64::MAX;
        // Fetch runs once `fetch_ready_at` is reached (a miss fill
        // completing, a redirect bubble expiring).
        if self.fetch_mode == FetchMode::Run && self.buf.len() < self.cfg.fetch_buffer {
            wake = self.fetch_ready_at;
        }
        // The one-shot auto-release fires at `outstanding_max`.
        if self.stop_resolved && self.buf.is_empty() && !self.completion_handled {
            wake = wake.min(self.outstanding_max);
        }
        if wake <= from {
            return None;
        }
        // Issue: every slot the issue loop considers must be blocked (an
        // issuable slot executes — and may touch the ARB — so it is
        // always an event, even if it would bounce off a full ARB).
        let considered =
            if self.cfg.ooo { self.cfg.window.min(self.buf.len()) } else { self.buf.len().min(1) };
        let mut head = None;
        for (idx, slot) in self.buf.iter().take(considered).enumerate() {
            let cause = self.blocked(idx, from)?;
            wake = wake.min(match cause {
                Blocked::NotDecoded => slot.ready_from,
                // No source awaits a predecessor: the latest local
                // result bounds the wait.
                Blocked::WaitLocal => {
                    slot.meta.uses.iter().map(|r| self.regs.ready_at(r)).fold(0, u64::max)
                }
                // Cleared only by a ring delivery, or when an older slot
                // issues (which that slot's own bound covers).
                _ => u64::MAX,
            });
            head = head.or(Some(cause));
        }
        Some((wake, head))
    }

    fn completion_phase(&mut self, now: u64) {
        if self.completion_handled
            || !self.stop_resolved
            || !self.buf.is_empty()
            || now < self.outstanding_max
        {
            return;
        }
        self.completion_handled = true;
        // Auto-release: any create-mask register not yet forwarded is
        // released at task completion ("the option exists to wait until
        // all instructions in a task have been executed", Section 2.2 —
        // correctness net under explicit releases).
        let unsent = self.create.difference(self.sent);
        for r in unsent.iter() {
            if self.regs.status(r, u64::MAX) == ReadStatus::WaitRemote {
                self.sent.insert(r);
                self.release_on_arrival.insert(r);
            } else {
                let v = self.regs.read(r);
                self.schedule_send(now, r, v);
            }
        }
    }
}

fn extend_load_width(req: MemRequest, raw: u64) -> u64 {
    use ms_isa::MemWidth;
    let width = match req.size {
        1 => MemWidth::B,
        2 => MemWidth::H,
        4 => MemWidth::W,
        _ => MemWidth::D,
    };
    extend_load(width, req.signed, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_asm::{assemble, AsmMode};
    use ms_memsys::{BusConfig, DataBanksConfig};

    struct Rig {
        unit: ProcessingUnit,
        mem: Memory,
        bus: MemBus,
        banks: DataBanks,
        prog: PredecodedProgram,
        now: u64,
        src: String,
        cfg: UnitConfig,
    }

    impl Rig {
        fn scalar(src: &str) -> Rig {
            Self::build(src, UnitConfig::default())
        }

        fn build(src: &str, cfg: UnitConfig) -> Rig {
            let prog = PredecodedProgram::new(assemble(src, AsmMode::Scalar).expect("assemble"));
            let mut mem = Memory::new();
            for seg in &prog.data {
                mem.write_slice(seg.base, &seg.bytes);
            }
            let mut unit = ProcessingUnit::new(0, cfg);
            let vals = [0u64; NUM_REGS];
            unit.assign_task(prog.entry, RegMask::EMPTY, &vals, RegMask::EMPTY, 0);
            Rig {
                unit,
                mem,
                bus: MemBus::new(BusConfig::default()),
                banks: DataBanks::new(DataBanksConfig::scalar()),
                prog,
                now: 0,
                src: src.to_owned(),
                cfg,
            }
        }

        /// Runs until halt; returns (cycles, instructions). The same
        /// program also runs on a unit with parking off, and the two
        /// must agree on cycles, counters and the stall histogram — the
        /// unparked unit is the reference for the parked one.
        fn run(&mut self) -> (u64, u64) {
            let parked = self.run_to_halt();
            let mut unparked = Rig::build(&self.src, self.cfg);
            unparked.unit.set_parking(false);
            assert_eq!(unparked.run_to_halt(), parked, "parking changed the cycle count");
            assert_eq!(unparked.unit.counters(), self.unit.counters(), "parking changed counters");
            assert_eq!(
                unparked.unit.stall_histogram(),
                self.unit.stall_histogram(),
                "parking changed the stall histogram"
            );
            parked
        }

        fn run_to_halt(&mut self) -> (u64, u64) {
            for _ in 0..200_000u64 {
                let mut ports = MemPorts {
                    mem: &mut self.mem,
                    bus: &mut self.bus,
                    banks: &mut self.banks,
                    arb: None,
                    stage: 0,
                    active_ranks: 1,
                };
                self.unit.tick(self.now, &self.prog, &mut ports);
                if let Some(f) = self.unit.fault() {
                    panic!("fault: {f}");
                }
                if self.unit.is_complete(self.now) {
                    let c = self.unit.counters();
                    return (self.now + 1, c.instructions);
                }
                self.now += 1;
            }
            panic!("did not halt");
        }

        fn reg(&self, r: Reg) -> u64 {
            self.unit.regs.read(r)
        }
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut rig = Rig::scalar("main:\n li $2, 10\n li $3, 32\n addu $4, $2, $3\n halt\n");
        let (_, instrs) = rig.run();
        assert_eq!(instrs, 4);
        assert_eq!(rig.reg(Reg::int(4)), 42);
    }

    #[test]
    fn loop_executes_correct_count() {
        let mut rig = Rig::scalar(
            "main:\n li $2, 0\n li $3, 10\nL: addiu $2, $2, 1\n bne $2, $3, L\n halt\n",
        );
        let (_, instrs) = rig.run();
        assert_eq!(rig.reg(Reg::int(2)), 10);
        assert_eq!(instrs, 2 + 10 * 2 + 1);
    }

    #[test]
    fn memory_round_trip_scalar() {
        let mut rig = Rig::scalar(
            "\n.data\nbuf: .space 16\n.text\nmain:\n la $5, buf\n li $2, 1234\n sw $2, 8($5)\n lw $3, 8($5)\n halt\n",
        );
        rig.run();
        assert_eq!(rig.reg(Reg::int(3)), 1234);
        let buf = rig.prog.symbol("buf").unwrap();
        assert_eq!(rig.mem.read_le(buf + 8, 4), 1234);
    }

    #[test]
    fn function_call_and_return() {
        let mut rig = Rig::scalar(
            "main:\n li $4, 5\n jal double\n move $6, $2\n halt\ndouble:\n addu $2, $4, $4\n jr $31\n",
        );
        rig.run();
        assert_eq!(rig.reg(Reg::int(6)), 10);
    }

    #[test]
    fn load_use_has_latency() {
        // A dependent use of a load must wait; an independent pair can
        // overlap. Compare cycle counts.
        let dep = "\n.data\nv: .word 7\n.text\nmain:\n la $5, v\n lw $2, 0($5)\n addu $3, $2, $2\n halt\n";
        let indep = "\n.data\nv: .word 7\n.text\nmain:\n la $5, v\n lw $2, 0($5)\n addu $3, $5, $5\n halt\n";
        let (c_dep, _) = Rig::scalar(dep).run();
        let (c_indep, _) = Rig::scalar(indep).run();
        assert!(c_dep > c_indep, "dep {c_dep} vs indep {c_indep}");
    }

    #[test]
    fn taken_branch_costs_more_than_not_taken() {
        // Loop with taken back-edges vs straight-line of same length.
        let taken = "main:\n li $3, 20\n li $2, 0\nL: addiu $2, $2, 1\n bne $2, $3, L\n halt\n";
        let (cycles_taken, n1) = Rig::scalar(taken).run();
        // Same dynamic instruction count, no taken branches.
        let mut straight = String::from("main:\n li $3, 20\n li $2, 0\n");
        for _ in 0..20 {
            straight.push_str(" addiu $2, $2, 1\n beq $2, $0, NEVER\n");
        }
        straight.push_str("NEVER: halt\n");
        let (cycles_straight, n2) = Rig::scalar(&straight).run();
        assert_eq!(n1, n2);
        assert!(
            cycles_taken > cycles_straight,
            "taken {cycles_taken} vs straight {cycles_straight}"
        );
    }

    #[test]
    fn two_way_issue_is_faster_on_independent_code() {
        let mut src = String::from("main:\n");
        for i in 0..40 {
            src.push_str(&format!(" addiu ${}, ${}, 1\n", 2 + (i % 8), 2 + (i % 8)));
        }
        src.push_str(" halt\n");
        // Dependent chains of length 5 per register, 8 independent chains.
        let (c1, _) = Rig::build(&src, UnitConfig::default()).run();
        let cfg2 = UnitConfig { issue_width: 2, ..UnitConfig::default() };
        let (c2, _) = Rig::build(&src, cfg2).run();
        assert!(c2 < c1, "2-way {c2} vs 1-way {c1}");
    }

    #[test]
    fn ooo_hides_load_latency() {
        // A load followed by a dependent op, then independent work the
        // OoO unit can slip past the stall.
        let src = "\n.data\nv: .word 7\n.text\nmain:\n la $5, v\n lw $2, 0($5)\n addu $3, $2, $2\n addiu $6, $0, 1\n addiu $7, $0, 2\n addiu $8, $0, 3\n halt\n";
        let (c_io, _) = Rig::build(src, UnitConfig::default()).run();
        let cfg = UnitConfig { ooo: true, ..UnitConfig::default() };
        let (c_ooo, _) = Rig::build(src, cfg).run();
        assert!(c_ooo <= c_io, "ooo {c_ooo} vs io {c_io}");
    }

    #[test]
    fn ooo_preserves_semantics_on_hazards() {
        // WAR/WAW/RAW soup; result must match in-order execution.
        let src = "main:\n li $2, 1\n li $3, 2\n addu $4, $2, $3\n addu $2, $4, $3\n mul $5, $2, $4\n subu $3, $5, $2\n halt\n";
        let mut io = Rig::build(src, UnitConfig::default());
        io.run();
        let mut ooo =
            Rig::build(src, UnitConfig { ooo: true, issue_width: 2, ..UnitConfig::default() });
        ooo.run();
        for r in [2u8, 3, 4, 5] {
            assert_eq!(io.reg(Reg::int(r)), ooo.reg(Reg::int(r)), "reg ${r}");
        }
    }

    #[test]
    fn quiet_probe_matches_ticked_execution() {
        // At every cycle of a real run, if the probe claims the machine
        // is quiet until `wake`, the actual tick must issue nothing and
        // charge exactly the predicted stall reason. Re-probing every
        // cycle covers the whole claimed span.
        let src = "\n.data\nv: .word 7\n.text\nmain:\n la $5, v\n lw $2, 0($5)\n addu $3, $2, $2\n mul $4, $3, $3\n div $6, $4, $3\n sw $6, 8($5)\n lw $7, 8($5)\n halt\n";
        for cfg in [
            UnitConfig::default(),
            UnitConfig { issue_width: 2, ..UnitConfig::default() },
            UnitConfig { ooo: true, issue_width: 2, ..UnitConfig::default() },
        ] {
            let mut rig = Rig::build(src, cfg);
            rig.unit.set_parking(false);
            let mut quiet_cycles = 0u64;
            for _ in 0..200_000u64 {
                let claim = rig.unit.quiet_until(rig.now);
                let mut ports = MemPorts {
                    mem: &mut rig.mem,
                    bus: &mut rig.bus,
                    banks: &mut rig.banks,
                    arb: None,
                    stage: 0,
                    active_ranks: 1,
                };
                let out = rig.unit.tick(rig.now, &rig.prog, &mut ports);
                if let Some((wake, reason)) = claim {
                    assert!(wake > rig.now, "wake must lie in the future");
                    assert_eq!(out.issued, 0, "cycle {} claimed quiet", rig.now);
                    assert_eq!(
                        rig.unit.stall_reason(),
                        Some(reason),
                        "cycle {} reason mismatch",
                        rig.now
                    );
                    quiet_cycles += 1;
                }
                if out.exit == Some(ExitKind::Halt) && rig.unit.is_complete(rig.now) {
                    break;
                }
                rig.now += 1;
            }
            assert!(quiet_cycles > 0, "run must contain provably quiet cycles");
            // The same program parks, and parking changes nothing.
            let mut parked = Rig::build(src, cfg);
            parked.run();
            assert!(parked.unit.park_stats().2 > 0, "the divide's latency must be parked");
        }
    }

    #[test]
    fn fault_on_runaway_fetch() {
        let mut rig = Rig::scalar("main:\n nop\n nop\n"); // no halt
        for _ in 0..100 {
            let mut ports = MemPorts {
                mem: &mut rig.mem,
                bus: &mut rig.bus,
                banks: &mut rig.banks,
                arb: None,
                stage: 0,
                active_ranks: 1,
            };
            rig.unit.tick(rig.now, &rig.prog, &mut ports);
            rig.now += 1;
            if rig.unit.fault().is_some() {
                return;
            }
        }
        panic!("expected a fetch fault");
    }
}

#[cfg(test)]
mod multiscalar_unit_tests {
    use super::*;
    use ms_asm::{assemble, AsmMode};
    use ms_memsys::{BusConfig, DataBanksConfig};

    /// A rig with the unit in multiscalar mode (ARB attached), letting
    /// tests drive forwarding, stop bits and inter-task delivery directly.
    struct MsRig {
        unit: ProcessingUnit,
        mem: Memory,
        bus: MemBus,
        banks: DataBanks,
        arb: Arb,
        prog: PredecodedProgram,
        now: u64,
    }

    impl MsRig {
        fn new(src: &str, cfg: UnitConfig) -> MsRig {
            let prog =
                PredecodedProgram::new(assemble(src, AsmMode::Multiscalar).expect("assemble"));
            let mut mem = Memory::new();
            for seg in &prog.data {
                mem.write_slice(seg.base, &seg.bytes);
            }
            MsRig {
                unit: ProcessingUnit::new(0, cfg),
                mem,
                bus: MemBus::new(BusConfig::default()),
                banks: DataBanks::new(DataBanksConfig::multiscalar(4)),
                arb: Arb::new(4, 8, 256),
                prog,
                now: 0,
            }
        }

        fn assign_entry(&mut self, awaiting: RegMask) {
            let desc = self.prog.task_at(self.prog.entry).expect("task at entry");
            let vals = [0u64; NUM_REGS];
            self.unit.assign_task(self.prog.entry, desc.create, &vals, awaiting, 0);
        }

        fn tick(&mut self) -> TickOutput {
            let mut ports = MemPorts {
                mem: &mut self.mem,
                bus: &mut self.bus,
                banks: &mut self.banks,
                arb: Some(&mut self.arb),
                stage: 0,
                active_ranks: 1,
            };
            let out = self.unit.tick(self.now, &self.prog, &mut ports);
            self.now += 1;
            out
        }

        fn run_to_exit(&mut self, max: u64) -> ExitKind {
            for _ in 0..max {
                let out = self.tick();
                if let Some(e) = out.exit {
                    return e;
                }
            }
            panic!("no exit within {max} cycles");
        }

        fn drain_sends(&mut self, max: u64) -> Vec<(Reg, u64)> {
            let mut sends = Vec::new();
            for _ in 0..max {
                self.tick();
                sends.extend(self.unit.take_sends(self.now - 1));
                if self.unit.is_complete(self.now - 1) {
                    break;
                }
            }
            sends
        }
    }

    #[test]
    fn forward_bit_sends_exactly_once() {
        // $2 written twice with !f on both writes: only the first send
        // survives the dedup ("a value ... is only sent once per task").
        let src = "
main:
.task targets=halt create=$2
A:
    addiu!f $2, $0, 1
    addiu!f $2, $2, 1
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry(RegMask::EMPTY);
        let sends = rig.drain_sends(60);
        let twos: Vec<&(Reg, u64)> = sends.iter().filter(|(r, _)| *r == Reg::int(2)).collect();
        assert_eq!(twos.len(), 1, "{sends:?}");
        assert_eq!(twos[0].1, 1, "first forward wins under dedup");
    }

    #[test]
    fn release_sends_current_value() {
        let src = "
main:
.task targets=halt create=$2,$3
A:
    addiu!f $2, $0, 7
    release $3
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry(RegMask::EMPTY);
        let sends = rig.drain_sends(60);
        assert!(sends.contains(&(Reg::int(2), 7)));
        assert!(sends.contains(&(Reg::int(3), 0)), "release sends snapshot value");
    }

    #[test]
    fn auto_release_covers_unsent_creates() {
        let src = "
main:
.task targets=halt create=$2,$5
A:
    addiu!f $2, $0, 1
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry(RegMask::EMPTY);
        let sends = rig.drain_sends(60);
        assert!(
            sends.iter().any(|(r, _)| *r == Reg::int(5)),
            "auto-release must forward $5 at completion: {sends:?}"
        );
        let (_, known) = rig.unit.fwd_view();
        assert!(known.contains(Reg::int(5)));
    }

    #[test]
    fn awaiting_operand_blocks_then_delivery_resumes() {
        let src = "
main:
.task targets=halt create=$3
A:
    addiu!f $3, $8, 1
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry([Reg::int(8)].into_iter().collect());
        // Without $8 the add cannot issue (the first ~17 cycles are the
        // cold instruction-cache fill, classified intra-task).
        for _ in 0..40 {
            let out = rig.tick();
            assert_eq!(out.issued, 0, "must stall on the inter-task operand");
            if rig.now > 25 {
                assert_eq!(out.stall, Some(StallClass::InterTask));
            }
        }
        let now = rig.now;
        assert!(rig.unit.receive(Reg::int(8), 41, now));
        let exit = rig.run_to_exit(40);
        assert_eq!(exit, ExitKind::Halt);
        assert_eq!(rig.unit.reg(Reg::int(3)), 42);
    }

    #[test]
    fn quiet_probe_on_inter_task_wait_is_externally_bounded() {
        let src = "
main:
.task targets=halt create=$3
A:
    addiu!f $3, $8, 1
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry([Reg::int(8)].into_iter().collect());
        // Run past the cold icache fill and decode so the unit settles
        // on the inter-task operand wait.
        for _ in 0..40 {
            rig.tick();
        }
        let (wake, reason) = rig.unit.quiet_until(rig.now).expect("remote wait is quiet");
        assert_eq!(wake, u64::MAX, "only a ring delivery can unblock the unit");
        assert_eq!(reason, StallReason::RemoteDep);
        let now = rig.now;
        rig.unit.receive(Reg::int(8), 41, now);
        assert!(rig.unit.quiet_until(now).is_none(), "delivered operand makes the slot issuable");
    }

    #[test]
    fn receive_consumes_create_regs_and_propagates_others() {
        let src = "
main:
.task targets=halt create=$3
A:
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry([Reg::int(3), Reg::int(9)].into_iter().collect());
        // $3 is in the create mask: consumed.
        assert!(!rig.unit.receive(Reg::int(3), 5, 0));
        // $9 is not: passes through (and enters the forwarded view).
        assert!(rig.unit.receive(Reg::int(9), 6, 0));
        let (vals, known) = rig.unit.fwd_view();
        assert!(known.contains(Reg::int(9)));
        assert_eq!(vals[9], 6);
        assert!(!known.contains(Reg::int(3)), "own create not exposed until sent");
    }

    #[test]
    fn conditional_stop_taken_ends_task_with_jump_exit() {
        let src = "
main:
.task targets=B,halt create=$2
A:
    addiu!f $2, $0, 1
    bne!st $2, $0, B
    halt
B:
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry(RegMask::EMPTY);
        let exit = rig.run_to_exit(40);
        let b = rig.prog.symbol("B").unwrap();
        assert_eq!(exit, ExitKind::Jump(b));
    }

    #[test]
    fn conditional_stop_not_taken_continues_task() {
        let src = "
main:
.task targets=B,halt create=$2
A:
    addiu!f $2, $0, 0
    bne!st $2, $0, B      ; not taken: the task continues
    halt
B:
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry(RegMask::EMPTY);
        let exit = rig.run_to_exit(40);
        assert_eq!(exit, ExitKind::Halt);
    }

    #[test]
    fn two_way_unit_issues_pairs_only_within_fetch_groups() {
        // Straight-line independent adds: a 2-way unit should get close
        // to 2 IPC, limited by 16-byte fetch groups.
        let mut src = String::from("main:\n.task targets=halt create=\nA:\n");
        for i in 0..32 {
            src.push_str(&format!("    addiu ${}, $0, {}\n", 8 + (i % 8), i));
        }
        src.push_str("    halt\n");
        let cfg1 = UnitConfig::default();
        let cfg2 = UnitConfig { issue_width: 2, ..UnitConfig::default() };
        let mut r1 = MsRig::new(&src, cfg1);
        r1.assign_entry(RegMask::EMPTY);
        r1.run_to_exit(400);
        let c1 = r1.now;
        let mut r2 = MsRig::new(&src, cfg2);
        r2.assign_entry(RegMask::EMPTY);
        r2.run_to_exit(400);
        let c2 = r2.now;
        assert!(c2 < c1, "2-way ({c2}) must beat 1-way ({c1})");
    }

    #[test]
    fn store_then_own_load_forwards_through_arb() {
        let src = "
.data
slot: .word 0
.text
main:
.task targets=halt create=$3
A:
    la  $9, slot
    li  $10, 77
    sw  $10, 0($9)
    lw!f $3, 0($9)
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry(RegMask::EMPTY);
        rig.run_to_exit(100);
        assert_eq!(rig.unit.reg(Reg::int(3)), 77);
        // Value came from the unit's own ARB stage, not memory.
        assert!(rig.arb.stats().loads >= 1);
    }

    #[test]
    fn counters_classify_wait_retire_after_completion() {
        let src = "
main:
.task targets=halt create=
A:
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry(RegMask::EMPTY);
        rig.run_to_exit(40);
        for _ in 0..10 {
            rig.tick(); // complete but unretired
        }
        assert!(rig.unit.counters().wait_retire_cycles >= 9);
    }

    #[test]
    fn clear_discards_pending_sends() {
        let src = "
main:
.task targets=halt create=$2
A:
    addiu!f $2, $0, 1
    halt
";
        let mut rig = MsRig::new(src, UnitConfig::default());
        rig.assign_entry(RegMask::EMPTY);
        rig.tick();
        rig.tick();
        rig.unit.clear();
        assert!(!rig.unit.is_active());
        let now = rig.now;
        assert!(rig.unit.take_sends(now + 100).is_empty());
    }
}
