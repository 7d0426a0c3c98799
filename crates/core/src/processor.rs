//! The multiscalar processor.
//!
//! Owns the circular queue of processing units, the sequencer (task
//! prediction, descriptor fetch, assignment), the register-forwarding
//! ring, the ARB and the shared memory system; orchestrates one cycle as:
//!
//! 1. ring hop (messages sent last cycle arrive),
//! 2. delivery/propagation of arrivals,
//! 3. unit execution (head → tail, so same-cycle memory references are
//!    processed in task order),
//! 4. collection of new ring sends,
//! 5. squash processing — control mispredictions ("the exit point of the
//!    immediately preceding task is known", Section 3.1.2) and ARB memory
//!    violations; squashing a task squashes all its successors,
//! 6. in-order retirement at the head (ARB drain to the data cache),
//! 7. task assignment at the tail (predict successor, fetch descriptor,
//!    install the predecessor's forwarded register view).

use crate::ablation::{ArbFullPolicy, PredictorKind};
use crate::config::SimConfig;
use crate::diag::{DiagnosticSnapshot, HeadDiag, UnitDiag};
use crate::error::SimError;
use crate::flight::FlightRecorder;
use crate::inject::{FaultInjector, NoFaults};
use crate::ring::{Ring, RingMsg};
use crate::stats::RunStats;
use ms_isa::{
    PredecodedProgram, Program, Reg, RegMask, TargetKind, TaskDescriptor, NUM_REGS, STACK_TOP,
};
use ms_memsys::{Arb, DataBanks, MemBus, Memory};
use ms_pipeline::{ExitKind, MemPorts, ProcessingUnit};
use ms_predictor::{DescriptorCache, ReturnAddressStack, TaskPredictor};
use ms_trace::{NullSink, SquashKind, StallReason, TeeSink, TraceEvent, TraceSink};
use std::collections::{HashMap, VecDeque};

#[derive(Debug)]
struct TaskRecord {
    order: u64,
    unit: usize,
    entry: u32,
    /// Entered via sequencer prediction (vs. known actual successor).
    by_prediction: bool,
    ras_snap: (usize, usize),
    /// Set when the task's stop resolves.
    exit: Option<ExitKind>,
    /// The Return-target RAS pop for this task's successor already
    /// happened (at prediction time).
    ras_popped: bool,
    /// Successor check + predictor training performed.
    validated: bool,
    /// The speculative history shift made when this task was chosen:
    /// `(predecessor entry, pre-shift history, chosen index)`.
    hist: Option<(u32, u16, usize)>,
    /// Cycle at which the task was assigned (diagnostic snapshots).
    assigned_at: u64,
    /// The task's create mask, kept for stale-message detection on ring
    /// delivery (a message must not skip past a producer of its register).
    create: RegMask,
}

/// What the sequencer will assign next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    /// Derive from the last task (predict, or use its resolved exit).
    Unknown,
    /// A concrete entry to assign.
    Entry {
        /// Task entry address.
        pc: u32,
        /// Whether the choice came from prediction (counted for accuracy).
        by_prediction: bool,
        /// `(predecessor entry, chosen target index)` — shifted into the
        /// predictor history (speculatively) when the task is assigned.
        choice: Option<(u32, usize)>,
    },
    /// The program is (speculatively or definitely) over.
    Stop,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SquashCause {
    Control,
    Memory,
    ArbFull,
    /// Spurious squash injected by a fault plan (chaos testing).
    Chaos,
}

impl SquashCause {
    fn kind(self) -> SquashKind {
        match self {
            SquashCause::Control => SquashKind::Control,
            SquashCause::Memory => SquashKind::Memory,
            SquashCause::ArbFull => SquashKind::ArbFull,
            SquashCause::Chaos => SquashKind::Chaos,
        }
    }
}

/// Cycle period of the ARB occupancy samples emitted to the trace sink.
const ARB_OCCUPANCY_SAMPLE_PERIOD: u64 = 16;

/// The multiscalar processor simulator.
///
/// ```no_run
/// use ms_asm::{assemble, AsmMode};
/// use multiscalar::{Processor, SimConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = std::fs::read_to_string("program.s")?;
/// let prog = assemble(&src, AsmMode::Multiscalar)?;
/// let mut p = Processor::new(prog, SimConfig::multiscalar(8))?;
/// let stats = p.run()?;
/// println!("IPC {:.2}", stats.ipc());
/// # Ok(())
/// # }
/// ```
pub struct Processor<S: TraceSink = NullSink, F: FaultInjector = NoFaults, A: TraceSink = NullSink>
{
    cfg: SimConfig,
    prog: PredecodedProgram,
    units: Vec<ProcessingUnit>,
    mem: Memory,
    bus: MemBus,
    banks: DataBanks,
    arb: Arb,
    ring: Ring,
    predictor: TaskPredictor,
    ras: ReturnAddressStack,
    desc_cache: DescriptorCache,

    active: VecDeque<TaskRecord>,
    next_unit: usize,
    next_order: u64,
    /// Per register: 1 + the dispatch order of the latest *retired* task
    /// whose create mask contains it (0 = none yet). A ring message is
    /// architecturally stale once a later producer has retired; a
    /// resident producer kills passing messages itself (create-mask kill
    /// in `receive`), but a producer that has left its unit cannot, so
    /// delivery checks this instead. Without it, a long-delayed message
    /// can outlive the producer's residency and deliver a stale value to
    /// a re-assigned unit.
    retired_creates: [u64; NUM_REGS],
    pending: Pending,
    seq_ready_at: u64,
    last_retired_unit: Option<usize>,
    boot_vals: [u64; NUM_REGS],
    halted: bool,
    now: u64,
    /// Cycle of the most recent retirement (0 before any); feeds the
    /// forward-progress watchdog and diagnostic snapshots.
    last_retire_cycle: u64,
    stats: RunStats,
    retirement_log: Vec<Retirement>,
    last_outcome: HashMap<u32, usize>,

    // Per-cycle scratch buffers, reused across `step` calls so the hot
    // loop allocates nothing. Each is taken (`std::mem::take`), used,
    // and put back within one `step`.
    scratch_arrivals: Vec<(usize, RingMsg)>,
    scratch_violations: Vec<usize>,
    scratch_exits: Vec<(usize, ExitKind)>,
    scratch_arb_stalled: Vec<usize>,
    scratch_sends: Vec<(Reg, u64)>,

    /// The observers: every event goes to both, first sink first.
    sink: TeeSink<S, A>,
    /// Fault injector. With [`NoFaults`] (the default) every hook site
    /// compiles away, exactly like [`NullSink`] tracing.
    inject: F,
    /// Per unit: the last task on this unit was squashed and no new task
    /// has been assigned yet, so its idle cycles are squash *recovery*
    /// ([`StallReason::SquashRecovery`]) rather than ordinary
    /// [`StallReason::NoTask`] idleness. Only maintained when traced.
    recovering: Vec<bool>,
    /// Always-on bounded flight recorder: periodic diagnostic snapshots,
    /// attached to [`SimError::Timeout`]/[`SimError::NoProgress`].
    flight: FlightRecorder,
}

/// One retired task, as recorded in [`Processor::retirement_log`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Retirement {
    /// Cycle at which the task retired.
    pub cycle: u64,
    /// Task entry address.
    pub entry: u32,
    /// Processing unit that executed it.
    pub unit: usize,
    /// Instructions the task committed.
    pub instructions: u64,
}

impl Processor {
    /// Builds a processor for `prog` (a multiscalar-annotated binary).
    ///
    /// # Errors
    /// Returns [`SimError::BadProgram`] if the program has no text or no
    /// task descriptor at its entry point.
    pub fn new(prog: Program, cfg: SimConfig) -> Result<Processor, SimError> {
        Processor::with_sink(prog, cfg, NullSink)
    }

    /// The check every constructor makes first: `prog` has text and a
    /// task descriptor at its entry point. Callers that must keep their
    /// sink when construction fails can make it before handing it over.
    ///
    /// # Errors
    /// Returns [`SimError::BadProgram`] naming what is missing.
    pub fn check_program(prog: &Program) -> Result<(), SimError> {
        if prog.text.is_empty() {
            return Err(SimError::BadProgram("empty text segment".into()));
        }
        if prog.task_at(prog.entry).is_none() {
            return Err(SimError::BadProgram(format!(
                "no task descriptor at entry {:#x}",
                prog.entry
            )));
        }
        Ok(())
    }
}

impl<S: TraceSink> Processor<S> {
    /// Builds a processor that reports [`TraceEvent`]s to `sink` as it
    /// runs. With [`NullSink`] (what [`Processor::new`] uses) the
    /// instrumentation monomorphizes away entirely. With a
    /// [`crate::CpiAccountant`] (alone or in a [`TeeSink`]) the run's
    /// [`RunStats::cpi`] carries its CPI stack.
    ///
    /// # Errors
    /// Returns [`SimError::BadProgram`] if the program has no text or no
    /// task descriptor at its entry point.
    pub fn with_sink(prog: Program, cfg: SimConfig, sink: S) -> Result<Processor<S>, SimError> {
        Processor::with_parts(prog, cfg, sink, NoFaults, NullSink)
    }
}

impl<F: FaultInjector> Processor<NullSink, F> {
    /// Builds an untraced processor whose microarchitecture is perturbed
    /// by `injector` (chaos testing). Architectural results must be
    /// unaffected — see [`FaultInjector`].
    ///
    /// # Errors
    /// Returns [`SimError::BadProgram`] if the program has no text or no
    /// task descriptor at its entry point.
    pub fn with_injector(
        prog: Program,
        cfg: SimConfig,
        injector: F,
    ) -> Result<Processor<NullSink, F>, SimError> {
        Processor::with_parts(prog, cfg, NullSink, injector, NullSink)
    }
}

impl<S: TraceSink, F: FaultInjector, A: TraceSink> Processor<S, F, A> {
    /// Whether any observer is live: event sites compile away otherwise.
    const TRACED: bool = S::ENABLED || A::ENABLED;

    /// Builds a processor from a trace sink, a fault injector and a
    /// second sink that sees every event after `sink` (so a
    /// [`crate::CpiAccountant`] can ride next to any other observer).
    /// Each defaults to a no-op ([`NullSink`]/[`NoFaults`]/[`NullSink`])
    /// that monomorphizes away. Observers never change how the machine
    /// steps; only the injector does.
    ///
    /// # Errors
    /// Returns [`SimError::BadProgram`] if the program has no text or no
    /// task descriptor at its entry point.
    pub fn with_parts(
        prog: Program,
        cfg: SimConfig,
        sink: S,
        injector: F,
        extra: A,
    ) -> Result<Processor<S, F, A>, SimError> {
        Processor::check_program(&prog)?;
        let mut mem = Memory::new();
        for seg in &prog.data {
            mem.write_slice(seg.base, &seg.bytes);
        }
        let mut boot_vals = [0u64; NUM_REGS];
        boot_vals[Reg::SP.index()] = STACK_TOP as u64;
        let units: Vec<ProcessingUnit> = (0..cfg.units)
            .map(|i| {
                let mut u = ProcessingUnit::new(i, cfg.unit_config());
                // Parking is off under fault injection, whose
                // perturbations are cycle-indexed. Observers do not
                // matter: a parked unit emits the same events.
                u.set_parking(!F::ENABLED);
                u
            })
            .collect();
        let entry = prog.entry;
        let prog = PredecodedProgram::new(prog);
        Ok(Processor {
            units,
            mem,
            bus: MemBus::new(cfg.bus),
            banks: DataBanks::new(cfg.banks),
            arb: Arb::new(cfg.units, cfg.banks.nbanks, cfg.arb_capacity),
            ring: Ring::new(
                cfg.units,
                cfg.ring_width.unwrap_or(cfg.issue_width),
                cfg.ring_hop_latency,
            ),
            predictor: TaskPredictor::new(),
            ras: ReturnAddressStack::new(64),
            desc_cache: DescriptorCache::new(1024),
            active: VecDeque::new(),
            next_unit: 0,
            next_order: 0,
            retired_creates: [0; NUM_REGS],
            pending: Pending::Entry { pc: entry, by_prediction: false, choice: None },
            seq_ready_at: 0,
            last_retired_unit: None,
            boot_vals,
            halted: false,
            now: 0,
            last_retire_cycle: 0,
            stats: RunStats::default(),
            retirement_log: Vec::new(),
            last_outcome: HashMap::new(),
            scratch_arrivals: Vec::new(),
            scratch_violations: Vec::new(),
            scratch_exits: Vec::new(),
            scratch_arb_stalled: Vec::new(),
            scratch_sends: Vec::new(),
            sink: TeeSink(sink, extra),
            inject: injector,
            recovering: vec![false; cfg.units],
            flight: FlightRecorder::new(),
            prog,
            cfg,
        })
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sink.0
    }

    /// Finishes both sinks and returns the first, consuming the
    /// processor.
    pub fn into_sink(mut self) -> S {
        self.sink.finish();
        self.sink.0
    }

    /// The architectural memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        self.prog.program()
    }

    /// Architectural register values as of the last retired task
    /// (`None` before any retirement). Only registers that are live
    /// across task boundaries are meaningful — dead values need not be
    /// communicated (Section 2.2).
    pub fn final_regs(&self) -> Option<[u64; NUM_REGS]> {
        self.last_retired_unit.map(|u| *self.units[u].fwd_view().0)
    }

    /// Current cycle.
    pub fn cycles(&self) -> u64 {
        self.now
    }

    /// Every retired task, in retirement (sequential) order — the record
    /// of the sequencer's walk through the program CFG.
    pub fn retirement_log(&self) -> &[Retirement] {
        &self.retirement_log
    }

    /// Runs to completion.
    ///
    /// ```
    /// use ms_asm::{assemble, AsmMode};
    /// use multiscalar::{Processor, SimConfig};
    ///
    /// let src = "
    /// main:
    /// .task targets=halt create=
    /// A:
    ///     addiu $2, $0, 41
    ///     addiu $2, $2, 1
    ///     halt
    /// ";
    /// let prog = assemble(src, AsmMode::Multiscalar).unwrap();
    /// let mut p = Processor::new(prog, SimConfig::multiscalar(4)).unwrap();
    /// let stats = p.run().unwrap();
    /// assert_eq!(stats.instructions, 3);
    /// assert_eq!(stats.tasks_retired, 1);
    /// ```
    ///
    /// # Errors
    /// Propagates unit faults, annotation errors, the cycle bound
    /// ([`SimError::Timeout`]) and the forward-progress watchdog
    /// ([`SimError::NoProgress`]); the latter two carry a
    /// [`DiagnosticSnapshot`] of the stuck machine.
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        while !(self.halted && self.active.is_empty()) {
            // Always-on flight recorder: a bounded ring of periodic
            // snapshots, shipped with any timeout/watchdog failure so the
            // lead-up to the hang is visible, not just its endpoint.
            if self.flight.due(self.now) {
                let snap = self.snapshot();
                self.flight.record(self.now, snap);
            }
            if self.now >= self.cfg.max_cycles {
                return Err(SimError::Timeout {
                    cycles: self.cfg.max_cycles,
                    snapshot: Some(Box::new(self.snapshot())),
                    history: self.flight.history(),
                });
            }
            if let Some(window) = self.cfg.watchdog {
                if self.now - self.last_retire_cycle >= window {
                    return Err(SimError::NoProgress {
                        window,
                        snapshot: Box::new(self.snapshot()),
                        history: self.flight.history(),
                    });
                }
            }
            self.step()?;
        }
        self.finalize_stats();
        Ok(self.stats.clone())
    }

    /// Captures the current microarchitectural state for diagnosis: the
    /// payload of [`SimError::Timeout`], [`SimError::NoProgress`] and
    /// [`SimError::Internal`], also callable directly from debug tools.
    pub fn snapshot(&self) -> DiagnosticSnapshot {
        let arb_stats = self.arb.stats();
        DiagnosticSnapshot {
            cycle: self.now,
            last_retire_cycle: self.last_retire_cycle,
            tasks_retired: self.stats.tasks_retired,
            halted: self.halted,
            pending: format!("{:?}", self.pending),
            head: self.active.front().map(|r| HeadDiag {
                order: r.order,
                unit: r.unit,
                entry: r.entry,
                age: self.now.saturating_sub(r.assigned_at),
                validated: r.validated,
                exit_resolved: r.exit.is_some(),
            }),
            units: (0..self.cfg.units)
                .map(|u| {
                    let rec = self.active.iter().find(|r| r.unit == u);
                    UnitDiag {
                        unit: u,
                        active: self.units[u].is_active(),
                        order: rec.map(|r| r.order),
                        entry: rec.map(|r| r.entry),
                        complete: self.units[u].is_complete(self.now),
                        awaiting: self.units[u].awaiting_regs().len(),
                        stall: self.units[u].stall_reason(),
                        stall_hist: *self.units[u].stall_histogram(),
                    }
                })
                .collect(),
            ring_in_flight: self.ring.in_flight(),
            ring_queues: self.ring.occupancies(),
            arb_bank_occupancy: (0..self.cfg.banks.nbanks).map(|b| self.arb.occupancy(b)).collect(),
            arb_full_events: arb_stats.full_events,
            arb_violations: arb_stats.violations,
        }
    }

    /// Builds a [`SimError::Internal`] carrying the current snapshot.
    fn internal_error(&self, what: &str) -> SimError {
        SimError::Internal { what: what.to_string(), snapshot: Box::new(self.snapshot()) }
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.now;
        self.stats.arb = self.arb.stats();
        self.stats.dcache = self.banks.stats();
        self.stats.bus = self.bus.stats();
        self.stats.descriptor_cache = self.desc_cache.stats();
        let mut ic = ms_memsys::CacheStats::default();
        for u in &self.units {
            ic.accesses += u.icache_stats().accesses;
            ic.misses += u.icache_stats().misses;
        }
        self.stats.icache = ic;
        self.stats.predictions = self.predictor.stats().predictions;
        self.stats.correct_predictions = self.predictor.stats().correct;
        self.stats.cpi = self.sink.cpi_stack(self.now, self.stats.instructions);
    }

    /// [`Ring::send`] with the injector's hop jitter applied; a plain
    /// send when injection is disabled.
    fn ring_send(&mut self, unit: usize, msg: RingMsg, now: u64) {
        if F::ENABLED {
            let extra = self.inject.ring_extra_delay(now, unit);
            self.ring.send_delayed(unit, msg, now, extra);
        } else {
            self.ring.send(unit, msg, now);
        }
    }

    /// Order of the active task on `unit`, if any.
    fn unit_order(&self, unit: usize) -> Option<u64> {
        self.active.iter().find(|r| r.unit == unit).map(|r| r.order)
    }

    /// Advances the simulation one cycle.
    ///
    /// # Errors
    /// See [`Processor::run`].
    pub fn step(&mut self) -> Result<(), SimError> {
        let now = self.now;
        let n = self.cfg.units;

        // Chaos pressure windows: the injector may temporarily throttle
        // ring bandwidth or ARB capacity (both clamped so progress is
        // never starved). Compiles away under `NoFaults`.
        if F::ENABLED {
            let ring_cap = self.inject.ring_width_cap(now);
            self.ring.set_width_cap(ring_cap);
            let arb_cap = self.inject.arb_capacity_cap(now);
            self.arb.set_capacity_pressure(arb_cap);
        }

        // 1-2. Ring hop and delivery. A message travels forward until it
        // reaches (a) an older or equal task — it has wrapped all the way
        // around, or (b) the newest assigned task — every future task will
        // snapshot that unit's forwarded view, so the value need travel no
        // further. Idle units pass messages through (their successors may
        // hold later tasks that still need the value).
        let newest_order = self.active.back().map(|r| r.order);
        // Reused scratch buffer (taken so `self.ring.send` stays legal
        // inside the loop; restored — cleared — at the end of the pass).
        let mut arrivals = std::mem::take(&mut self.scratch_arrivals);
        self.ring.step_into(now, &mut arrivals, &mut self.sink);
        for (dest, msg) in arrivals.drain(..) {
            debug_assert!(msg.hops <= 4 * n, "ring message circulating: {msg:?}");
            // Stale-value kill: a later producer of this register already
            // retired, so no live or future task may consume this copy.
            if self.retired_creates[msg.reg.index()] > msg.sender_order + 1 {
                if Self::TRACED {
                    self.sink.event(&TraceEvent::RingDie {
                        cycle: now,
                        unit: dest,
                        reg: msg.reg.index() as u8,
                        hops: msg.hops as u32,
                    });
                }
                continue;
            }
            match self.unit_order(dest) {
                Some(order) if order > msg.sender_order => {
                    // A live producer of this register sits between the
                    // sender and this task in program order. The message
                    // should have died at that producer's unit but slipped
                    // past while the unit was idle (a squash re-sequencing
                    // window can re-assign the producer after the message
                    // has gone by) — the value is stale here and for every
                    // later task, so kill it instead of delivering.
                    let skipped_producer = self.active.iter().any(|rec| {
                        rec.order > msg.sender_order
                            && rec.order < order
                            && rec.create.contains(msg.reg)
                    });
                    if skipped_producer {
                        if Self::TRACED {
                            self.sink.event(&TraceEvent::RingDie {
                                cycle: now,
                                unit: dest,
                                reg: msg.reg.index() as u8,
                                hops: msg.hops as u32,
                            });
                        }
                        continue;
                    }
                    let propagate = self.units[dest].receive(msg.reg, msg.val, now);
                    if Self::TRACED {
                        self.sink.event(&TraceEvent::RingDeliver {
                            cycle: now,
                            unit: dest,
                            reg: msg.reg.index() as u8,
                            hops: msg.hops as u32,
                            propagate,
                        });
                    }
                    if propagate && Some(order) != newest_order {
                        self.ring_send(dest, msg, now);
                    }
                }
                Some(_) => {
                    if Self::TRACED {
                        self.sink.event(&TraceEvent::RingDie {
                            cycle: now,
                            unit: dest,
                            reg: msg.reg.index() as u8,
                            hops: msg.hops as u32,
                        });
                    }
                } // wrapped to the sender or older tasks: dies
                None => {
                    if !self.active.is_empty() {
                        self.ring_send(dest, msg, now); // pass through an idle unit
                    } else if Self::TRACED {
                        self.sink.event(&TraceEvent::RingDie {
                            cycle: now,
                            unit: dest,
                            reg: msg.reg.index() as u8,
                            hops: msg.hops as u32,
                        });
                    }
                }
            }
        }

        self.scratch_arrivals = arrivals;

        // 3. Execute, head to tail (deterministic task-order memory refs).
        let mut violations = std::mem::take(&mut self.scratch_violations);
        let mut exits = std::mem::take(&mut self.scratch_exits);
        let mut arb_stalled = std::mem::take(&mut self.scratch_arb_stalled);
        let active_len = self.active.len();
        for pos in 0..active_len {
            let unit_idx = self.active[pos].unit;
            let mut ports = MemPorts {
                mem: &mut self.mem,
                bus: &mut self.bus,
                banks: &mut self.banks,
                arb: Some(&mut self.arb),
                stage: unit_idx,
                active_ranks: active_len,
            };
            let out = self.units[unit_idx].tick_traced(now, &self.prog, &mut ports, &mut self.sink);
            if let Some(f) = self.units[unit_idx].fault() {
                return Err(SimError::Fault(f.to_owned()));
            }
            violations.extend(out.violations);
            if out.stall == Some(ms_pipeline::StallClass::ArbFull) && pos > 0 {
                arb_stalled.push(pos);
            }
            if let Some(exit) = out.exit {
                exits.push((pos, exit));
            }
        }
        self.stats.breakdown.idle += (n - active_len) as u64;
        if Self::TRACED {
            // Each unit that ticked above emitted one UnitIssue or
            // UnitStall; the units holding no task are the rest of the
            // circular queue, from the tail onward. They stall for squash
            // recovery if their last task was squashed and nothing new
            // arrived yet, for plain no-task idleness otherwise.
            let mut u = self.next_unit;
            for _ in active_len..n {
                debug_assert!(!self.units[u].is_active(), "idle unit {u} holds a task");
                let reason = if self.recovering[u] {
                    StallReason::SquashRecovery
                } else {
                    StallReason::NoTask
                };
                self.sink.event(&TraceEvent::UnitStall { cycle: now, unit: u, reason });
                u = if u + 1 == n { 0 } else { u + 1 };
            }
        }

        // 4. Collect new ring sends.
        let mut sends = std::mem::take(&mut self.scratch_sends);
        for pos in 0..self.active.len() {
            let rec_unit = self.active[pos].unit;
            let rec_order = self.active[pos].order;
            self.units[rec_unit].drain_sends_into(now, &mut sends);
            for (reg, val) in sends.drain(..) {
                if Self::TRACED {
                    self.sink.event(&TraceEvent::RingSend {
                        cycle: now,
                        unit: rec_unit,
                        reg: reg.index() as u8,
                        order: rec_order,
                    });
                }
                self.ring_send(
                    rec_unit,
                    RingMsg { reg, val, sender_order: rec_order, hops: 0 },
                    now,
                );
            }
        }
        self.scratch_sends = sends;

        // 5. Record exits, validate successors, process violations.
        for &(pos, exit) in &exits {
            self.active[pos].exit = Some(exit);
        }
        let mut squash: Option<(usize, Pending, SquashCause)> = None;
        let consider = |req: (usize, Pending, SquashCause), slot: &mut Option<_>| {
            let replace = match slot {
                None => true,
                Some((p, _, c)) => {
                    req.0 < *p
                        || (req.0 == *p
                            && req.2 == SquashCause::Control
                            && *c != SquashCause::Control)
                }
            };
            if replace {
                *slot = Some(req);
            }
        };
        // Memory violations: squash the earliest violated task.
        for v_unit in violations.drain(..) {
            if let Some(pos) = self.active.iter().position(|r| r.unit == v_unit) {
                let rec = &self.active[pos];
                let redirect = Pending::Entry {
                    pc: rec.entry,
                    by_prediction: rec.by_prediction,
                    choice: rec.hist.map(|(from, _, idx)| (from, idx)),
                };
                consider((pos, redirect, SquashCause::Memory), &mut squash);
            }
        }
        // Control validation, in task order.
        for pos in 0..self.active.len() {
            if self.active[pos].exit.is_none() || self.active[pos].validated {
                continue;
            }
            if let Some(req) = self.validate(pos)? {
                consider(req, &mut squash);
            }
        }
        // ARB-overflow policy: the paper's "simple solution is to free ARB
        // storage by squashing tasks" (vs. the default stall).
        if self.cfg.arb_full_policy == ArbFullPolicy::Squash {
            for pos in arb_stalled.drain(..) {
                if pos < self.active.len() {
                    let rec = &self.active[pos];
                    let redirect = Pending::Entry {
                        pc: rec.entry,
                        by_prediction: rec.by_prediction,
                        choice: rec.hist.map(|(from, _, idx)| (from, idx)),
                    };
                    consider((pos, redirect, SquashCause::ArbFull), &mut squash);
                }
            }
        }
        // Chaos: a fault plan may request a spurious squash at position
        // `k`. Recovery re-dispatches the squashed task itself (the
        // memory-violation redirect), so architectural results are
        // unchanged. The head (k = 0) is never squashed — as in the
        // paper, the head is non-speculative — and real squash causes at
        // earlier positions take precedence via `consider`.
        if F::ENABLED {
            if let Some(k) = self.inject.spurious_squash(now, self.active.len()) {
                if k >= 1 && k < self.active.len() {
                    let rec = &self.active[k];
                    let redirect = Pending::Entry {
                        pc: rec.entry,
                        by_prediction: rec.by_prediction,
                        choice: rec.hist.map(|(from, _, idx)| (from, idx)),
                    };
                    consider((k, redirect, SquashCause::Chaos), &mut squash);
                }
            }
        }
        if let Some((pos, redirect, cause)) = squash {
            self.squash_from(pos, redirect, cause)?;
        }
        exits.clear();
        arb_stalled.clear();
        self.scratch_violations = violations;
        self.scratch_exits = exits;
        self.scratch_arb_stalled = arb_stalled;

        // 6. Retire at the head (one per cycle).
        let retire = match self.active.front() {
            Some(head) => {
                let u = head.unit;
                (self.units[u].is_complete(now) && head.validated).then_some(u)
            }
            None => None,
        };
        if let Some(u) = retire {
            let Some(head) = self.active.pop_front() else {
                return Err(self.internal_error("retire: head task vanished mid-cycle"));
            };
            let lines = self.arb.drain_stage(u, &mut self.mem);
            for line in lines {
                self.banks.drain_store(now, line, &mut self.bus);
            }
            let c = self.units[u].counters();
            self.stats.instructions += c.instructions;
            self.stats.tasks_retired += 1;
            self.stats.breakdown.useful += c.busy_cycles;
            self.stats.breakdown.no_comp_inter_task += c.inter_task_cycles;
            self.stats.breakdown.no_comp_intra_task += c.intra_task_cycles;
            self.stats.breakdown.no_comp_wait_retire += c.wait_retire_cycles;
            self.stats.breakdown.no_comp_arb += c.arb_stall_cycles;
            self.retirement_log.push(Retirement {
                cycle: now,
                entry: head.entry,
                unit: u,
                instructions: c.instructions,
            });
            if Self::TRACED {
                self.sink.event(&TraceEvent::TaskRetire {
                    cycle: now,
                    order: head.order,
                    unit: u,
                    entry: head.entry,
                    instructions: c.instructions,
                });
            }
            self.units[u].retire(now);
            self.last_retired_unit = Some(u);
            self.last_retire_cycle = now;
            // Record this task as the latest retired producer of its
            // create-mask registers; in-flight messages from older tasks
            // carrying these registers are now stale (see the kill in
            // the arrivals loop).
            if let Some(desc) = self.prog.task_at(head.entry) {
                for r in desc.create.iter() {
                    self.retired_creates[r.index()] = head.order + 1;
                }
            }
            match self.active.front() {
                Some(next) => self.arb.set_head(next.unit),
                None => self.arb.set_head(self.next_unit),
            }
            if head.exit == Some(ExitKind::Halt) {
                self.halted = true;
            }
        }

        // 7. Assign at the tail.
        if !self.halted {
            self.assign_phase(now)?;
        }

        if Self::TRACED && now.is_multiple_of(ARB_OCCUPANCY_SAMPLE_PERIOD) {
            self.sink.event(&TraceEvent::ArbOccupancy {
                cycle: now,
                entries: self.arb.total_occupancy(),
            });
        }

        self.now += 1;
        Ok(())
    }

    /// Always `(0, 0, 0)`: the whole-machine skip-ahead these counters
    /// measured is gone (unit parking is the only quiet-span mechanism,
    /// see [`Processor::unit_park_stats`]). Kept so callers that still
    /// report it, such as the `perfbench` harness, keep building.
    pub fn skip_telemetry(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Aggregated unit-parking telemetry: `(probes, parks, cycles
    /// replayed)` summed over all units (see
    /// [`ms_pipeline::ProcessingUnit::park_stats`]).
    pub fn unit_park_stats(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for u in &self.units {
            let s = u.park_stats();
            t.0 += s.0;
            t.1 += s.1;
            t.2 += s.2;
        }
        t
    }

    /// Validates the successor of the task at `pos`, training the
    /// predictor and maintaining the RAS. Returns a squash request if the
    /// successor on record is wrong.
    fn validate(&mut self, pos: usize) -> Result<Option<(usize, Pending, SquashCause)>, SimError> {
        let Some(exit) = self.active[pos].exit else {
            return Err(self.internal_error("validate: task has no resolved exit"));
        };
        let entry = self.active[pos].entry;
        let desc = self.prog.task_at(entry).ok_or(SimError::NoDescriptor { pc: entry })?;
        let actual_idx = actual_target_index(desc, exit)
            .ok_or_else(|| SimError::ExitNotInTargets { task: entry, exit: format!("{exit:?}") })?;
        // Train the pattern table at the history that preceded this
        // outcome. If the successor is already assigned, its record holds
        // the pre-shift history; otherwise no shift has happened yet and
        // the current history is the right one.
        let train_hist = match self.active.get(pos + 1).and_then(|s| s.hist) {
            Some((from, prev, _)) if from == entry => prev,
            _ => self.predictor.history(entry),
        };
        self.predictor.train(entry, train_hist, actual_idx);
        self.last_outcome.insert(entry, actual_idx);
        self.active[pos].validated = true;

        // RAS bookkeeping at resolution.
        match exit {
            ExitKind::Call { ret, .. } => self.ras.push(ret),
            ExitKind::Return(_) if !self.active[pos].ras_popped => {
                let _ = self.ras.pop();
                self.active[pos].ras_popped = true;
            }
            _ => {}
        }

        let actual_next = exit.next_pc();
        if pos + 1 < self.active.len() {
            // A successor is running: check it.
            let succ = &self.active[pos + 1];
            let correct = actual_next == Some(succ.entry);
            if succ.by_prediction {
                self.predictor.note_outcome(correct);
            }
            if Self::TRACED {
                self.sink.event(&TraceEvent::TaskValidate {
                    cycle: self.now,
                    entry,
                    actual_next,
                    correct,
                });
            }
            if !correct {
                let redirect = match actual_next {
                    Some(pc) => Pending::Entry {
                        pc,
                        by_prediction: false,
                        choice: Some((entry, actual_idx)),
                    },
                    None => Pending::Stop,
                };
                return Ok(Some((pos + 1, redirect, SquashCause::Control)));
            }
        } else {
            // No successor assigned yet: resolve the pending choice.
            let resolved = match actual_next {
                Some(pc) => {
                    Pending::Entry { pc, by_prediction: false, choice: Some((entry, actual_idx)) }
                }
                None => Pending::Stop,
            };
            let mut correct = true;
            match self.pending {
                Pending::Unknown => self.pending = resolved,
                Pending::Entry { pc: e, by_prediction: by_pred, .. } => {
                    correct = actual_next == Some(e);
                    if by_pred {
                        self.predictor.note_outcome(correct);
                    }
                    self.pending = resolved;
                }
                Pending::Stop => {
                    correct = actual_next.is_none();
                    self.predictor.note_outcome(correct);
                    if actual_next.is_some() {
                        self.pending = resolved;
                    }
                }
            }
            if Self::TRACED {
                self.sink.event(&TraceEvent::TaskValidate {
                    cycle: self.now,
                    entry,
                    actual_next,
                    correct,
                });
            }
        }
        Ok(None)
    }

    /// Squashes the task at `pos` and all its successors; the sequencer
    /// resumes from `redirect`.
    fn squash_from(
        &mut self,
        pos: usize,
        redirect: Pending,
        cause: SquashCause,
    ) -> Result<(), SimError> {
        debug_assert!(pos < self.active.len());
        let cutoff = self.active[pos].order;
        let depth = self.active.len() - pos;
        self.ras.restore(self.active[pos].ras_snap);
        while self.active.len() > pos {
            let Some(rec) = self.active.pop_back() else {
                return Err(self.internal_error("squash: active queue shrank mid-wave"));
            };
            let c = self.units[rec.unit].counters();
            if Self::TRACED {
                self.sink.event(&TraceEvent::TaskSquash {
                    cycle: self.now,
                    order: rec.order,
                    unit: rec.unit,
                    entry: rec.entry,
                    cause: cause.kind(),
                });
            }
            self.stats.tasks_squashed += 1;
            self.stats.squashed_instructions += c.instructions;
            self.stats.breakdown.non_useful += c.total_cycles();
            if Self::TRACED {
                self.recovering[rec.unit] = true;
            }
            self.units[rec.unit].clear();
            self.arb.free_stage(rec.unit);
            // Undo the speculative history shift (newest first, so
            // aliased first-level entries restore exactly).
            if let Some((from, prev, _)) = rec.hist {
                self.predictor.set_history(from, prev);
            }
        }
        // Deliberately skippable under the `chaos-broken-squash` feature:
        // leaving a squashed task's in-flight register messages on the
        // ring is a seeded bug the chaos campaign must catch (wrong-path
        // values deliver to re-dispatched tasks and corrupt results).
        #[cfg(not(feature = "chaos-broken-squash"))]
        self.ring.discard_if(|m| m.sender_order >= cutoff);
        #[cfg(feature = "chaos-broken-squash")]
        let _ = cutoff;
        if Self::TRACED {
            let redirect_pc = match redirect {
                Pending::Entry { pc, .. } => Some(pc),
                _ => None,
            };
            self.sink.event(&TraceEvent::SquashWave {
                cycle: self.now,
                cause: cause.kind(),
                depth,
                redirect: redirect_pc,
            });
        }
        match cause {
            SquashCause::Control => self.stats.control_squashes += 1,
            SquashCause::Memory => self.stats.memory_squashes += 1,
            SquashCause::ArbFull => self.stats.arb_squashes += 1,
            // Chaos waves reach the trace sink but deliberately touch no
            // `RunStats` counter: reported stats describe the modeled
            // machine, not the injected faults.
            SquashCause::Chaos => {}
        }
        self.next_unit = match self.active.back() {
            Some(last) => (last.unit + 1) % self.cfg.units,
            None => match self.last_retired_unit {
                Some(u) => (u + 1) % self.cfg.units,
                None => 0,
            },
        };
        if self.active.is_empty() {
            self.arb.set_head(self.next_unit);
        }
        self.pending = redirect;
        // Re-sequencing costs a cycle before the next assignment.
        self.seq_ready_at = self.now + 1;
        Ok(())
    }

    fn assign_phase(&mut self, now: u64) -> Result<(), SimError> {
        if now < self.seq_ready_at || self.active.len() >= self.cfg.units {
            return Ok(());
        }
        // Derive the next task if unknown.
        if self.pending == Pending::Unknown {
            let Some(last) = self.active.back() else {
                // Nothing active and nothing pending: the last retired
                // task's validation must have set pending; nothing to do.
                return Ok(());
            };
            if last.exit.is_none() {
                // Predict the successor of the last assigned task.
                let desc = self
                    .prog
                    .task_at(last.entry)
                    .ok_or(SimError::NoDescriptor { pc: last.entry })?;
                let idx = match self.cfg.predictor {
                    PredictorKind::Pas => self.predictor.predict_traced(
                        now,
                        last.entry,
                        desc.targets.len(),
                        &mut self.sink,
                    ),
                    PredictorKind::StaticFirstTarget => 0,
                    PredictorKind::LastOutcome => self
                        .last_outcome
                        .get(&last.entry)
                        .copied()
                        .filter(|&i| i < desc.targets.len())
                        .unwrap_or(0),
                };
                // Chaos: a fault plan may force a different target
                // choice. The pick is still `by_prediction`, so normal
                // successor validation detects and recovers from it.
                let idx = if F::ENABLED {
                    self.inject
                        .override_prediction(now, last.order, last.entry, desc.targets.len(), idx)
                        .min(desc.targets.len().saturating_sub(1))
                } else {
                    idx
                };
                let from = last.entry;
                match desc.targets[idx].kind {
                    TargetKind::Addr(a) => {
                        self.pending =
                            Pending::Entry { pc: a, by_prediction: true, choice: Some((from, idx)) }
                    }
                    TargetKind::Halt => self.pending = Pending::Stop,
                    TargetKind::Return => {
                        if let Some(pc) = self.ras.pop() {
                            if self.prog.task_at(pc).is_some() {
                                let Some(last) = self.active.back_mut() else {
                                    return Err(
                                        self.internal_error("assign: predicted task vanished")
                                    );
                                };
                                last.ras_popped = true;
                                self.pending = Pending::Entry {
                                    pc,
                                    by_prediction: true,
                                    choice: Some((from, idx)),
                                };
                            } else {
                                // Bad speculative pop: undo and wait for
                                // the actual exit.
                                self.ras.push(pc);
                                return Ok(());
                            }
                        } else {
                            return Ok(()); // RAS empty: wait for actual
                        }
                    }
                }
            }
            // If the exit is known but validation hasn't run yet (same
            // cycle), wait: validation will set pending.
        }
        let Pending::Entry { pc: entry, by_prediction, choice } = self.pending else {
            return Ok(());
        };
        let Some(desc) = self.prog.task_at(entry) else {
            if by_prediction {
                // A mispredicted path led outside the annotation; treat as
                // an unpredictable successor and wait for the actual exit.
                self.pending = Pending::Unknown;
                return Ok(());
            }
            return Err(SimError::NoDescriptor { pc: entry });
        };
        let create = desc.create;
        // Descriptor fetch: on a miss the descriptor travels the bus.
        let desc_hit = self.desc_cache.access(entry);
        if Self::TRACED {
            self.sink.event(&TraceEvent::DescriptorFetch { cycle: now, entry, hit: desc_hit });
        }
        if !desc_hit {
            self.seq_ready_at = self.bus.request_traced(now, 4, &mut self.sink) + 1;
            return Ok(());
        }
        let unit_idx = self.next_unit;
        debug_assert!(!self.units[unit_idx].is_active(), "tail unit busy");

        let (vals, known) = match self.active.back().map(|r| r.unit).or(self.last_retired_unit) {
            Some(u) => {
                let (v, k) = self.units[u].fwd_view();
                (*v, k)
            }
            None => (self.boot_vals, RegMask::from_bits(!0)),
        };
        let awaiting = RegMask::from_bits(!known.bits());
        self.units[unit_idx].assign_task(entry, create, &vals, awaiting, now);

        let order = self.next_order;
        self.next_order += 1;
        if Self::TRACED {
            self.recovering[unit_idx] = false;
            self.sink.event(&TraceEvent::TaskAssign {
                cycle: now,
                order,
                unit: unit_idx,
                entry,
                by_prediction,
            });
        }
        if self.active.is_empty() {
            self.arb.set_head(unit_idx);
        }
        // Speculative history update: shift the chosen target index into
        // the predecessor's history now, remembering the pre-shift value
        // for squash repair.
        let hist = choice.map(|(from, idx)| {
            let prev = self.predictor.shift(from, idx);
            (from, prev, idx)
        });
        self.active.push_back(TaskRecord {
            order,
            unit: unit_idx,
            entry,
            by_prediction,
            ras_snap: self.ras.snapshot(),
            exit: None,
            ras_popped: false,
            validated: false,
            hist,
            assigned_at: now,
            create,
        });
        self.next_unit = (unit_idx + 1) % self.cfg.units;
        self.pending = Pending::Unknown;
        self.seq_ready_at = now + 1; // one assignment per cycle
        Ok(())
    }
}

/// Maps an actual task exit to the descriptor target index it matches.
fn actual_target_index(desc: &TaskDescriptor, exit: ExitKind) -> Option<usize> {
    match exit {
        ExitKind::Halt => desc.targets.iter().position(|t| t.kind == TargetKind::Halt),
        ExitKind::Return(pc) => desc
            .targets
            .iter()
            .position(|t| t.kind == TargetKind::Return)
            .or_else(|| desc.target_index_for(pc)),
        ExitKind::Call { target, .. } => desc.target_index_for(target),
        ExitKind::Jump(pc) | ExitKind::Fall(pc) => desc.target_index_for(pc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actual_index_maps_exits() {
        use ms_isa::TaskTarget;
        let desc = TaskDescriptor::new(
            0x1000,
            RegMask::EMPTY,
            vec![TaskTarget::addr(0x1000), TaskTarget::ret(), TaskTarget::halt()],
        );
        assert_eq!(actual_target_index(&desc, ExitKind::Jump(0x1000)), Some(0));
        assert_eq!(actual_target_index(&desc, ExitKind::Fall(0x1000)), Some(0));
        assert_eq!(actual_target_index(&desc, ExitKind::Return(0x5555)), Some(1));
        assert_eq!(actual_target_index(&desc, ExitKind::Halt), Some(2));
        assert_eq!(actual_target_index(&desc, ExitKind::Jump(0x2000)), None);
        assert_eq!(actual_target_index(&desc, ExitKind::Call { target: 0x1000, ret: 0 }), Some(0));
    }
}
