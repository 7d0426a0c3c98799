//! The structured event vocabulary of the simulator.
//!
//! Every observable micro-architectural occurrence is a [`TraceEvent`]
//! with an explicit cycle timestamp, mirroring the mechanisms of the
//! paper: the sequencer's task lifecycle (Section 2/3.1), the register
//! forwarding ring (Section 2.1), per-unit stall taxonomy (Section 3),
//! and the memory system — ARB, banked data cache, per-unit instruction
//! caches and the shared bus (Sections 2.3/5.1).

/// Why a run of tasks was squashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SquashKind {
    /// Task-level control misprediction (Section 3.1.2).
    Control,
    /// Memory-order violation detected by the ARB (Section 2.3).
    Memory,
    /// ARB overflow under the squash policy (Section 2.3).
    ArbFull,
    /// Spurious squash injected by a fault plan (chaos testing). Never
    /// produced by the baseline machine; exercises the same recovery
    /// machinery as the real causes.
    Chaos,
}

impl SquashKind {
    /// Stable lowercase name (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            SquashKind::Control => "control",
            SquashKind::Memory => "memory",
            SquashKind::ArbFull => "arb_full",
            SquashKind::Chaos => "chaos",
        }
    }
}

/// Fine-grained reason a unit with an assigned task issued nothing this
/// cycle (refines the paper's Section-3 no-computation taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallReason {
    /// Nothing decoded and issue-eligible (fetch latency, I-cache miss,
    /// redirect bubble).
    FetchEmpty,
    /// Oldest eligible instruction waits on an intra-task register value.
    LocalDep,
    /// Oldest eligible instruction waits on a value from a predecessor
    /// task (inter-task register communication).
    RemoteDep,
    /// Required functional unit busy.
    FuBusy,
    /// Out-of-order issue blocked by an ordering hazard.
    Hazard,
    /// Blocked allocating ARB space.
    ArbFull,
    /// All issued instructions still in flight after the stop resolved.
    Drain,
    /// Task complete; waiting to reach the head for retirement.
    WaitRetire,
    /// Nothing issue-eligible while an instruction-cache miss fill is in
    /// flight (refines [`StallReason::FetchEmpty`]: the fetch bubble is a
    /// memory-system penalty, not a decode/redirect artifact).
    CacheMiss,
    /// No task assigned: the unit sits idle in the circular queue
    /// because the sequencer has nothing for it (program drained, or
    /// the head has not freed the slot).
    NoTask,
    /// The unit was emptied by a squash wave and has not been handed a
    /// new task yet (recovery shadow of a misprediction or violation).
    SquashRecovery,
}

impl StallReason {
    /// Stable lowercase name (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            StallReason::FetchEmpty => "fetch_empty",
            StallReason::LocalDep => "local_dep",
            StallReason::RemoteDep => "remote_dep",
            StallReason::FuBusy => "fu_busy",
            StallReason::Hazard => "hazard",
            StallReason::ArbFull => "arb_full",
            StallReason::Drain => "drain",
            StallReason::WaitRetire => "wait_retire",
            StallReason::CacheMiss => "cache_miss",
            StallReason::NoTask => "no_task",
            StallReason::SquashRecovery => "squash_recovery",
        }
    }

    /// Index into per-reason counter arrays.
    pub fn index(self) -> usize {
        match self {
            StallReason::FetchEmpty => 0,
            StallReason::LocalDep => 1,
            StallReason::RemoteDep => 2,
            StallReason::FuBusy => 3,
            StallReason::Hazard => 4,
            StallReason::ArbFull => 5,
            StallReason::Drain => 6,
            StallReason::WaitRetire => 7,
            StallReason::CacheMiss => 8,
            StallReason::NoTask => 9,
            StallReason::SquashRecovery => 10,
        }
    }

    /// Number of reasons (length of [`StallReason::ALL`]).
    pub const COUNT: usize = 11;

    /// All reasons, in [`StallReason::index`] order.
    pub const ALL: [StallReason; Self::COUNT] = [
        StallReason::FetchEmpty,
        StallReason::LocalDep,
        StallReason::RemoteDep,
        StallReason::FuBusy,
        StallReason::Hazard,
        StallReason::ArbFull,
        StallReason::Drain,
        StallReason::WaitRetire,
        StallReason::CacheMiss,
        StallReason::NoTask,
        StallReason::SquashRecovery,
    ];
}

/// One timestamped simulator event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    // ---- Sequencer (task lifecycle) ----
    /// The sequencer predicted the successor of `task`.
    TaskPredict {
        /// Cycle of prediction.
        cycle: u64,
        /// Entry address of the predicting (predecessor) task.
        task: u32,
        /// Predictor history register value used for the lookup.
        history: u16,
        /// Chosen target index.
        chosen: usize,
        /// Number of descriptor targets to choose from.
        ntargets: usize,
    },
    /// A task was assigned to a processing unit.
    TaskAssign {
        /// Cycle of assignment.
        cycle: u64,
        /// Dispatch order (monotone task id).
        order: u64,
        /// Processing unit.
        unit: usize,
        /// Task entry address.
        entry: u32,
        /// Entered via sequencer prediction (vs. known successor).
        by_prediction: bool,
    },
    /// A task's actual successor became known and was checked.
    TaskValidate {
        /// Cycle of validation.
        cycle: u64,
        /// Entry address of the validated task.
        entry: u32,
        /// Actual successor entry (`None`: program ends).
        actual_next: Option<u32>,
        /// Whether the assigned/pending successor matched.
        correct: bool,
    },
    /// A task retired at the head of the circular queue.
    TaskRetire {
        /// Cycle of retirement.
        cycle: u64,
        /// Dispatch order.
        order: u64,
        /// Processing unit.
        unit: usize,
        /// Task entry address.
        entry: u32,
        /// Instructions the task committed.
        instructions: u64,
    },
    /// One task was squashed (part of a squash wave).
    TaskSquash {
        /// Cycle of the squash.
        cycle: u64,
        /// Dispatch order.
        order: u64,
        /// Processing unit.
        unit: usize,
        /// Task entry address.
        entry: u32,
        /// Why the wave happened.
        cause: SquashKind,
    },
    /// A squash wave: the task at some position and all successors died.
    SquashWave {
        /// Cycle of the squash.
        cycle: u64,
        /// Why.
        cause: SquashKind,
        /// Number of tasks squashed.
        depth: usize,
        /// Where the sequencer resumes (`None`: stop/unknown).
        redirect: Option<u32>,
    },
    /// The sequencer looked up a task descriptor.
    DescriptorFetch {
        /// Cycle of the lookup.
        cycle: u64,
        /// Task entry address.
        entry: u32,
        /// Descriptor-cache hit (a miss pays a bus transfer).
        hit: bool,
    },

    // ---- Register forwarding ring ----
    /// A unit put a register value on the ring.
    RingSend {
        /// Cycle of the send.
        cycle: u64,
        /// Sending unit.
        unit: usize,
        /// Register index.
        reg: u8,
        /// Dispatch order of the sending task.
        order: u64,
    },
    /// A message completed one hop.
    RingHop {
        /// Cycle of arrival at `to`.
        cycle: u64,
        /// Unit the hop left.
        from: usize,
        /// Unit the hop reached.
        to: usize,
        /// Register index.
        reg: u8,
        /// Hops traveled so far (including this one).
        hops: u32,
    },
    /// A message was consumed by a unit holding a later task.
    RingDeliver {
        /// Cycle of delivery.
        cycle: u64,
        /// Receiving unit.
        unit: usize,
        /// Register index.
        reg: u8,
        /// Total hops from sender to receiver (ring latency).
        hops: u32,
        /// Whether the value propagates onward to later tasks.
        propagate: bool,
    },
    /// A message died (wrapped to its sender/an older task, or the ring
    /// emptied of tasks).
    RingDie {
        /// Cycle of death.
        cycle: u64,
        /// Unit at which it died.
        unit: usize,
        /// Register index.
        reg: u8,
        /// Hops traveled.
        hops: u32,
    },

    // ---- Processing units ----
    /// A unit with an assigned task issued at least one instruction this
    /// cycle.
    UnitIssue {
        /// The issuing cycle.
        cycle: u64,
        /// Processing unit.
        unit: usize,
    },
    /// A unit issued nothing this cycle: a unit holding a task says why,
    /// and a unit holding none is charged [`StallReason::NoTask`] or
    /// [`StallReason::SquashRecovery`].
    UnitStall {
        /// The stalled cycle.
        cycle: u64,
        /// Processing unit.
        unit: usize,
        /// Fine-grained reason.
        reason: StallReason,
    },
    /// A unit redirected fetch after resolving a control instruction.
    UnitRedirect {
        /// Cycle of the redirect.
        cycle: u64,
        /// Processing unit.
        unit: usize,
        /// New fetch PC.
        to_pc: u32,
    },

    // ---- Memory system ----
    /// A speculative load went through the ARB.
    ArbLoad {
        /// Cycle the access was made.
        cycle: u64,
        /// ARB stage (unit) of the load.
        unit: usize,
        /// Byte address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
        /// Whether any byte was forwarded from an earlier task's store.
        forwarded: bool,
    },
    /// A speculative store allocated in the ARB.
    ArbStore {
        /// Cycle the access was made.
        cycle: u64,
        /// ARB stage (unit) of the store.
        unit: usize,
        /// Byte address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
        /// Whether it exposed at least one memory-order violation.
        violated: bool,
    },
    /// The ARB detected a memory-order violation.
    ArbViolation {
        /// Cycle of detection.
        cycle: u64,
        /// Stage of the store that exposed the violation.
        store_unit: usize,
        /// Stage whose premature load was violated.
        violated_unit: usize,
        /// Byte address of the store.
        addr: u32,
    },
    /// An ARB allocation failed (row capacity exhausted).
    ArbFullStall {
        /// Cycle of the failed allocation.
        cycle: u64,
        /// Requesting stage.
        unit: usize,
        /// Byte address.
        addr: u32,
        /// Whether the request was a store.
        is_store: bool,
    },
    /// Periodic sample of total live ARB entries (occupancy over time).
    ArbOccupancy {
        /// Sample cycle.
        cycle: u64,
        /// Live entries across all banks.
        entries: usize,
    },
    /// A data-cache bank access (loads; speculative stores live in the
    /// ARB and do not probe the cache).
    DCacheAccess {
        /// Cycle the access started service.
        cycle: u64,
        /// Bank index.
        bank: usize,
        /// Byte address.
        addr: u32,
        /// Hit (ARB-forwarded loads count as hits: they cannot miss).
        hit: bool,
    },
    /// A per-unit instruction-cache fetch.
    ICacheFetch {
        /// Cycle of the fetch.
        cycle: u64,
        /// Fetching unit.
        unit: usize,
        /// Fetch PC.
        pc: u32,
        /// Hit.
        hit: bool,
    },
    /// A transfer on the shared split-transaction bus.
    BusRequest {
        /// Cycle the request was made.
        cycle: u64,
        /// Words transferred.
        words: u32,
        /// Cycles spent waiting behind earlier transactions.
        waited: u64,
        /// Absolute completion cycle.
        done: u64,
    },
}

impl TraceEvent {
    /// The event's cycle timestamp.
    pub fn cycle(&self) -> u64 {
        use TraceEvent::*;
        match *self {
            TaskPredict { cycle, .. }
            | TaskAssign { cycle, .. }
            | TaskValidate { cycle, .. }
            | TaskRetire { cycle, .. }
            | TaskSquash { cycle, .. }
            | SquashWave { cycle, .. }
            | DescriptorFetch { cycle, .. }
            | RingSend { cycle, .. }
            | RingHop { cycle, .. }
            | RingDeliver { cycle, .. }
            | RingDie { cycle, .. }
            | UnitIssue { cycle, .. }
            | UnitStall { cycle, .. }
            | UnitRedirect { cycle, .. }
            | ArbLoad { cycle, .. }
            | ArbStore { cycle, .. }
            | ArbViolation { cycle, .. }
            | ArbFullStall { cycle, .. }
            | ArbOccupancy { cycle, .. }
            | DCacheAccess { cycle, .. }
            | ICacheFetch { cycle, .. }
            | BusRequest { cycle, .. } => cycle,
        }
    }

    /// Stable snake_case kind name (used as the JSONL discriminator).
    pub fn kind(&self) -> &'static str {
        use TraceEvent::*;
        match self {
            TaskPredict { .. } => "task_predict",
            TaskAssign { .. } => "task_assign",
            TaskValidate { .. } => "task_validate",
            TaskRetire { .. } => "task_retire",
            TaskSquash { .. } => "task_squash",
            SquashWave { .. } => "squash_wave",
            DescriptorFetch { .. } => "descriptor_fetch",
            RingSend { .. } => "ring_send",
            RingHop { .. } => "ring_hop",
            RingDeliver { .. } => "ring_deliver",
            RingDie { .. } => "ring_die",
            UnitIssue { .. } => "unit_issue",
            UnitStall { .. } => "unit_stall",
            UnitRedirect { .. } => "unit_redirect",
            ArbLoad { .. } => "arb_load",
            ArbStore { .. } => "arb_store",
            ArbViolation { .. } => "arb_violation",
            ArbFullStall { .. } => "arb_full_stall",
            ArbOccupancy { .. } => "arb_occupancy",
            DCacheAccess { .. } => "dcache_access",
            ICacheFetch { .. } => "icache_fetch",
            BusRequest { .. } => "bus_request",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_cycle_are_consistent() {
        let ev = TraceEvent::TaskAssign {
            cycle: 7,
            order: 1,
            unit: 2,
            entry: 0x400,
            by_prediction: true,
        };
        assert_eq!(ev.kind(), "task_assign");
        assert_eq!(ev.cycle(), 7);
    }

    #[test]
    fn stall_reason_indices_are_a_bijection() {
        for (i, r) in StallReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }
}
