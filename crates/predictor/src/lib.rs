//! # ms-predictor — task-level control-flow prediction
//!
//! The multiscalar sequencer "uses information in the task descriptor to
//! predict one of the possible successor tasks". The paper's configuration
//! (Section 5.1): "The control flow prediction of the sequencer uses a PAs
//! configuration with 4 targets per prediction and 6 outcome histories.
//! The prediction storage is composed of a first level history table that
//! contains 64 entries of 12 bits each (2 bits for each outcome due to 4
//! targets) and a set of second level pattern tables that contain 4096
//! entries of 3 bits each (1 bit target taken/not taken and 2 bits target
//! number). The control flow prediction is supplemented by a 64 entry
//! return address stack." The sequencer also keeps "a 1024 entry direct
//! mapped cache of task descriptors".
//!
//! This crate provides all three structures. Histories are updated
//! speculatively: the processor shifts the chosen target into a task's
//! history when it assigns the successor ([`TaskPredictor::shift`]),
//! trains the pattern entry at the pre-shift history once the actual
//! successor is known ([`TaskPredictor::train`]), and restores the
//! pre-shift history when it squashes the task
//! ([`TaskPredictor::set_history`]). Updating histories only at
//! resolution measurably breaks PAs (DESIGN.md §3). The return-address
//! stack is repaired on squash by restoring its top pointer.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use ms_isa::MAX_TARGETS;

/// Statistics for the task predictor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Predictions issued.
    pub predictions: u64,
    /// Predictions later found correct.
    pub correct: u64,
}

const L1_ENTRIES: usize = 64;
const HISTORY_OUTCOMES: u32 = 6;
const HISTORY_BITS: u32 = 2 * HISTORY_OUTCOMES; // 12
const PATTERN_ENTRIES: usize = 1 << HISTORY_BITS; // 4096
const PATTERN_TABLES: usize = 4;

/// PAs-style two-level predictor over task successor targets.
///
/// The first level is a per-task history of the last 6 chosen target
/// numbers (2 bits each); the history indexes one of a set of second-level
/// pattern tables (selected by task address) whose 3-bit entries hold a
/// 2-bit predicted target number and a 1-bit hysteresis.
#[derive(Clone, Debug)]
pub struct TaskPredictor {
    histories: Vec<u16>,
    patterns: Vec<[u8; PATTERN_ENTRIES]>,
    stats: PredictorStats,
}

impl Default for TaskPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskPredictor {
    /// A predictor with the paper's table sizes.
    pub fn new() -> TaskPredictor {
        TaskPredictor {
            histories: vec![0u16; L1_ENTRIES],
            patterns: vec![[0u8; PATTERN_ENTRIES]; PATTERN_TABLES],
            stats: PredictorStats::default(),
        }
    }

    fn l1_index(task: u32) -> usize {
        ((task >> 2) as usize) % L1_ENTRIES
    }

    fn table_index(task: u32) -> usize {
        ((task >> 8) as usize) % PATTERN_TABLES
    }

    /// Predicts the successor-target index (`0..ntargets`) for the task at
    /// `task` entry address.
    ///
    /// # Panics
    /// Panics if `ntargets` is 0 or exceeds [`MAX_TARGETS`].
    pub fn predict(&self, task: u32, ntargets: usize) -> usize {
        assert!((1..=MAX_TARGETS).contains(&ntargets));
        let hist = self.histories[Self::l1_index(task)] as usize;
        let entry = self.patterns[Self::table_index(task)][hist & (PATTERN_ENTRIES - 1)];
        let target = (entry & 0b11) as usize;
        if target < ntargets {
            target
        } else {
            0
        }
    }

    /// [`TaskPredictor::predict`] with trace instrumentation: emits a
    /// `TaskPredict` event carrying the history register the lookup used,
    /// timestamped `now`.
    pub fn predict_traced<S: ms_trace::TraceSink>(
        &self,
        now: u64,
        task: u32,
        ntargets: usize,
        sink: &mut S,
    ) -> usize {
        let chosen = self.predict(task, ntargets);
        if S::ENABLED {
            sink.event(&ms_trace::TraceEvent::TaskPredict {
                cycle: now,
                task,
                history: self.history(task),
                chosen,
                ntargets,
            });
        }
        chosen
    }

    /// Records that a prediction resolved (and whether it was correct);
    /// separated from [`TaskPredictor::predict`] because in the simulator
    /// correctness is only known at resolution.
    pub fn note_outcome(&mut self, correct: bool) {
        self.stats.predictions += 1;
        if correct {
            self.stats.correct += 1;
        }
    }

    /// Trains the pattern entry selected by `hist` (the history *before*
    /// this outcome was shifted in) toward the actual target index.
    ///
    /// # Panics
    /// Panics if `actual >= MAX_TARGETS`.
    pub fn train(&mut self, task: u32, hist: u16, actual: usize) {
        assert!(actual < MAX_TARGETS);
        let entry =
            &mut self.patterns[Self::table_index(task)][hist as usize & (PATTERN_ENTRIES - 1)];
        let target = (*entry & 0b11) as usize;
        let hysteresis = *entry & 0b100 != 0;
        if target == actual {
            *entry |= 0b100; // reinforce
        } else if hysteresis {
            *entry &= !0b100; // weaken
        } else {
            *entry = actual as u8; // replace
        }
    }

    /// The current first-level history for `task`'s entry.
    pub fn history(&self, task: u32) -> u16 {
        self.histories[Self::l1_index(task)]
    }

    /// Overwrites the first-level history for `task`'s entry — used for
    /// speculative history update (shift at prediction time) and its
    /// squash repair (restore the pre-shift value).
    pub fn set_history(&mut self, task: u32, hist: u16) {
        self.histories[Self::l1_index(task)] = hist & ((1 << HISTORY_BITS) - 1);
    }

    /// Shifts outcome `idx` into `task`'s history, returning the previous
    /// value for squash repair.
    ///
    /// # Panics
    /// Panics if `idx >= MAX_TARGETS`.
    pub fn shift(&mut self, task: u32, idx: usize) -> u16 {
        assert!(idx < MAX_TARGETS);
        let prev = self.history(task);
        self.set_history(task, (prev << 2) | idx as u16);
        prev
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }
}

/// A fixed-capacity circular return-address stack.
///
/// Overflow overwrites the oldest entry; underflow returns `None`. The
/// top pointer can be snapshotted and restored for squash repair (stack
/// *contents* clobbered by wrong-path pushes are not restored, matching
/// real hardware behaviour).
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    slots: Vec<u32>,
    top: usize,
    depth: usize,
}

impl ReturnAddressStack {
    /// A stack with `capacity` entries (the paper uses 64).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ReturnAddressStack {
        assert!(capacity > 0);
        ReturnAddressStack { slots: vec![0u32; capacity], top: 0, depth: 0 }
    }

    /// Pushes a return address.
    pub fn push(&mut self, addr: u32) {
        let cap = self.slots.len();
        self.slots[self.top % cap] = addr;
        self.top += 1;
        self.depth = (self.depth + 1).min(cap);
    }

    /// Pops the most recent return address.
    pub fn pop(&mut self) -> Option<u32> {
        if self.depth == 0 {
            return None;
        }
        self.top -= 1;
        self.depth -= 1;
        Some(self.slots[self.top % self.slots.len()])
    }

    /// Snapshots the top pointer for later [`ReturnAddressStack::restore`].
    pub fn snapshot(&self) -> (usize, usize) {
        (self.top, self.depth)
    }

    /// Restores a snapshot taken earlier (squash repair).
    pub fn restore(&mut self, snap: (usize, usize)) {
        self.top = snap.0;
        self.depth = snap.1.min(self.slots.len());
    }
}

/// Timing model of the sequencer's direct-mapped task-descriptor cache.
///
/// Descriptor contents are always architecturally available (they live in
/// the program image); this tracks only whether fetching one costs a miss.
#[derive(Clone, Debug)]
pub struct DescriptorCache {
    tags: Vec<Option<u32>>,
    entries: usize,
    accesses: u64,
    misses: u64,
}

impl Default for DescriptorCache {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl DescriptorCache {
    /// A cache of `entries` descriptors (the paper uses 1024).
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> DescriptorCache {
        assert!(entries > 0);
        DescriptorCache { tags: vec![None; entries], entries, accesses: 0, misses: 0 }
    }

    /// Accesses the descriptor for the task at `entry`; returns whether it
    /// hit (a miss installs it).
    pub fn access(&mut self, entry: u32) -> bool {
        self.accesses += 1;
        let idx = ((entry >> 2) as usize) % self.entries;
        let hit = self.tags[idx] == Some(entry);
        if !hit {
            self.misses += 1;
            self.tags[idx] = Some(entry);
        }
        hit
    }

    /// `(accesses, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trains with the actual outcome at the current history, then
    /// shifts it in: the non-speculative sequence, as if every outcome
    /// were known at prediction time.
    fn update(p: &mut TaskPredictor, task: u32, actual: usize) {
        let h = p.history(task);
        p.train(task, h, actual);
        p.shift(task, actual);
    }

    #[test]
    fn learns_a_constant_target() {
        let mut p = TaskPredictor::new();
        let task = 0x1000;
        for _ in 0..8 {
            update(&mut p, task, 1);
        }
        assert_eq!(p.predict(task, 2), 1);
    }

    #[test]
    fn learns_loop_exit_pattern() {
        // A loop that runs 3 iterations then exits: target sequence
        // 0,0,1, 0,0,1, ... With 6 outcomes of history the pattern is
        // learnable exactly.
        let mut p = TaskPredictor::new();
        let task = 0x2000;
        for _ in 0..40 {
            update(&mut p, task, 0);
            update(&mut p, task, 0);
            update(&mut p, task, 1);
        }
        let mut correct = 0;
        for &actual in &[0usize, 0, 1, 0, 0, 1] {
            if p.predict(task, 2) == actual {
                correct += 1;
            }
            update(&mut p, task, actual);
        }
        assert_eq!(correct, 6, "pattern should be fully predictable");
    }

    #[test]
    fn prediction_clamps_to_target_count() {
        let mut p = TaskPredictor::new();
        let task = 0x3000;
        for _ in 0..8 {
            update(&mut p, task, 3);
        }
        assert_eq!(p.predict(task, 4), 3);
        // Same history but a descriptor with fewer targets: clamp to 0.
        assert_eq!(p.predict(task, 2), 0);
    }

    #[test]
    fn accuracy_accounting() {
        let mut p = TaskPredictor::new();
        p.note_outcome(true);
        p.note_outcome(false);
        p.note_outcome(true);
        assert_eq!(p.stats(), PredictorStats { predictions: 3, correct: 2 });
    }

    #[test]
    fn ras_lifo_and_underflow() {
        let mut ras = ReturnAddressStack::new(4);
        assert_eq!(ras.pop(), None);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_snapshot_restore() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(0xa);
        let snap = ras.snapshot();
        ras.push(0xb);
        ras.pop();
        ras.pop();
        ras.restore(snap);
        assert_eq!(ras.pop(), Some(0xa));
    }

    #[test]
    fn descriptor_cache_hits_after_install() {
        let mut dc = DescriptorCache::new(1024);
        assert!(!dc.access(0x1000));
        assert!(dc.access(0x1000));
        // Conflicting entry (same index, 1024 entries * 4 bytes apart).
        assert!(!dc.access(0x1000 + 1024 * 4));
        assert!(!dc.access(0x1000));
        assert_eq!(dc.stats(), (4, 3));
    }
}
