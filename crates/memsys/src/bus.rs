//! The split-transaction memory bus.
//!
//! Paper Section 5.1: "All memory requests are handled by a single 4-word
//! split transaction memory bus. Each memory access requires a 10 cycle
//! access latency for the first 4 words and 1 cycle for each additional 4
//! words."
//!
//! The bus is modelled analytically: a request made at cycle `now` for `n`
//! words is serialized behind earlier transactions and returns its absolute
//! completion cycle. This captures contention exactly for a single
//! in-order bus without per-cycle simulation.

/// Configuration of the memory bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BusConfig {
    /// Cycles for the first 4-word beat.
    pub first_beat: u64,
    /// Cycles for each additional 4-word beat.
    pub extra_beat: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig { first_beat: 10, extra_beat: 1 }
    }
}

/// Statistics for the bus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Transactions issued.
    pub transactions: u64,
    /// Cycles the bus was occupied.
    pub busy_cycles: u64,
    /// Total cycles transactions waited behind earlier ones.
    pub contention_cycles: u64,
}

/// The single shared memory bus.
#[derive(Clone, Debug, Default)]
pub struct MemBus {
    cfg: BusConfig,
    free_at: u64,
    stats: BusStats,
}

impl MemBus {
    /// A bus with the paper's timing.
    pub fn new(cfg: BusConfig) -> MemBus {
        MemBus { cfg, free_at: 0, stats: BusStats::default() }
    }

    /// Issues a transfer of `words` 32-bit words at cycle `now`; returns
    /// the absolute cycle at which the transfer completes.
    pub fn request(&mut self, now: u64, words: u32) -> u64 {
        let beats = (words.max(1)).div_ceil(4) as u64;
        let duration = self.cfg.first_beat + (beats - 1) * self.cfg.extra_beat;
        let start = self.free_at.max(now);
        self.stats.transactions += 1;
        self.stats.contention_cycles += start - now;
        self.stats.busy_cycles += duration;
        self.free_at = start + duration;
        self.free_at
    }

    /// [`MemBus::request`] with trace instrumentation: emits a
    /// [`TraceEvent::BusRequest`](ms_trace::TraceEvent::BusRequest) recording queueing delay and completion.
    pub fn request_traced<S: ms_trace::TraceSink>(
        &mut self,
        now: u64,
        words: u32,
        sink: &mut S,
    ) -> u64 {
        let waited = self.free_at.saturating_sub(now);
        let done = self.request(now, words);
        if S::ENABLED {
            sink.event(&ms_trace::TraceEvent::BusRequest { cycle: now, words, waited, done });
        }
        done
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_timing_matches_paper() {
        let mut bus = MemBus::new(BusConfig::default());
        // 4 words: 10 cycles.
        assert_eq!(bus.request(0, 4), 10);
        // 16 words (a 64-byte block): 10 + 3.
        assert_eq!(bus.request(100, 16), 113);
    }

    #[test]
    fn back_to_back_requests_serialize() {
        let mut bus = MemBus::new(BusConfig::default());
        assert_eq!(bus.request(0, 16), 13);
        // Issued while the first is in flight: waits.
        assert_eq!(bus.request(1, 16), 26);
        assert_eq!(bus.stats().contention_cycles, 12);
        assert_eq!(bus.stats().transactions, 2);
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut bus = MemBus::new(BusConfig::default());
        bus.request(0, 4);
        assert_eq!(bus.request(50, 4), 60);
        assert_eq!(bus.stats().contention_cycles, 0);
    }

    #[test]
    fn zero_word_request_counts_one_beat() {
        let mut bus = MemBus::new(BusConfig::default());
        assert_eq!(bus.request(0, 0), 10);
    }
}
