//! Per-unit instruction cache.
//!
//! Paper Section 5.1: "each processing unit is configured with 32 kbytes
//! of direct mapped instruction cache in 64 byte blocks. (An instruction
//! cache access returns 4 words in a hit time of 1 cycle with an
//! additional penalty of 10+3 cycles, plus any bus contention, on a
//! miss.)"

use crate::bus::MemBus;
use crate::cache::{CacheStats, DirectMappedCache};

/// Configuration of one instruction cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ICacheConfig {
    /// Total bytes (paper: 32 KB).
    pub size_bytes: u32,
    /// Block size (paper: 64 B).
    pub block_bytes: u32,
    /// Hit time in cycles (paper: 1).
    pub hit_time: u64,
    /// Extra cycles beyond the bus transfer on a miss (paper: the "+3").
    pub miss_extra: u64,
}

impl Default for ICacheConfig {
    fn default() -> Self {
        ICacheConfig { size_bytes: 32 * 1024, block_bytes: 64, hit_time: 1, miss_extra: 3 }
    }
}

/// One processing unit's instruction cache.
pub struct ICache {
    cache: DirectMappedCache,
    cfg: ICacheConfig,
    /// Whether the most recent fetch missed (the fill is in flight until
    /// the cycle [`ICache::fetch`] returned). Lets the owning unit
    /// attribute the resulting fetch bubble to the memory system
    /// (`cache_miss`) instead of a generic `fetch_empty` stall.
    last_fetch_missed: bool,
}

impl ICache {
    /// Builds an instruction cache.
    pub fn new(cfg: ICacheConfig) -> ICache {
        ICache {
            cache: DirectMappedCache::new(cfg.size_bytes, cfg.block_bytes),
            cfg,
            last_fetch_missed: false,
        }
    }

    /// Fetches the block containing `pc` at cycle `now`; returns the cycle
    /// the instructions are available.
    pub fn fetch(&mut self, now: u64, pc: u32, bus: &mut MemBus) -> u64 {
        self.fetch_traced(now, pc, bus, usize::MAX, &mut ms_trace::NullSink)
    }

    /// [`ICache::fetch`] with trace instrumentation: emits an
    /// `ICacheFetch` tagged with the owning `unit` and routes miss fills
    /// through the traced bus path.
    pub fn fetch_traced<S: ms_trace::TraceSink>(
        &mut self,
        now: u64,
        pc: u32,
        bus: &mut MemBus,
        unit: usize,
        sink: &mut S,
    ) -> u64 {
        let hit = self.cache.access(pc);
        self.last_fetch_missed = !hit;
        if S::ENABLED {
            sink.event(&ms_trace::TraceEvent::ICacheFetch { cycle: now, unit, pc, hit });
        }
        if hit {
            now + self.cfg.hit_time
        } else {
            let done = bus.request_traced(now + self.cfg.hit_time, self.cfg.block_bytes / 4, sink);
            done + self.cfg.miss_extra
        }
    }

    /// Whether the most recent fetch was a miss (its fill occupies the
    /// bus until the cycle the fetch call returned).
    ///
    /// The unit's stall classifier uses this to decide whether a
    /// pre-`fetch_ready_at` cycle classifies as `CacheMiss` (a fill in
    /// flight) or `FetchEmpty`; hot path, keep it a trivial accessor.
    #[inline]
    pub fn last_fetch_missed(&self) -> bool {
        self.last_fetch_missed
    }

    /// Whether a fetch group starting at `pc` of `words` instructions can
    /// be delivered in one access (it must not cross a block boundary —
    /// the cache returns 4 words per access within a block).
    pub fn same_fetch_group(&self, pc: u32, words: u32) -> bool {
        let group = 16; // 4 words * 4 bytes
        let start = pc / group;
        let end = (pc + words * 4 - 1) / group;
        start == end
    }

    /// Statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusConfig;

    #[test]
    fn miss_then_hit_timing() {
        let mut ic = ICache::new(ICacheConfig::default());
        let mut bus = MemBus::new(BusConfig::default());
        // Cold miss: 1 (hit time) + 13 (bus, 16 words) + 3.
        assert_eq!(ic.fetch(0, 0x1000, &mut bus), 17);
        // Hit within the same 64-byte block.
        assert_eq!(ic.fetch(20, 0x1004, &mut bus), 21);
        assert_eq!(ic.stats().misses, 1);
    }

    #[test]
    fn fetch_groups_are_16_bytes() {
        let ic = ICache::new(ICacheConfig::default());
        assert!(ic.same_fetch_group(0x1000, 2));
        assert!(ic.same_fetch_group(0x1008, 2));
        assert!(!ic.same_fetch_group(0x100c, 2));
        assert!(ic.same_fetch_group(0x100c, 1));
    }

    #[test]
    fn bus_contention_delays_fill() {
        let mut ic = ICache::new(ICacheConfig::default());
        let mut bus = MemBus::new(BusConfig::default());
        bus.request(0, 16); // someone else owns the bus until 13
                            // Fill issues at cycle 1, waits until 13, transfers 13, +3 extra.
        assert_eq!(ic.fetch(0, 0x1000, &mut bus), 13 + 13 + 3);
    }
}
