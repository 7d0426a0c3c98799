//! Direct-mapped timing caches.
//!
//! Caches in this simulator are *timing-only*: data always lives in
//! [`crate::Memory`] (plus the speculative [`crate::Arb`]), and the cache
//! tracks tags to decide hit/miss latency. This is the standard structure
//! for an execution-driven timing simulator and matches the paper's use of
//! caches purely as latency/bandwidth models.

use std::fmt;

/// Hit/miss counters for a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]` (0 when there were no accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses,
            100.0 * self.miss_rate()
        )
    }
}

/// A direct-mapped cache tag array.
#[derive(Clone, Debug)]
pub struct DirectMappedCache {
    block_bits: u32,
    set_bits: u32,
    tags: Vec<Option<u32>>,
    stats: CacheStats,
}

impl DirectMappedCache {
    /// Builds a cache of `size_bytes` with `block_bytes` blocks.
    ///
    /// # Panics
    /// Panics unless both sizes are powers of two and
    /// `size_bytes >= block_bytes`.
    pub fn new(size_bytes: u32, block_bytes: u32) -> DirectMappedCache {
        assert!(size_bytes.is_power_of_two(), "cache size must be a power of two");
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        assert!(size_bytes >= block_bytes, "cache smaller than one block");
        let sets = size_bytes / block_bytes;
        DirectMappedCache {
            block_bits: block_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            tags: vec![None; sets as usize],
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, addr: u32) -> usize {
        ((addr >> self.block_bits) & ((1 << self.set_bits) - 1)) as usize
    }

    fn tag_of(&self, addr: u32) -> u32 {
        addr >> (self.block_bits + self.set_bits)
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u32 {
        1 << self.block_bits
    }

    /// Accesses `addr`, filling the block on a miss. Returns whether it hit.
    pub fn access(&mut self, addr: u32) -> bool {
        self.stats.accesses += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        if self.tags[set] == Some(tag) {
            true
        } else {
            self.stats.misses += 1;
            self.tags[set] = Some(tag);
            false
        }
    }

    /// Whether `addr` is resident, without updating state or stats.
    pub fn probe(&self, addr: u32) -> bool {
        self.tags[self.set_of(addr)] == Some(self.tag_of(addr))
    }

    /// Installs the block containing `addr` without counting an access.
    pub fn fill(&mut self, addr: u32) {
        let set = self.set_of(addr);
        self.tags[set] = Some(self.tag_of(addr));
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = DirectMappedCache::new(1024, 64);
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f)); // same 64-byte block
        assert!(!c.access(0x140)); // next block
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn conflicting_tags_evict() {
        let mut c = DirectMappedCache::new(1024, 64); // 16 sets
        assert!(!c.access(0x0));
        assert!(!c.access(1024)); // same set, different tag
        assert!(!c.access(0x0)); // evicted
    }

    #[test]
    fn probe_and_fill_do_not_count() {
        let mut c = DirectMappedCache::new(256, 64);
        assert!(!c.probe(0x80));
        c.fill(0x80);
        assert!(c.probe(0x80));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn paper_configs_construct() {
        // 32 KB I-cache, 8 KB D-cache banks, 64-byte blocks.
        let i = DirectMappedCache::new(32 * 1024, 64);
        let d = DirectMappedCache::new(8 * 1024, 64);
        assert_eq!(i.block_bytes(), 64);
        assert_eq!(d.block_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        DirectMappedCache::new(1000, 64);
    }
}
