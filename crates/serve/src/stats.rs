//! Daemon counters: what was served, from which layer, at what cost.
//!
//! All counters are relaxed atomics — they are operational telemetry,
//! not part of any deterministic artifact: which layer answered a
//! request never shows in its bytes. A [`StatsSnapshot`] renders in a
//! fixed field order so CI can parse it with simple tooling.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Live counters, shared by every connection and worker thread.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Request lines parsed successfully (any op).
    pub requests: AtomicU64,
    /// Design points actually simulated by a worker.
    pub computed: AtomicU64,
    /// Design points answered from the disk cache.
    pub cache_hits: AtomicU64,
    /// Requests that coalesced onto another request's in-flight
    /// computation (single-flight joiners).
    pub dedup_joins: AtomicU64,
    /// Requests refused because the compute queue was full.
    pub overloaded: AtomicU64,
    /// Request lines rejected as malformed or invalid.
    pub bad_requests: AtomicU64,
    /// Design points waiting in the compute queue right now.
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub peak_queue_depth: AtomicU64,
    /// Whether the daemon is draining toward shutdown.
    pub draining: AtomicBool,
}

impl ServeStats {
    /// Fresh counters, all zero.
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// Records a queue push and maintains the high-water mark.
    pub fn queue_pushed(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a queue pop.
    pub fn queue_popped(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self, workers: usize) -> StatsSnapshot {
        StatsSnapshot {
            workers: workers as u64,
            requests: self.requests.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            dedup_joins: self.dedup_joins.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the daemon's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Worker-pool size (configuration, not a counter).
    pub workers: u64,
    /// See [`ServeStats::requests`].
    pub requests: u64,
    /// See [`ServeStats::computed`].
    pub computed: u64,
    /// See [`ServeStats::cache_hits`].
    pub cache_hits: u64,
    /// See [`ServeStats::dedup_joins`].
    pub dedup_joins: u64,
    /// See [`ServeStats::overloaded`].
    pub overloaded: u64,
    /// See [`ServeStats::bad_requests`].
    pub bad_requests: u64,
    /// See [`ServeStats::queue_depth`].
    pub queue_depth: u64,
    /// See [`ServeStats::peak_queue_depth`].
    pub peak_queue_depth: u64,
    /// See [`ServeStats::draining`].
    pub draining: bool,
}

impl StatsSnapshot {
    /// The snapshot as a JSON object with a fixed field order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workers\":{},\"requests\":{},\"computed\":{},\"cache_hits\":{},\
             \"dedup_joins\":{},\"overloaded\":{},\"bad_requests\":{},\"queue_depth\":{},\
             \"peak_queue_depth\":{},\"draining\":{}}}",
            self.workers,
            self.requests,
            self.computed,
            self.cache_hits,
            self.dedup_joins,
            self.overloaded,
            self.bad_requests,
            self.queue_depth,
            self.peak_queue_depth,
            self.draining,
        )
    }

    /// Parses a snapshot back out of its [`StatsSnapshot::to_json`]
    /// rendering (used by tests that read the `stats` op).
    ///
    /// # Errors
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<StatsSnapshot, String> {
        let doc = ms_trace::jsonv::parse(text)?;
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(ms_trace::jsonv::JsonValue::as_u64)
                .ok_or_else(|| format!("stats object lacks numeric `{key}`"))
        };
        Ok(StatsSnapshot {
            workers: num("workers")?,
            requests: num("requests")?,
            computed: num("computed")?,
            cache_hits: num("cache_hits")?,
            dedup_joins: num("dedup_joins")?,
            overloaded: num("overloaded")?,
            bad_requests: num("bad_requests")?,
            queue_depth: num("queue_depth")?,
            peak_queue_depth: num("peak_queue_depth")?,
            draining: doc
                .get("draining")
                .and_then(ms_trace::jsonv::JsonValue::as_bool)
                .ok_or("stats object lacks boolean `draining`")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let stats = ServeStats::new();
        stats.requests.store(10, Ordering::Relaxed);
        stats.computed.store(3, Ordering::Relaxed);
        stats.cache_hits.store(5, Ordering::Relaxed);
        stats.dedup_joins.store(2, Ordering::Relaxed);
        stats.draining.store(true, Ordering::Relaxed);
        let snap = stats.snapshot(4);
        let parsed = StatsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.workers, 4);
        assert!(parsed.draining);
    }

    #[test]
    fn queue_depth_tracks_a_high_water_mark() {
        let stats = ServeStats::new();
        stats.queue_pushed();
        stats.queue_pushed();
        stats.queue_popped();
        stats.queue_pushed();
        let snap = stats.snapshot(1);
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.peak_queue_depth, 2);
    }

    #[test]
    fn json_field_order_is_fixed() {
        let j = StatsSnapshot::default().to_json();
        assert!(j.starts_with("{\"workers\":0,\"requests\":0,\"computed\":0,"), "{j}");
        assert!(j.ends_with("\"draining\":false}"), "{j}");
    }
}
