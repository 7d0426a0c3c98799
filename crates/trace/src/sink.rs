//! Event sinks: where [`TraceEvent`]s go.
//!
//! The simulator is generic over a [`TraceSink`]. The default
//! [`NullSink`] advertises `ENABLED = false`, so every instrumentation
//! site compiles to nothing — the event struct is never even built
//! (call-sites guard construction on `S::ENABLED`, a monomorphization-
//! time constant).

use crate::cpi::CpiStack;
use crate::event::TraceEvent;

/// Receives simulator events.
///
/// Implementors get every event in simulation order with monotone
/// non-decreasing cycles within a run.
pub trait TraceSink {
    /// Whether instrumentation call-sites should construct and emit
    /// events at all. `false` (as on [`NullSink`]) lets the compiler
    /// delete the instrumentation entirely.
    const ENABLED: bool = true;

    /// Consume one event.
    fn event(&mut self, ev: &TraceEvent);

    /// Signal end-of-run; flush any buffered output. Idempotent.
    fn finish(&mut self) {}

    /// The CPI stack this sink built from the stream, if it builds one
    /// ([`crate::CpiAccountant`] does). The processor calls it once at
    /// the end of a successful run with the run's cycle and committed
    /// instruction totals.
    fn cpi_stack(&mut self, _cycles: u64, _instructions: u64) -> Option<CpiStack> {
        None
    }
}

/// The zero-cost "not tracing" sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: &TraceEvent) {}
}

/// Duplicates every event into two sinks (e.g. metrics + Chrome trace).
#[derive(Debug, Default)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    // Always inlined, so that an always-inlined sink behind it (such as
    // `CpiAccountant`) still folds at each emitting site.
    #[inline(always)]
    fn event(&mut self, ev: &TraceEvent) {
        if A::ENABLED {
            self.0.event(ev);
        }
        if B::ENABLED {
            self.1.event(ev);
        }
    }

    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }

    fn cpi_stack(&mut self, cycles: u64, instructions: u64) -> Option<CpiStack> {
        self.0.cpi_stack(cycles, instructions).or_else(|| self.1.cpi_stack(cycles, instructions))
    }
}

/// Buffers every event in memory (tests and small programs only).
#[derive(Debug, Default)]
pub struct VecSink {
    /// Events in arrival order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants are the point
    fn null_sink_is_disabled() {
        assert!(!NullSink::ENABLED);
        assert!(VecSink::ENABLED);
        // A tee of two disabled sinks is disabled; mixed is enabled.
        assert!(!<TeeSink<NullSink, NullSink> as TraceSink>::ENABLED);
        assert!(<TeeSink<NullSink, VecSink> as TraceSink>::ENABLED);
    }

    #[test]
    fn tee_duplicates_events() {
        let mut tee = TeeSink(VecSink::default(), VecSink::default());
        let ev = TraceEvent::ArbOccupancy { cycle: 3, entries: 5 };
        tee.event(&ev);
        tee.finish();
        assert_eq!(tee.0.events, vec![ev.clone()]);
        assert_eq!(tee.1.events, vec![ev]);
    }
}
