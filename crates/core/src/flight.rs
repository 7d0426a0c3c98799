//! The always-on flight recorder: a bounded ring of periodic
//! [`DiagnosticSnapshot`] samples.
//!
//! A failure snapshot shows the *final* frame of a stuck machine; by the
//! time a watchdog or cycle bound fires, the interesting part — how the
//! machine got there — is gone. The flight recorder samples the full
//! diagnostic state every [`FlightRecorder::PERIOD`] cycles into a ring
//! of at most [`FlightRecorder::CAP`] frames, and the processor attaches
//! the ring's contents to [`crate::SimError::Timeout`] and
//! [`crate::SimError::NoProgress`] so failures carry history.
//!
//! Cost: one snapshot (a few hundred bytes, one allocation burst) every
//! 4096 cycles — amortized noise, which is why it is on unconditionally
//! rather than gated like tracing or cycle accounting. It is purely
//! observational and is never consulted by the machine, so simulated
//! behaviour (and the golden stats) cannot depend on it.

use crate::diag::DiagnosticSnapshot;
use std::collections::VecDeque;

/// Bounded ring buffer of periodic diagnostic samples.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    samples: VecDeque<DiagnosticSnapshot>,
    next_due: u64,
}

impl FlightRecorder {
    /// Cycles between samples.
    pub const PERIOD: u64 = 4096;
    /// Maximum retained samples (oldest evicted first).
    pub const CAP: usize = 32;

    /// A fresh recorder; the first sample is due at cycle 0.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Whether a sample is due at `now`.
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_due
    }

    /// Records `snap` (taken at `now`), evicting the oldest frame at
    /// capacity, and schedules the next sample.
    pub fn record(&mut self, now: u64, snap: DiagnosticSnapshot) {
        if self.samples.len() == Self::CAP {
            self.samples.pop_front();
        }
        self.samples.push_back(snap);
        self.next_due = now + Self::PERIOD;
    }

    /// The retained history, oldest first.
    pub fn history(&self) -> Vec<DiagnosticSnapshot> {
        self.samples.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(cycle: u64) -> DiagnosticSnapshot {
        DiagnosticSnapshot {
            cycle,
            last_retire_cycle: 0,
            tasks_retired: 0,
            halted: false,
            pending: String::new(),
            head: None,
            units: Vec::new(),
            ring_in_flight: 0,
            ring_queues: Vec::new(),
            arb_bank_occupancy: Vec::new(),
            arb_full_events: 0,
            arb_violations: 0,
        }
    }

    #[test]
    fn samples_on_period_and_bounds_memory() {
        let mut fr = FlightRecorder::new();
        assert!(fr.due(0));
        let mut recorded = 0u64;
        for now in 0..(FlightRecorder::PERIOD * (FlightRecorder::CAP as u64 + 8)) {
            if fr.due(now) {
                fr.record(now, frame(now));
                recorded += 1;
            }
        }
        assert_eq!(recorded, FlightRecorder::CAP as u64 + 8);
        let hist = fr.history();
        assert_eq!(hist.len(), FlightRecorder::CAP);
        // Oldest first, newest retained.
        assert!(hist.windows(2).all(|w| w[0].cycle < w[1].cycle));
        assert_eq!(
            hist.last().unwrap().cycle,
            FlightRecorder::PERIOD * (FlightRecorder::CAP as u64 + 7)
        );
    }
}
