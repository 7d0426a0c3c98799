//! The unidirectional register-forwarding ring.
//!
//! "At the time a register value in the create mask is produced, it is
//! forwarded to later tasks … via a circular unidirectional ring" (paper
//! Section 2.1). Each hop costs `hop_latency` cycles (1 in the paper's
//! configuration) and the ring width matches the unit issue width
//! (Section 5.1): at most `width` messages advance per hop per cycle;
//! excess messages queue.

use ms_isa::Reg;
use std::collections::VecDeque;

/// One register value in flight on the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingMsg {
    /// The register being forwarded.
    pub reg: Reg,
    /// Its value.
    pub val: u64,
    /// Dispatch order of the sending task (for validity and direction
    /// checks).
    pub sender_order: u64,
    /// Hops traveled so far.
    pub hops: usize,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    msg: RingMsg,
    /// First cycle at which this message may complete its current hop.
    available_from: u64,
}

/// The ring interconnect.
#[derive(Clone, Debug)]
pub struct Ring {
    width: usize,
    hop_latency: u64,
    /// Temporary back-pressure cap on the effective width (chaos
    /// injection); `None` in normal operation.
    width_cap: Option<usize>,
    queues: Vec<VecDeque<InFlight>>,
}

impl Ring {
    /// A ring over `n` units moving up to `width` messages per hop per
    /// cycle, each hop taking `hop_latency` cycles.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(n: usize, width: usize, hop_latency: u64) -> Ring {
        assert!(n > 0 && width > 0 && hop_latency > 0);
        Ring { width, hop_latency, width_cap: None, queues: vec![VecDeque::new(); n] }
    }

    /// Enqueues a message at `unit`'s output port at cycle `now`; it can
    /// arrive at `unit + 1` once the hop latency elapses.
    pub fn send(&mut self, unit: usize, msg: RingMsg, now: u64) {
        self.queues[unit].push_back(InFlight { msg, available_from: now + self.hop_latency });
    }

    /// [`Ring::send`] with `extra` additional cycles of hop delay (chaos
    /// jitter injection).
    pub fn send_delayed(&mut self, unit: usize, msg: RingMsg, now: u64, extra: u64) {
        self.queues[unit]
            .push_back(InFlight { msg, available_from: now + self.hop_latency + extra });
    }

    /// Applies (or with `None` lifts) a back-pressure cap on messages
    /// advanced per hop per cycle. The effective width never drops below
    /// 1, so delivery always makes progress.
    pub fn set_width_cap(&mut self, cap: Option<usize>) {
        self.width_cap = cap;
    }

    fn effective_width(&self) -> usize {
        match self.width_cap {
            Some(cap) => self.width.min(cap).max(1),
            None => self.width,
        }
    }

    /// Advances to cycle `now`: up to `width` due messages leave each
    /// unit's output queue. Returns `(destination_unit, message)` pairs
    /// arriving this cycle.
    pub fn step(&mut self, now: u64) -> Vec<(usize, RingMsg)> {
        let mut arrivals = Vec::new();
        self.step_into(now, &mut arrivals, &mut ms_trace::NullSink);
        arrivals
    }

    /// [`Ring::step`] with trace instrumentation: emits a `RingHop` per
    /// arriving message.
    pub fn step_traced<S: ms_trace::TraceSink>(
        &mut self,
        now: u64,
        sink: &mut S,
    ) -> Vec<(usize, RingMsg)> {
        let mut arrivals = Vec::new();
        self.step_into(now, &mut arrivals, sink);
        arrivals
    }

    /// The allocation-free form of [`Ring::step_traced`]: appends this
    /// cycle's arrivals into a caller-owned buffer (the per-cycle
    /// processor step reuses one across cycles).
    pub fn step_into<S: ms_trace::TraceSink>(
        &mut self,
        now: u64,
        arrivals: &mut Vec<(usize, RingMsg)>,
        sink: &mut S,
    ) {
        let n = self.queues.len();
        let width = self.effective_width();
        for u in 0..n {
            for _ in 0..width {
                // Single panic-free pop: a not-yet-due message goes back
                // to the front (queues are ordered by availability).
                match self.queues[u].pop_front() {
                    Some(f) if f.available_from <= now => {
                        let mut msg = f.msg;
                        msg.hops += 1;
                        let dest = (u + 1) % n;
                        if S::ENABLED {
                            sink.event(&ms_trace::TraceEvent::RingHop {
                                cycle: now,
                                from: u,
                                to: dest,
                                reg: msg.reg.index() as u8,
                                hops: msg.hops as u32,
                            });
                        }
                        arrivals.push((dest, msg));
                    }
                    Some(f) => {
                        self.queues[u].push_front(f);
                        break;
                    }
                    None => break,
                }
            }
        }
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Per-unit output-queue depth (diagnostic snapshots).
    pub fn occupancies(&self) -> Vec<usize> {
        self.queues.iter().map(VecDeque::len).collect()
    }

    /// Number of units on the ring.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Whether the ring is empty of traffic.
    pub fn is_empty(&self) -> bool {
        self.in_flight() == 0
    }

    /// Discards every in-flight message for which `pred` returns true.
    pub fn discard_if(&mut self, mut pred: impl FnMut(&RingMsg) -> bool) {
        for q in &mut self.queues {
            q.retain(|m| !pred(&m.msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(order: u64) -> RingMsg {
        RingMsg { reg: Reg::int(4), val: 7, sender_order: order, hops: 0 }
    }

    #[test]
    fn one_hop_per_cycle() {
        let mut ring = Ring::new(4, 1, 1);
        ring.send(1, msg(0), 0);
        let arr = ring.step(1);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].0, 2);
        assert_eq!(arr[0].1.hops, 1);
        assert!(ring.is_empty());
    }

    #[test]
    fn hop_latency_delays_delivery() {
        let mut ring = Ring::new(4, 1, 3);
        ring.send(0, msg(0), 10);
        assert!(ring.step(11).is_empty());
        assert!(ring.step(12).is_empty());
        let arr = ring.step(13);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].0, 1);
    }

    #[test]
    fn width_limits_throughput() {
        let mut ring = Ring::new(2, 1, 1);
        ring.send(0, msg(0), 0);
        ring.send(0, msg(1), 0);
        let arr = ring.step(1);
        assert_eq!(arr.len(), 1, "width-1 ring moves one message per hop");
        let arr = ring.step(2);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].1.sender_order, 1);
    }

    #[test]
    fn wide_ring_moves_messages_together() {
        let mut ring = Ring::new(2, 2, 1);
        ring.send(0, msg(0), 0);
        ring.send(0, msg(1), 0);
        assert_eq!(ring.step(1).len(), 2);
    }

    #[test]
    fn wraps_around() {
        let mut ring = Ring::new(3, 2, 1);
        ring.send(2, msg(0), 0);
        let arr = ring.step(1);
        assert_eq!(arr[0].0, 0);
    }

    #[test]
    fn delayed_send_adds_jitter() {
        let mut ring = Ring::new(4, 1, 1);
        ring.send_delayed(0, msg(0), 0, 2);
        assert!(ring.step(1).is_empty());
        assert!(ring.step(2).is_empty());
        assert_eq!(ring.step(3).len(), 1);
    }

    #[test]
    fn width_cap_throttles_and_lifts() {
        let mut ring = Ring::new(2, 2, 1);
        ring.send(0, msg(0), 0);
        ring.send(0, msg(1), 0);
        ring.set_width_cap(Some(1));
        assert_eq!(ring.step(1).len(), 1, "capped to one message per hop");
        ring.set_width_cap(None);
        assert_eq!(ring.step(2).len(), 1);
        // A zero cap clamps to 1: progress is never starved.
        ring.send(0, msg(2), 2);
        ring.send(0, msg(3), 2);
        ring.set_width_cap(Some(0));
        assert_eq!(ring.step(3).len(), 1);
    }

    #[test]
    fn discard_drops_squashed_senders() {
        let mut ring = Ring::new(2, 2, 1);
        ring.send(0, msg(5), 0);
        ring.send(0, msg(6), 0);
        ring.discard_if(|m| m.sender_order >= 6);
        assert_eq!(ring.in_flight(), 1);
        let arr = ring.step(1);
        assert_eq!(arr[0].1.sender_order, 5);
    }
}
