//! Structured machine-state snapshots for failure diagnosis.
//!
//! When a run fails — cycle bound hit, forward-progress watchdog fired,
//! or an internal invariant broke — the error carries a
//! [`DiagnosticSnapshot`] of the microarchitectural state at the point of
//! failure: per-unit pipeline activity and stall reason, ring queue
//! occupancy, ARB bank fill/violation counters, and the head task's
//! identity and age. The snapshot [`Display`](std::fmt::Display)s as a
//! readable dump and serializes to JSON (fixed field order) for
//! `mstrace`-style tooling.
//!
//! Snapshots are the same whether units park or not: the processor
//! steps every cycle either way, and a parked unit derives its stall
//! reason through the same classifier as an unparked one (DESIGN.md
//! §13).

use ms_trace::{json, StallReason};
use std::fmt;

/// Per-unit state at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitDiag {
    /// Unit index.
    pub unit: usize,
    /// Whether a task is assigned.
    pub active: bool,
    /// Dispatch order of the assigned task, if any.
    pub order: Option<u64>,
    /// Entry address of the assigned task, if any.
    pub entry: Option<u32>,
    /// Whether the assigned task has fully completed.
    pub complete: bool,
    /// Registers still awaiting inter-task delivery.
    pub awaiting: u32,
    /// Why the unit issued nothing on its last stalled cycle (`None`
    /// while issuing, or before the first stall).
    pub stall: Option<StallReason>,
    /// Cumulative stalled cycles per reason over the unit's lifetime
    /// (across task assignments), indexed by [`StallReason::index`]. The
    /// last-stall field above is one frame; this is the whole film.
    pub stall_hist: [u64; StallReason::COUNT],
}

/// The head (oldest in-flight) task at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeadDiag {
    /// Dispatch order.
    pub order: u64,
    /// Processing unit.
    pub unit: usize,
    /// Task entry address.
    pub entry: u32,
    /// Cycles since assignment.
    pub age: u64,
    /// Whether the successor check already ran.
    pub validated: bool,
    /// Whether the task's stop has resolved.
    pub exit_resolved: bool,
}

/// A structured dump of simulator state at the moment of a failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagnosticSnapshot {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Cycle of the most recent task retirement (0 if none yet).
    pub last_retire_cycle: u64,
    /// Tasks retired so far.
    pub tasks_retired: u64,
    /// Whether the sequencer has halted.
    pub halted: bool,
    /// Sequencer pending-assignment state (debug rendering).
    pub pending: String,
    /// The head task, if any are in flight.
    pub head: Option<HeadDiag>,
    /// One entry per processing unit.
    pub units: Vec<UnitDiag>,
    /// Ring messages in flight, total.
    pub ring_in_flight: usize,
    /// Ring output-queue depth per unit.
    pub ring_queues: Vec<usize>,
    /// Live ARB entries per bank.
    pub arb_bank_occupancy: Vec<usize>,
    /// ARB allocation failures so far.
    pub arb_full_events: u64,
    /// ARB memory-order violations so far.
    pub arb_violations: u64,
}

impl DiagnosticSnapshot {
    /// One-line summary (head task + last-retire cycle) for error
    /// `Display` impls.
    pub fn summary(&self) -> String {
        match self.head {
            Some(h) => format!(
                "head #{} u{} @{:#x} age {} cycles, last retire at cycle {}",
                h.order, h.unit, h.entry, h.age, self.last_retire_cycle
            ),
            None => format!(
                "no task in flight (halted={}), last retire at cycle {}",
                self.halted, self.last_retire_cycle
            ),
        }
    }

    /// Serializes the snapshot as a JSON object with a fixed field order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let field = |out: &mut String, name: &str, val: String| {
            if out.len() > 1 {
                out.push(',');
            }
            json::push_str(out, name);
            out.push(':');
            out.push_str(&val);
        };
        field(&mut out, "cycle", self.cycle.to_string());
        field(&mut out, "last_retire_cycle", self.last_retire_cycle.to_string());
        field(&mut out, "tasks_retired", self.tasks_retired.to_string());
        field(&mut out, "halted", self.halted.to_string());
        field(&mut out, "pending", json::string(&self.pending));
        let head = match &self.head {
            Some(h) => format!(
                "{{\"order\":{},\"unit\":{},\"entry\":{},\"age\":{},\"validated\":{},\"exit_resolved\":{}}}",
                h.order, h.unit, h.entry, h.age, h.validated, h.exit_resolved
            ),
            None => "null".into(),
        };
        field(&mut out, "head", head);
        let mut units = String::from("[");
        for (i, u) in self.units.iter().enumerate() {
            if i > 0 {
                units.push(',');
            }
            let stall = match u.stall {
                Some(r) => json::string(r.as_str()),
                None => "null".into(),
            };
            let mut hist = String::from("{");
            for (ri, r) in StallReason::ALL.iter().enumerate() {
                if ri > 0 {
                    hist.push(',');
                }
                json::push_str(&mut hist, r.as_str());
                hist.push(':');
                hist.push_str(&u.stall_hist[ri].to_string());
            }
            hist.push('}');
            units.push_str(&format!(
                "{{\"unit\":{},\"active\":{},\"order\":{},\"entry\":{},\"complete\":{},\"awaiting\":{},\"stall\":{},\"stall_hist\":{}}}",
                u.unit,
                u.active,
                u.order.map_or("null".into(), |o| o.to_string()),
                u.entry.map_or("null".into(), |e| e.to_string()),
                u.complete,
                u.awaiting,
                stall,
                hist,
            ));
        }
        units.push(']');
        field(&mut out, "units", units);
        field(&mut out, "ring_in_flight", self.ring_in_flight.to_string());
        field(&mut out, "ring_queues", join_usize(&self.ring_queues));
        field(&mut out, "arb_bank_occupancy", join_usize(&self.arb_bank_occupancy));
        field(&mut out, "arb_full_events", self.arb_full_events.to_string());
        field(&mut out, "arb_violations", self.arb_violations.to_string());
        out.push('}');
        out
    }
}

fn join_usize(v: &[usize]) -> String {
    let mut s = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

impl fmt::Display for DiagnosticSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== diagnostic snapshot @ cycle {} (retired {}, last retire @ {}, halted {}) ===",
            self.cycle, self.tasks_retired, self.last_retire_cycle, self.halted
        )?;
        writeln!(f, "sequencer: pending={}", self.pending)?;
        match &self.head {
            Some(h) => writeln!(
                f,
                "head: task #{} on u{} @{:#x}, age {} cycles, validated={} exit_resolved={}",
                h.order, h.unit, h.entry, h.age, h.validated, h.exit_resolved
            )?,
            None => writeln!(f, "head: none")?,
        }
        for u in &self.units {
            if u.active {
                write!(
                    f,
                    "u{}: #{} @{:#x} complete={} awaiting={} stall={}",
                    u.unit,
                    u.order.unwrap_or(u64::MAX),
                    u.entry.unwrap_or(0),
                    u.complete,
                    u.awaiting,
                    u.stall.map_or("-", StallReason::as_str),
                )?;
            } else {
                write!(f, "u{}: idle", u.unit)?;
            }
            // Cumulative per-reason stall counts (nonzero entries only).
            if u.stall_hist.iter().any(|&c| c > 0) {
                write!(f, " stalls{{")?;
                let mut first = true;
                for r in StallReason::ALL {
                    let c = u.stall_hist[r.index()];
                    if c > 0 {
                        if !first {
                            write!(f, ",")?;
                        }
                        write!(f, "{}:{c}", r.as_str())?;
                        first = false;
                    }
                }
                write!(f, "}}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "ring: {} in flight, queues {:?}", self.ring_in_flight, self.ring_queues)?;
        write!(
            f,
            "arb: bank occupancy {:?}, {} full events, {} violations",
            self.arb_bank_occupancy, self.arb_full_events, self.arb_violations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DiagnosticSnapshot {
        DiagnosticSnapshot {
            cycle: 100,
            last_retire_cycle: 40,
            tasks_retired: 3,
            halted: false,
            pending: "Unknown".into(),
            head: Some(HeadDiag {
                order: 3,
                unit: 1,
                entry: 0x400,
                age: 60,
                validated: false,
                exit_resolved: false,
            }),
            units: vec![
                UnitDiag {
                    unit: 0,
                    active: false,
                    order: None,
                    entry: None,
                    complete: false,
                    awaiting: 0,
                    stall: None,
                    stall_hist: [0; StallReason::COUNT],
                },
                UnitDiag {
                    unit: 1,
                    active: true,
                    order: Some(3),
                    entry: Some(0x400),
                    complete: false,
                    awaiting: 2,
                    stall: Some(StallReason::RemoteDep),
                    stall_hist: {
                        let mut h = [0; StallReason::COUNT];
                        h[StallReason::RemoteDep.index()] = 12;
                        h[StallReason::FetchEmpty.index()] = 3;
                        h
                    },
                },
            ],
            ring_in_flight: 1,
            ring_queues: vec![0, 1],
            arb_bank_occupancy: vec![4, 0],
            arb_full_events: 0,
            arb_violations: 2,
        }
    }

    #[test]
    fn display_mentions_head_and_stalls() {
        let s = sample().to_string();
        assert!(s.contains("task #3 on u1 @0x400"), "{s}");
        assert!(s.contains("stall=remote_dep"), "{s}");
        assert!(s.contains("u0: idle"), "{s}");
        // Cumulative histogram: nonzero reasons only, in index order.
        assert!(s.contains("stalls{fetch_empty:3,remote_dep:12}"), "{s}");
    }

    #[test]
    fn json_has_fixed_shape() {
        let j = sample().to_json();
        assert!(j.starts_with("{\"cycle\":100,\"last_retire_cycle\":40,"), "{j}");
        assert!(j.contains("\"stall\":\"remote_dep\""), "{j}");
        assert!(j.contains("\"stall_hist\":{\"fetch_empty\":3,"), "{j}");
        assert!(j.contains("\"remote_dep\":12"), "{j}");
        assert!(j.contains("\"ring_queues\":[0,1]"), "{j}");
        assert!(j.ends_with('}'));
    }

    #[test]
    fn summary_is_one_line() {
        let s = sample().summary();
        assert!(!s.contains('\n'));
        assert!(s.contains("head #3"));
    }
}
