//! Aggregating sink: folds the event stream into a [`MetricsReport`].

use crate::event::{SquashKind, StallReason, TraceEvent};
use crate::histogram::Histogram;
use crate::json;
use crate::sink::TraceSink;

/// Machine-readable aggregate of one run's event stream.
///
/// Counter fields mirror the paper's Section-5 evaluation axes; the
/// histograms capture the distributions behind them (task sizing,
/// squash spacing, ring latency, ARB pressure). See EXPERIMENTS.md for
/// the field-by-field mapping.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    // Sequencer / task lifecycle.
    /// Tasks assigned to units.
    pub tasks_assigned: u64,
    /// Tasks retired at the head.
    pub tasks_retired: u64,
    /// Tasks squashed (sum over all waves).
    pub tasks_squashed: u64,
    /// Squash waves caused by task-level control mispredictions.
    pub control_squash_waves: u64,
    /// Squash waves caused by memory-order violations.
    pub memory_squash_waves: u64,
    /// Squash waves caused by ARB overflow.
    pub arb_full_squash_waves: u64,
    /// Squash waves injected by a chaos fault plan (zero in normal runs).
    pub chaos_squash_waves: u64,
    /// Sequencer predictions observed.
    pub predictions: u64,
    /// Successor validations performed.
    pub validations: u64,
    /// Validations that confirmed the assigned successor.
    pub correct_validations: u64,
    /// Task-descriptor lookups.
    pub descriptor_fetches: u64,
    /// Descriptor lookups that hit the descriptor cache.
    pub descriptor_hits: u64,

    // Register forwarding ring.
    /// Values placed on the ring.
    pub ring_sends: u64,
    /// Unidirectional hops completed.
    pub ring_hops: u64,
    /// Values consumed by a later task.
    pub ring_delivers: u64,
    /// Messages that died undelivered at some unit.
    pub ring_dies: u64,

    // Processing units.
    /// Stalled unit-cycles by [`StallReason::index`], idle units
    /// included: equal, bucket for bucket, to the run's
    /// [`crate::CpiStack::stall_cycles`].
    pub stall_cycles: [u64; StallReason::COUNT],
    /// Intra-task fetch redirects.
    pub unit_redirects: u64,

    // Memory system.
    /// Speculative loads through the ARB.
    pub arb_loads: u64,
    /// ARB loads with at least one byte forwarded from an earlier store.
    pub arb_forwarded_loads: u64,
    /// Speculative stores allocated in the ARB.
    pub arb_stores: u64,
    /// Memory-order violations detected.
    pub arb_violations: u64,
    /// Failed ARB allocations (row capacity exhausted).
    pub arb_full_stalls: u64,
    /// Data-cache bank accesses.
    pub dcache_accesses: u64,
    /// Data-cache hits (including ARB-forwarded loads).
    pub dcache_hits: u64,
    /// Instruction-cache fetches.
    pub icache_fetches: u64,
    /// Instruction-cache hits.
    pub icache_hits: u64,
    /// Shared-bus transactions.
    pub bus_transactions: u64,
    /// Cycles bus requests spent queued behind earlier transactions.
    pub bus_wait_cycles: u64,

    // Distributions.
    /// Committed instructions per retired task (dynamic task size).
    pub task_len_instrs: Histogram,
    /// Tasks retired between consecutive squash waves.
    pub inter_squash_distance: Histogram,
    /// Ring hops from producer to consumer per delivered value.
    pub ring_latency_hops: Histogram,
    /// Live ARB entries at each occupancy sample.
    pub arb_occupancy: Histogram,
}

impl MetricsReport {
    /// Fraction of validations that were correct (`None` if none).
    pub fn validation_accuracy(&self) -> Option<f64> {
        (self.validations > 0).then(|| self.correct_validations as f64 / self.validations as f64)
    }

    /// Serializes the report as a JSON object (fixed field order).
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
        field(&mut out, "tasks_assigned", self.tasks_assigned.to_string());
        field(&mut out, "tasks_retired", self.tasks_retired.to_string());
        field(&mut out, "tasks_squashed", self.tasks_squashed.to_string());
        field(&mut out, "control_squash_waves", self.control_squash_waves.to_string());
        field(&mut out, "memory_squash_waves", self.memory_squash_waves.to_string());
        field(&mut out, "arb_full_squash_waves", self.arb_full_squash_waves.to_string());
        field(&mut out, "chaos_squash_waves", self.chaos_squash_waves.to_string());
        field(&mut out, "predictions", self.predictions.to_string());
        field(&mut out, "validations", self.validations.to_string());
        field(&mut out, "correct_validations", self.correct_validations.to_string());
        field(
            &mut out,
            "validation_accuracy",
            match self.validation_accuracy() {
                Some(a) => json::number(a),
                None => "null".into(),
            },
        );
        field(&mut out, "descriptor_fetches", self.descriptor_fetches.to_string());
        field(&mut out, "descriptor_hits", self.descriptor_hits.to_string());
        field(&mut out, "ring_sends", self.ring_sends.to_string());
        field(&mut out, "ring_hops", self.ring_hops.to_string());
        field(&mut out, "ring_delivers", self.ring_delivers.to_string());
        field(&mut out, "ring_dies", self.ring_dies.to_string());
        {
            let mut stalls = String::from("{");
            for (i, r) in StallReason::ALL.iter().enumerate() {
                if i > 0 {
                    stalls.push(',');
                }
                json::push_str(&mut stalls, r.as_str());
                stalls.push(':');
                stalls.push_str(&self.stall_cycles[i].to_string());
            }
            stalls.push('}');
            field(&mut out, "stall_cycles", stalls);
        }
        field(&mut out, "unit_redirects", self.unit_redirects.to_string());
        field(&mut out, "arb_loads", self.arb_loads.to_string());
        field(&mut out, "arb_forwarded_loads", self.arb_forwarded_loads.to_string());
        field(&mut out, "arb_stores", self.arb_stores.to_string());
        field(&mut out, "arb_violations", self.arb_violations.to_string());
        field(&mut out, "arb_full_stalls", self.arb_full_stalls.to_string());
        field(&mut out, "dcache_accesses", self.dcache_accesses.to_string());
        field(&mut out, "dcache_hits", self.dcache_hits.to_string());
        field(&mut out, "icache_fetches", self.icache_fetches.to_string());
        field(&mut out, "icache_hits", self.icache_hits.to_string());
        field(&mut out, "bus_transactions", self.bus_transactions.to_string());
        field(&mut out, "bus_wait_cycles", self.bus_wait_cycles.to_string());
        field(&mut out, "task_len_instrs", self.task_len_instrs.to_json());
        field(&mut out, "inter_squash_distance", self.inter_squash_distance.to_json());
        field(&mut out, "ring_latency_hops", self.ring_latency_hops.to_json());
        field(&mut out, "arb_occupancy", self.arb_occupancy.to_json());
        out.push('}');
        out
    }
}

/// A [`TraceSink`] that folds events into a [`MetricsReport`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSink {
    report: MetricsReport,
    retires_since_squash: u64,
}

impl MetricsSink {
    /// A fresh, empty metrics sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &MetricsReport {
        &self.report
    }

    /// Consumes the sink, yielding its report.
    pub fn into_report(self) -> MetricsReport {
        self.report
    }
}

impl TraceSink for MetricsSink {
    fn event(&mut self, ev: &TraceEvent) {
        let r = &mut self.report;
        match *ev {
            TraceEvent::TaskPredict { .. } => r.predictions += 1,
            TraceEvent::TaskAssign { .. } => r.tasks_assigned += 1,
            TraceEvent::TaskValidate { correct, .. } => {
                r.validations += 1;
                if correct {
                    r.correct_validations += 1;
                }
            }
            TraceEvent::TaskRetire { instructions, .. } => {
                r.tasks_retired += 1;
                r.task_len_instrs.record(instructions);
                self.retires_since_squash += 1;
            }
            TraceEvent::TaskSquash { .. } => r.tasks_squashed += 1,
            TraceEvent::SquashWave { cause, .. } => {
                match cause {
                    SquashKind::Control => r.control_squash_waves += 1,
                    SquashKind::Memory => r.memory_squash_waves += 1,
                    SquashKind::ArbFull => r.arb_full_squash_waves += 1,
                    SquashKind::Chaos => r.chaos_squash_waves += 1,
                }
                r.inter_squash_distance.record(self.retires_since_squash);
                self.retires_since_squash = 0;
            }
            TraceEvent::DescriptorFetch { hit, .. } => {
                r.descriptor_fetches += 1;
                if hit {
                    r.descriptor_hits += 1;
                }
            }
            TraceEvent::RingSend { .. } => r.ring_sends += 1,
            TraceEvent::RingHop { .. } => r.ring_hops += 1,
            TraceEvent::RingDeliver { hops, .. } => {
                r.ring_delivers += 1;
                r.ring_latency_hops.record(hops as u64);
            }
            TraceEvent::RingDie { .. } => r.ring_dies += 1,
            TraceEvent::UnitIssue { .. } => {}
            TraceEvent::UnitStall { reason, .. } => r.stall_cycles[reason.index()] += 1,
            TraceEvent::UnitRedirect { .. } => r.unit_redirects += 1,
            TraceEvent::ArbLoad { forwarded, .. } => {
                r.arb_loads += 1;
                if forwarded {
                    r.arb_forwarded_loads += 1;
                }
            }
            // A violating store is one violation no matter how many later
            // stages it invalidates (matching `ArbStats::violations`); the
            // per-stage `ArbViolation` events carry the detail.
            TraceEvent::ArbStore { violated, .. } => {
                r.arb_stores += 1;
                if violated {
                    r.arb_violations += 1;
                }
            }
            TraceEvent::ArbViolation { .. } => {}
            TraceEvent::ArbFullStall { .. } => r.arb_full_stalls += 1,
            TraceEvent::ArbOccupancy { entries, .. } => r.arb_occupancy.record(entries as u64),
            TraceEvent::DCacheAccess { hit, .. } => {
                r.dcache_accesses += 1;
                if hit {
                    r.dcache_hits += 1;
                }
            }
            TraceEvent::ICacheFetch { hit, .. } => {
                r.icache_fetches += 1;
                if hit {
                    r.icache_hits += 1;
                }
            }
            TraceEvent::BusRequest { waited, .. } => {
                r.bus_transactions += 1;
                r.bus_wait_cycles += waited;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_task_lifecycle() {
        let mut s = MetricsSink::new();
        for i in 0..3 {
            s.event(&TraceEvent::TaskAssign {
                cycle: i,
                order: i,
                unit: i as usize,
                entry: 0x100,
                by_prediction: true,
            });
        }
        s.event(&TraceEvent::TaskRetire {
            cycle: 9,
            order: 0,
            unit: 0,
            entry: 0x100,
            instructions: 12,
        });
        s.event(&TraceEvent::TaskSquash {
            cycle: 10,
            order: 2,
            unit: 2,
            entry: 0x100,
            cause: SquashKind::Control,
        });
        s.event(&TraceEvent::SquashWave {
            cycle: 10,
            cause: SquashKind::Control,
            depth: 1,
            redirect: Some(0x200),
        });
        let r = s.report();
        assert_eq!(r.tasks_assigned, 3);
        assert_eq!(r.tasks_retired, 1);
        assert_eq!(r.tasks_squashed, 1);
        assert_eq!(r.control_squash_waves, 1);
        assert_eq!(r.task_len_instrs.count(), 1);
        assert_eq!(r.task_len_instrs.sum(), 12);
        // One retire happened before the wave.
        assert_eq!(r.inter_squash_distance.count(), 1);
        assert_eq!(r.inter_squash_distance.sum(), 1);
    }

    #[test]
    fn json_is_an_object_with_fixed_first_field() {
        let r = MetricsReport::default();
        let j = r.to_json();
        assert!(j.starts_with("{\"tasks_assigned\":0,"));
        assert!(j.ends_with('}'));
        assert!(j.contains("\"stall_cycles\":{\"fetch_empty\":0,"));
    }
}
