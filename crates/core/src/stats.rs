//! Run statistics and the Section-3 cycle-distribution taxonomy.

use ms_memsys::{ArbStats, BusStats, CacheStats};
use ms_pipeline::TaskCounters;
use ms_trace::{CpiStack, StallBuckets, StallReason};
use std::fmt;

/// Distribution of processing-unit cycles, following the paper's
/// Section 3: useful computation, non-useful computation (work ultimately
/// squashed), no-computation (stalled with an assigned task), and idle (no
/// assigned task).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles issuing instructions in tasks that retired.
    pub useful: u64,
    /// All cycles spent in tasks that were squashed.
    pub non_useful: u64,
    /// Stalled waiting for a value from a predecessor task (retired tasks).
    pub no_comp_inter_task: u64,
    /// Stalled on intra-task dependences, caches, FUs (retired tasks).
    pub no_comp_intra_task: u64,
    /// Task complete, waiting to be retired at the head (load balancing).
    pub no_comp_wait_retire: u64,
    /// Stalled on ARB capacity.
    pub no_comp_arb: u64,
    /// No assigned task.
    pub idle: u64,
}

impl CycleBreakdown {
    /// Charges `issued` busy cycles as useful and each zero-issue cycle in
    /// `stalls` to its Section 3 class: the one mapping from a
    /// [`StallReason`] to a class. A remote operand is an inter-task
    /// wait, a unit holding no task is idle, and the rest of a task's
    /// stalls (local dependences, hazards, FUs, fetch, caches, drain)
    /// are intra-task.
    pub fn charge(&mut self, issued: u64, stalls: &StallBuckets) {
        self.useful += issued;
        for r in StallReason::ALL {
            *match r {
                StallReason::RemoteDep => &mut self.no_comp_inter_task,
                StallReason::WaitRetire => &mut self.no_comp_wait_retire,
                StallReason::ArbFull => &mut self.no_comp_arb,
                StallReason::NoTask | StallReason::SquashRecovery => &mut self.idle,
                _ => &mut self.no_comp_intra_task,
            } += stalls[r.index()];
        }
    }

    /// The breakdown a CPI stack implies: its retired-task rows by class,
    /// its idle buckets as idle, and every other unit-cycle as squashed
    /// work. A run's [`RunStats::breakdown`] equals this for its own
    /// [`RunStats::cpi`].
    pub fn from_cpi(cpi: &CpiStack) -> CycleBreakdown {
        let mut b = CycleBreakdown::default();
        for t in &cpi.per_task {
            b.charge(t.issued_cycles, &t.stall_cycles);
        }
        // A unit holding a task is never charged idle, so the whole
        // run's idle class is the stack's.
        let mut run = CycleBreakdown::default();
        run.charge(cpi.issued_cycles, &cpi.stall_cycles);
        b.idle = run.idle;
        b.non_useful = cpi.accounted_unit_cycles().saturating_sub(b.total());
        b
    }

    /// Total unit-cycles accounted.
    pub fn total(&self) -> u64 {
        self.useful
            + self.non_useful
            + self.no_comp_inter_task
            + self.no_comp_intra_task
            + self.no_comp_wait_retire
            + self.no_comp_arb
            + self.idle
    }

    /// Percentage helper.
    fn pct(part: u64, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            100.0 * part as f64 / total as f64
        }
    }
}

impl fmt::Display for CycleBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total();
        writeln!(f, "unit-cycle distribution ({t} unit-cycles):")?;
        writeln!(f, "  useful computation   {:6.2}%", Self::pct(self.useful, t))?;
        writeln!(f, "  non-useful (squashed){:6.2}%", Self::pct(self.non_useful, t))?;
        writeln!(f, "  no comp: inter-task  {:6.2}%", Self::pct(self.no_comp_inter_task, t))?;
        writeln!(f, "  no comp: intra-task  {:6.2}%", Self::pct(self.no_comp_intra_task, t))?;
        writeln!(f, "  no comp: wait-retire {:6.2}%", Self::pct(self.no_comp_wait_retire, t))?;
        writeln!(f, "  no comp: ARB full    {:6.2}%", Self::pct(self.no_comp_arb, t))?;
        write!(f, "  idle                 {:6.2}%", Self::pct(self.idle, t))
    }
}

/// Statistics from a complete simulation run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Committed (retired-task) instructions — the paper's dynamic
    /// instruction count.
    pub instructions: u64,
    /// Instructions issued in tasks that were later squashed.
    pub squashed_instructions: u64,
    /// Tasks retired.
    pub tasks_retired: u64,
    /// Task dispatches squashed.
    pub tasks_squashed: u64,
    /// Squashes caused by control (task) misprediction.
    pub control_squashes: u64,
    /// Squashes caused by memory-order violations.
    pub memory_squashes: u64,
    /// Squashes caused by the ARB-overflow squash policy (zero under the
    /// default stall policy).
    pub arb_squashes: u64,
    /// Task predictions made.
    pub predictions: u64,
    /// Task predictions that were correct.
    pub correct_predictions: u64,
    /// Cycle distribution.
    pub breakdown: CycleBreakdown,
    /// ARB statistics.
    pub arb: ArbStats,
    /// Data-cache statistics (all banks).
    pub dcache: CacheStats,
    /// Instruction-cache statistics (all units).
    pub icache: CacheStats,
    /// Memory-bus statistics.
    pub bus: BusStats,
    /// Task-descriptor cache `(accesses, misses)`.
    pub descriptor_cache: (u64, u64),
    /// The conservation-checked CPI stack, present only when the run was
    /// observed by a [`crate::CpiAccountant`] (e.g. via `msprof` or a
    /// `--cpi` sweep). `None` on ordinary runs — deliberately excluded
    /// from the golden stats serialization and the sweep cache format.
    pub cpi: Option<CpiStack>,
}

impl RunStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Task-prediction accuracy in `[0, 1]` (1.0 when no predictions).
    pub fn prediction_accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            self.correct_predictions as f64 / self.predictions as f64
        }
    }

    /// Charges a retired task: its instructions, and its unit's cycles as
    /// Section 3 splits them. The scalar baseline's whole run is one task.
    pub(crate) fn charge_retired(&mut self, c: &TaskCounters) {
        self.instructions += c.instructions;
        self.tasks_retired += 1;
        self.breakdown.charge(c.issued_cycles, &c.stall_cycles);
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} instructions in {} cycles (IPC {:.3})",
            self.instructions,
            self.cycles,
            self.ipc()
        )?;
        writeln!(
            f,
            "tasks: {} retired, {} squashed ({} control, {} memory); prediction {:.1}%",
            self.tasks_retired,
            self.tasks_squashed,
            self.control_squashes,
            self.memory_squashes,
            100.0 * self.prediction_accuracy()
        )?;
        write!(f, "{}", self.breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_accuracy() {
        let s = RunStats {
            cycles: 100,
            instructions: 250,
            predictions: 10,
            correct_predictions: 9,
            ..RunStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.prediction_accuracy() - 0.9).abs() < 1e-12);
        let empty = RunStats::default();
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.prediction_accuracy(), 1.0);
    }

    #[test]
    fn breakdown_display_sums() {
        let b = CycleBreakdown {
            useful: 50,
            non_useful: 10,
            no_comp_inter_task: 15,
            no_comp_intra_task: 10,
            no_comp_wait_retire: 5,
            no_comp_arb: 0,
            idle: 10,
        };
        assert_eq!(b.total(), 100);
        let s = b.to_string();
        assert!(s.contains("useful computation"), "{s}");
        assert!(s.contains("50.00%"), "{s}");
    }

    #[test]
    fn charge_maps_each_reason_to_one_class() {
        let bit = |r: StallReason| 1u64 << r.index();
        let mut stalls = StallBuckets::default();
        for r in StallReason::ALL {
            stalls[r.index()] = bit(r);
        }
        let mut b = CycleBreakdown::default();
        b.charge(5, &stalls);
        use StallReason::*;
        let want = CycleBreakdown {
            useful: 5,
            non_useful: 0,
            no_comp_inter_task: bit(RemoteDep),
            no_comp_intra_task: [FetchEmpty, LocalDep, FuBusy, Hazard, Drain, CacheMiss]
                .into_iter()
                .map(bit)
                .sum(),
            no_comp_wait_retire: bit(WaitRetire),
            no_comp_arb: bit(ArbFull),
            idle: bit(NoTask) + bit(SquashRecovery),
        };
        assert_eq!(b, want);
        assert_eq!(b.total(), 5 + stalls.iter().sum::<u64>(), "every reason has a class");
    }

    #[test]
    fn from_cpi_splits_retired_rows_idle_and_squashed_work() {
        use ms_trace::{TaskCpi, UnitCpi};
        let buckets = |charges: &[(StallReason, u64)]| {
            let mut b = StallBuckets::default();
            for &(r, n) in charges {
                b[r.index()] = n;
            }
            b
        };
        // 2 units x 10 cycles. Unit 0 ran a task that retired (4 issued,
        // 2 local-dependence stalls), then a squashed one (2 issued), and
        // idled 2 cycles; unit 1 ran squashed work only (3 issued, 4
        // remote stalls) and spent 3 cycles in squash recovery.
        let per_unit = vec![
            UnitCpi {
                issued_cycles: 6,
                stall_cycles: buckets(&[(StallReason::LocalDep, 2), (StallReason::NoTask, 2)]),
            },
            UnitCpi {
                issued_cycles: 3,
                stall_cycles: buckets(&[
                    (StallReason::RemoteDep, 4),
                    (StallReason::SquashRecovery, 3),
                ]),
            },
        ];
        let cpi = CpiStack {
            units: 2,
            cycles: 10,
            instructions: 4,
            issued_cycles: 9,
            stall_cycles: buckets(&[
                (StallReason::LocalDep, 2),
                (StallReason::RemoteDep, 4),
                (StallReason::NoTask, 2),
                (StallReason::SquashRecovery, 3),
            ]),
            per_unit,
            per_task: vec![TaskCpi {
                order: 0,
                unit: 0,
                entry: 0x1000,
                instructions: 4,
                issued_cycles: 4,
                stall_cycles: buckets(&[(StallReason::LocalDep, 2)]),
            }],
        };
        assert!(cpi.conservation_holds());
        let b = CycleBreakdown::from_cpi(&cpi);
        let want = CycleBreakdown {
            useful: 4,
            no_comp_intra_task: 2,
            idle: 5,
            non_useful: 9,
            ..CycleBreakdown::default()
        };
        assert_eq!(b, want);
        assert_eq!(b.total(), cpi.total_unit_cycles());
    }
}
