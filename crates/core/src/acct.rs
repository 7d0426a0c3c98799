//! Cycle-accounting hooks (CPI stacks).
//!
//! The processor charges every (unit, cycle) to exactly one bucket —
//! issued, or one [`StallReason`] — through a [`CycleAccountant`]. The
//! hook surface follows the [`ms_trace::TraceSink`] /
//! [`crate::FaultInjector`] pattern: the processor is generic over the
//! accountant, every call site is guarded by `if A::ENABLED`, and the
//! default [`NoAccounting`] has `ENABLED = false`, so ordinary runs
//! compile the bookkeeping away entirely and `RunStats` stays
//! bit-identical (the golden-stats suite pins this).
//!
//! [`CpiAccountant`] is the concrete collector: it accumulates the
//! conservation-checked [`CpiStack`] (global, per-unit and per-retired-
//! task) that `msprof` and the `--cpi` sweep artifacts report.

use ms_trace::{CpiStack, StallBuckets, StallReason, TaskCpi, UnitCpi};

/// A sink for per-cycle bucket charges and task-boundary events.
///
/// All hooks default to no-ops, so an accountant only overrides what it
/// uses. The processor guarantees that, per simulated cycle, exactly one
/// of [`CycleAccountant::charge_issued`] / [`CycleAccountant::charge_stall`]
/// is called for each of its units — the conservation invariant
/// `issued + Σ stalls == cycles × units` is a property of the call
/// sites, which [`CpiStack::conservation_holds`] then verifies.
pub trait CycleAccountant {
    /// Whether the processor's charging sites are live. [`NoAccounting`]
    /// sets this to `false`, compiling every site out.
    const ENABLED: bool = true;

    /// Called once at construction with the unit count.
    fn begin(&mut self, _units: usize) {}

    /// The unit issued at least one instruction this cycle.
    fn charge_issued(&mut self, _unit: usize) {}

    /// The unit issued nothing this cycle, for `reason`. Units holding
    /// no task are charged [`StallReason::NoTask`] or
    /// [`StallReason::SquashRecovery`].
    fn charge_stall(&mut self, _unit: usize, _reason: StallReason) {}

    /// A task was assigned to `unit` (charges from the next cycle on
    /// belong to it).
    fn task_assign(&mut self, _unit: usize, _order: u64, _entry: u32) {}

    /// The task on `unit` retired, having committed `instructions`.
    fn task_retire(&mut self, _unit: usize, _instructions: u64) {}

    /// The task on `unit` was squashed (its charges stay in the unit
    /// totals but produce no retired-task row).
    fn task_squash(&mut self, _unit: usize) {}

    /// Called once at end of run; returns the collected stack, if any.
    fn finish(&mut self, _cycles: u64, _instructions: u64) -> Option<CpiStack> {
        None
    }
}

/// The no-op accountant: every charging site compiles away
/// (`ENABLED = false`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoAccounting;

impl CycleAccountant for NoAccounting {
    const ENABLED: bool = false;
}

/// Forwarding impl so `&mut A` can be handed to a processor.
impl<A: CycleAccountant> CycleAccountant for &mut A {
    const ENABLED: bool = A::ENABLED;

    fn begin(&mut self, units: usize) {
        (**self).begin(units);
    }

    fn charge_issued(&mut self, unit: usize) {
        (**self).charge_issued(unit);
    }

    fn charge_stall(&mut self, unit: usize, reason: StallReason) {
        (**self).charge_stall(unit, reason);
    }

    fn task_assign(&mut self, unit: usize, order: u64, entry: u32) {
        (**self).task_assign(unit, order, entry);
    }

    fn task_retire(&mut self, unit: usize, instructions: u64) {
        (**self).task_retire(unit, instructions);
    }

    fn task_squash(&mut self, unit: usize) {
        (**self).task_squash(unit);
    }

    fn finish(&mut self, cycles: u64, instructions: u64) -> Option<CpiStack> {
        (**self).finish(cycles, instructions)
    }
}

/// A task currently charged to a unit.
#[derive(Clone, Debug)]
struct OpenTask {
    order: u64,
    entry: u32,
    issued_cycles: u64,
    stall_cycles: StallBuckets,
}

/// The concrete CPI-stack collector.
#[derive(Clone, Debug, Default)]
pub struct CpiAccountant {
    per_unit: Vec<UnitCpi>,
    open: Vec<Option<OpenTask>>,
    per_task: Vec<TaskCpi>,
}

impl CpiAccountant {
    /// A fresh accountant (sized on [`CycleAccountant::begin`]).
    pub fn new() -> CpiAccountant {
        CpiAccountant::default()
    }
}

impl CycleAccountant for CpiAccountant {
    fn begin(&mut self, units: usize) {
        self.per_unit = vec![UnitCpi::default(); units];
        self.open = vec![None; units];
    }

    fn charge_issued(&mut self, unit: usize) {
        self.per_unit[unit].issued_cycles += 1;
        if let Some(t) = &mut self.open[unit] {
            t.issued_cycles += 1;
        }
    }

    fn charge_stall(&mut self, unit: usize, reason: StallReason) {
        self.per_unit[unit].stall_cycles[reason.index()] += 1;
        if let Some(t) = &mut self.open[unit] {
            t.stall_cycles[reason.index()] += 1;
        }
    }

    fn task_assign(&mut self, unit: usize, order: u64, entry: u32) {
        self.open[unit] = Some(OpenTask {
            order,
            entry,
            issued_cycles: 0,
            stall_cycles: StallBuckets::default(),
        });
    }

    fn task_retire(&mut self, unit: usize, instructions: u64) {
        if let Some(t) = self.open[unit].take() {
            self.per_task.push(TaskCpi {
                order: t.order,
                unit,
                entry: t.entry,
                instructions,
                issued_cycles: t.issued_cycles,
                stall_cycles: t.stall_cycles,
            });
        }
    }

    fn task_squash(&mut self, unit: usize) {
        self.open[unit] = None;
    }

    fn finish(&mut self, cycles: u64, instructions: u64) -> Option<CpiStack> {
        let mut stack = CpiStack {
            units: self.per_unit.len(),
            cycles,
            instructions,
            issued_cycles: 0,
            stall_cycles: StallBuckets::default(),
            per_unit: std::mem::take(&mut self.per_unit),
            per_task: std::mem::take(&mut self.per_task),
        };
        for u in &stack.per_unit {
            stack.issued_cycles += u.issued_cycles;
            for i in 0..StallReason::COUNT {
                stack.stall_cycles[i] += u.stall_cycles[i];
            }
        }
        Some(stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_accounting_is_disabled_and_inert() {
        const { assert!(!NoAccounting::ENABLED) };
        let mut a = NoAccounting;
        a.begin(4);
        a.charge_issued(0);
        a.charge_stall(1, StallReason::RemoteDep);
        a.task_assign(0, 0, 0x100);
        a.task_retire(0, 5);
        assert!(a.finish(10, 20).is_none());
    }

    #[test]
    fn cpi_accountant_accumulates_and_conserves() {
        let mut a = CpiAccountant::new();
        a.begin(2);
        a.task_assign(0, 0, 0x100);
        // Cycle 1: unit 0 issues, unit 1 has no task.
        a.charge_issued(0);
        a.charge_stall(1, StallReason::NoTask);
        // Cycle 2: unit 0 stalls, unit 1 gets a task next cycle.
        a.charge_stall(0, StallReason::Drain);
        a.charge_stall(1, StallReason::NoTask);
        a.task_assign(1, 1, 0x200);
        // Cycle 3: both busy; unit 0 retires.
        a.charge_issued(0);
        a.charge_issued(1);
        a.task_retire(0, 7);
        let stack = a.finish(3, 7).unwrap();
        assert!(stack.conservation_holds(), "{stack:?}");
        assert_eq!(stack.issued_cycles, 3);
        assert_eq!(stack.stall_cycles[StallReason::NoTask.index()], 2);
        assert_eq!(stack.per_task.len(), 1);
        let t = &stack.per_task[0];
        assert_eq!((t.order, t.unit, t.instructions), (0, 0, 7));
        // The retired task was charged 2 issue cycles + 1 drain.
        assert_eq!(t.issued_cycles, 2);
        assert_eq!(t.stall_cycles[StallReason::Drain.index()], 1);
    }

    #[test]
    fn squashed_tasks_leave_no_per_task_row() {
        let mut a = CpiAccountant::new();
        a.begin(1);
        a.task_assign(0, 0, 0x100);
        a.charge_issued(0);
        a.task_squash(0);
        a.charge_stall(0, StallReason::SquashRecovery);
        let stack = a.finish(2, 0).unwrap();
        assert!(stack.conservation_holds());
        assert!(stack.per_task.is_empty());
        assert_eq!(stack.issued_cycles, 1);
        assert_eq!(stack.stall_cycles[StallReason::SquashRecovery.index()], 1);
    }
}
