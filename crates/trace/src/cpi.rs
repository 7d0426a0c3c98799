//! CPI-stack cycle accounting: where every (unit, cycle) went.
//!
//! The paper's evaluation hinges on *cycle attribution* — Section 3
//! decomposes execution into useful computation and the various ways a
//! unit can fail to issue (waiting on intra/inter-task values, busy
//! functional units, the ARB, the head of the circular queue). A
//! [`CpiStack`] carries that decomposition with a hard conservation
//! invariant:
//!
//! ```text
//! issued_cycles + Σ stall_cycles[r] == cycles × units
//! ```
//!
//! Every unit-cycle of a run is charged to exactly one bucket: `issued`
//! (the unit issued at least one instruction that cycle) or one
//! [`StallReason`]. Units holding no task are charged [`StallReason::NoTask`]
//! (sequencer had nothing for them) or [`StallReason::SquashRecovery`]
//! (emptied by a squash wave and not yet re-assigned), so idle cycles
//! are attributed, not dropped.
//!
//! The stack is accumulated per-unit and per-task-boundary: each
//! retired task carries the unit-cycles charged between its assignment
//! and retirement (squashed work stays in the per-unit totals but has
//! no retired-task row). [`CpiAccountant`] collects it as one more
//! [`TraceSink`]: the processor emits exactly one
//! [`TraceEvent::UnitIssue`] or [`TraceEvent::UnitStall`] per (unit,
//! cycle), and the task rows come from the `TaskAssign`, `TaskRetire`
//! and `TaskSquash` events. No other sink counts `UnitStall` events:
//! the stack is the one per-reason answer, and ms-core's
//! `CycleBreakdown::from_cpi` draws the paper's Section 3 classes from
//! it, which must equal the run's own `RunStats::breakdown`.
//!
//! Charges arrive one cycle at a time. A parked unit (DESIGN.md §13)
//! is charged exactly what an unparked one would be;
//! `tests/cpi_conservation.rs` asserts it for every suite workload.

use crate::event::{StallReason, TraceEvent};
use crate::json;
use crate::sink::TraceSink;
use std::fmt;

/// Schema identifier stamped into [`CpiStack::to_json`] output.
pub const CPI_SCHEMA: &str = "multiscalar-cpi/v1";

/// Per-reason stall counters, indexed by [`StallReason::index`].
pub type StallBuckets = [u64; StallReason::COUNT];

/// Cycle attribution for one processing unit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnitCpi {
    /// Cycles in which the unit issued at least one instruction.
    pub issued_cycles: u64,
    /// Cycles charged to each stall reason.
    pub stall_cycles: StallBuckets,
}

impl UnitCpi {
    /// Total unit-cycles accounted for this unit.
    pub fn total(&self) -> u64 {
        self.issued_cycles + self.stall_cycles.iter().sum::<u64>()
    }
}

/// Cycle attribution for one retired task (a task-boundary slice of
/// its unit's stack, from assignment to retirement).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskCpi {
    /// Dispatch order (monotone task id).
    pub order: u64,
    /// Unit the task ran on.
    pub unit: usize,
    /// Task entry address.
    pub entry: u32,
    /// Instructions the task committed.
    pub instructions: u64,
    /// Cycles in which the unit issued for this task.
    pub issued_cycles: u64,
    /// Cycles the task's unit stalled, by reason.
    pub stall_cycles: StallBuckets,
}

/// A complete CPI stack for one run: the conservation-checked
/// decomposition of `cycles × units` into issued and stalled
/// unit-cycles, with per-unit and per-retired-task detail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// Number of processing units.
    pub units: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed instructions (for the CPI denominator).
    pub instructions: u64,
    /// Unit-cycles in which at least one instruction issued.
    pub issued_cycles: u64,
    /// Unit-cycles charged to each stall reason (summed over units).
    pub stall_cycles: StallBuckets,
    /// Per-unit breakdown; `per_unit.len() == units`.
    pub per_unit: Vec<UnitCpi>,
    /// Per-retired-task breakdown, in retirement order.
    pub per_task: Vec<TaskCpi>,
}

impl CpiStack {
    /// The conservation target: every unit-cycle of the run.
    pub fn total_unit_cycles(&self) -> u64 {
        self.cycles * self.units as u64
    }

    /// Unit-cycles actually charged to some bucket.
    pub fn accounted_unit_cycles(&self) -> u64 {
        self.issued_cycles + self.stall_cycles.iter().sum::<u64>()
    }

    /// Whether the hard invariant `issued + Σ stalls == cycles × units`
    /// holds, both globally and per unit.
    pub fn conservation_holds(&self) -> bool {
        self.accounted_unit_cycles() == self.total_unit_cycles()
            && self.per_unit.len() == self.units
            && self.per_unit.iter().map(UnitCpi::total).sum::<u64>() == self.total_unit_cycles()
            && (0..StallReason::COUNT).all(|i| {
                self.per_unit.iter().map(|u| u.stall_cycles[i]).sum::<u64>() == self.stall_cycles[i]
            })
            && self.per_unit.iter().map(|u| u.issued_cycles).sum::<u64>() == self.issued_cycles
    }

    /// Cycles per committed instruction (`None` if nothing committed).
    pub fn cpi(&self) -> Option<f64> {
        (self.instructions > 0).then(|| self.cycles as f64 / self.instructions as f64)
    }

    /// The contribution of one bucket to the aggregate CPI: the
    /// bucket's unit-cycles divided by `units × instructions`, so the
    /// per-bucket contributions sum to [`CpiStack::cpi`].
    pub fn cpi_component(&self, unit_cycles: u64) -> Option<f64> {
        (self.instructions > 0 && self.units > 0)
            .then(|| unit_cycles as f64 / (self.units as f64 * self.instructions as f64))
    }

    /// Serializes the stack as a schema-versioned JSON object with a
    /// fixed field order (byte-deterministic across identical runs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let field = |out: &mut String, name: &str, val: &str| {
            if out.len() > 1 {
                out.push(',');
            }
            json::push_str(out, name);
            out.push(':');
            out.push_str(val);
        };
        let buckets = |issued: u64, stalls: &StallBuckets| {
            let mut b = String::from("{\"issued\":");
            b.push_str(&issued.to_string());
            for r in StallReason::ALL {
                b.push(',');
                json::push_str(&mut b, r.as_str());
                b.push(':');
                b.push_str(&stalls[r.index()].to_string());
            }
            b.push('}');
            b
        };
        field(&mut out, "schema", &json::string(CPI_SCHEMA));
        field(&mut out, "units", &self.units.to_string());
        field(&mut out, "cycles", &self.cycles.to_string());
        field(&mut out, "instructions", &self.instructions.to_string());
        field(&mut out, "unit_cycles", &self.total_unit_cycles().to_string());
        field(&mut out, "conserved", &self.conservation_holds().to_string());
        field(&mut out, "cpi", &self.cpi().map(json::number).unwrap_or_else(|| "null".into()));
        field(&mut out, "buckets", &buckets(self.issued_cycles, &self.stall_cycles));
        {
            let mut per_unit = String::from("[");
            for (i, u) in self.per_unit.iter().enumerate() {
                if i > 0 {
                    per_unit.push(',');
                }
                per_unit.push_str(&buckets(u.issued_cycles, &u.stall_cycles));
            }
            per_unit.push(']');
            field(&mut out, "per_unit", &per_unit);
        }
        {
            let mut per_task = String::from("[");
            for (i, t) in self.per_task.iter().enumerate() {
                if i > 0 {
                    per_task.push(',');
                }
                per_task.push_str(&format!(
                    "{{\"order\":{},\"unit\":{},\"entry\":{},\"instructions\":{},\"buckets\":{}}}",
                    t.order,
                    t.unit,
                    t.entry,
                    t.instructions,
                    buckets(t.issued_cycles, &t.stall_cycles)
                ));
            }
            per_task.push(']');
            field(&mut out, "per_task", &per_task);
        }
        out.push('}');
        out
    }
}

/// One unit's rows in a [`CpiAccountant`].
#[derive(Clone, Debug, Default)]
struct UnitRows {
    /// Every charge to the unit.
    total: UnitCpi,
    /// `(order, entry)` of the task the unit holds, if any.
    task: Option<(u64, u32)>,
    /// Charges since the unit's last assignment: the task's row while
    /// `task` is set, ignored otherwise.
    since_assign: UnitCpi,
}

/// The CPI-stack collector: a [`TraceSink`] that charges each
/// `UnitIssue`/`UnitStall` event to its unit and to the task the unit
/// holds. Rows are sized from the unit ids it sees.
#[derive(Clone, Debug, Default)]
pub struct CpiAccountant {
    units: Vec<UnitRows>,
    per_task: Vec<TaskCpi>,
}

impl CpiAccountant {
    /// A fresh accountant.
    pub fn new() -> CpiAccountant {
        CpiAccountant::default()
    }

    /// The rows of `unit`, growing the table to cover it.
    #[inline(always)]
    fn unit(&mut self, unit: usize) -> &mut UnitRows {
        if unit >= self.units.len() {
            self.grow(unit);
        }
        &mut self.units[unit]
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, unit: usize) {
        self.units.resize(unit + 1, UnitRows::default());
    }
}

impl TraceSink for CpiAccountant {
    // Always inlined: at each emitting site the event's kind is known,
    // so the match folds to one arm (or to nothing for the events the
    // accountant ignores).
    #[inline(always)]
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::UnitIssue { unit, .. } => {
                let rows = self.unit(unit);
                rows.total.issued_cycles += 1;
                rows.since_assign.issued_cycles += 1;
            }
            TraceEvent::UnitStall { unit, reason, .. } => {
                let rows = self.unit(unit);
                rows.total.stall_cycles[reason.index()] += 1;
                rows.since_assign.stall_cycles[reason.index()] += 1;
            }
            TraceEvent::TaskAssign { order, unit, entry, .. } => {
                let rows = self.unit(unit);
                rows.task = Some((order, entry));
                rows.since_assign = UnitCpi::default();
            }
            TraceEvent::TaskRetire { unit, instructions, .. } => {
                let rows = self.unit(unit);
                if let Some((order, entry)) = rows.task.take() {
                    let UnitCpi { issued_cycles, stall_cycles } = rows.since_assign;
                    self.per_task.push(TaskCpi {
                        order,
                        unit,
                        entry,
                        instructions,
                        issued_cycles,
                        stall_cycles,
                    });
                }
            }
            TraceEvent::TaskSquash { unit, .. } => self.unit(unit).task = None,
            _ => {}
        }
    }

    fn cpi_stack(&mut self, cycles: u64, instructions: u64) -> Option<CpiStack> {
        let per_unit: Vec<UnitCpi> = self.units.drain(..).map(|u| u.total).collect();
        let mut stack = CpiStack {
            units: per_unit.len(),
            cycles,
            instructions,
            issued_cycles: 0,
            stall_cycles: StallBuckets::default(),
            per_unit,
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

/// Text table: one row per bucket with unit-cycles, share of all
/// unit-cycles, and the bucket's CPI contribution.
impl fmt::Display for CpiStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_unit_cycles();
        let pct = |v: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * v as f64 / total as f64
            }
        };
        writeln!(
            f,
            "cpi stack: {} units x {} cycles = {} unit-cycles, {} instructions",
            self.units, self.cycles, total, self.instructions
        )?;
        if let Some(cpi) = self.cpi() {
            writeln!(f, "aggregate CPI {cpi:.4}")?;
        }
        let row = |f: &mut fmt::Formatter<'_>, name: &str, v: u64| {
            if v == 0 && name != "issued" {
                return Ok(());
            }
            let comp = self
                .cpi_component(v)
                .map(|c| format!("{c:8.4}"))
                .unwrap_or_else(|| "     n/a".into());
            writeln!(f, "  {name:<16} {v:>12}  {:6.2}%  {comp}", pct(v))
        };
        row(f, "issued", self.issued_cycles)?;
        for r in StallReason::ALL {
            row(f, r.as_str(), self.stall_cycles[r.index()])?;
        }
        if !self.conservation_holds() {
            writeln!(
                f,
                "  CONSERVATION VIOLATED: accounted {} of {}",
                self.accounted_unit_cycles(),
                total
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CpiStack {
        let mut s = CpiStack {
            units: 2,
            cycles: 10,
            instructions: 8,
            issued_cycles: 12,
            ..CpiStack::default()
        };
        s.stall_cycles[StallReason::RemoteDep.index()] = 5;
        s.stall_cycles[StallReason::NoTask.index()] = 3;
        s.per_unit = vec![
            UnitCpi {
                issued_cycles: 7,
                stall_cycles: {
                    let mut b = StallBuckets::default();
                    b[StallReason::RemoteDep.index()] = 3;
                    b
                },
            },
            UnitCpi {
                issued_cycles: 5,
                stall_cycles: {
                    let mut b = StallBuckets::default();
                    b[StallReason::RemoteDep.index()] = 2;
                    b[StallReason::NoTask.index()] = 3;
                    b
                },
            },
        ];
        s
    }

    #[test]
    fn conservation_checks_global_and_per_unit() {
        let s = sample();
        assert_eq!(s.total_unit_cycles(), 20);
        assert_eq!(s.accounted_unit_cycles(), 20);
        assert!(s.conservation_holds());

        let mut broken = s.clone();
        broken.issued_cycles += 1;
        assert!(!broken.conservation_holds());

        // Per-unit rows must also sum to the totals.
        let mut skewed = s;
        skewed.per_unit[0].issued_cycles += 1;
        skewed.per_unit[0].stall_cycles[StallReason::RemoteDep.index()] -= 1;
        assert!(!skewed.conservation_holds());
    }

    #[test]
    fn json_is_schema_versioned_and_deterministic() {
        let s = sample();
        let j = s.to_json();
        assert!(j.starts_with("{\"schema\":\"multiscalar-cpi/v1\","));
        assert!(j.contains("\"conserved\":true"));
        assert!(j.contains("\"buckets\":{\"issued\":12,\"fetch_empty\":0,"));
        assert!(j.contains("\"no_task\":3"));
        assert_eq!(j, sample().to_json());
    }

    #[test]
    fn display_renders_nonzero_rows() {
        let s = sample();
        let text = s.to_string();
        assert!(text.contains("2 units x 10 cycles = 20 unit-cycles"));
        assert!(text.contains("issued"));
        assert!(text.contains("remote_dep"));
        assert!(!text.contains("fu_busy"), "zero rows are suppressed:\n{text}");
    }

    fn issue(cycle: u64, unit: usize) -> TraceEvent {
        TraceEvent::UnitIssue { cycle, unit }
    }

    fn stall(cycle: u64, unit: usize, reason: StallReason) -> TraceEvent {
        TraceEvent::UnitStall { cycle, unit, reason }
    }

    fn assign(cycle: u64, order: u64, unit: usize, entry: u32) -> TraceEvent {
        TraceEvent::TaskAssign { cycle, order, unit, entry, by_prediction: false }
    }

    #[test]
    fn cpi_accountant_accumulates_and_conserves() {
        let mut a = CpiAccountant::new();
        for ev in [
            assign(0, 0, 0, 0x100),
            // Cycle 1: unit 0 issues, unit 1 has no task.
            issue(1, 0),
            stall(1, 1, StallReason::NoTask),
            // Cycle 2: unit 0 stalls, unit 1 gets a task.
            stall(2, 0, StallReason::Drain),
            stall(2, 1, StallReason::NoTask),
            assign(2, 1, 1, 0x200),
            // Cycle 3: both busy; unit 0 retires.
            issue(3, 0),
            issue(3, 1),
            TraceEvent::TaskRetire { cycle: 3, order: 0, unit: 0, entry: 0x100, instructions: 7 },
        ] {
            a.event(&ev);
        }
        let stack = a.cpi_stack(3, 7).unwrap();
        assert!(stack.conservation_holds(), "{stack:?}");
        assert_eq!(stack.units, 2, "rows are sized from the unit ids seen");
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
        for ev in [
            assign(0, 0, 0, 0x100),
            issue(1, 0),
            TraceEvent::TaskSquash {
                cycle: 1,
                order: 0,
                unit: 0,
                entry: 0x100,
                cause: crate::SquashKind::Control,
            },
            stall(2, 0, StallReason::SquashRecovery),
        ] {
            a.event(&ev);
        }
        let stack = a.cpi_stack(2, 0).unwrap();
        assert!(stack.conservation_holds());
        assert!(stack.per_task.is_empty());
        assert_eq!(stack.issued_cycles, 1);
        assert_eq!(stack.stall_cycles[StallReason::SquashRecovery.index()], 1);
    }

    #[test]
    fn only_the_accountant_builds_a_stack() {
        use crate::{NullSink, TeeSink, VecSink};
        assert!(VecSink::default().cpi_stack(1, 1).is_none());
        let mut tee = TeeSink(NullSink, CpiAccountant::new());
        tee.event(&issue(0, 0));
        let stack = tee.cpi_stack(1, 1).expect("the tee forwards the accountant's stack");
        assert_eq!(stack.issued_cycles, 1);
    }

    #[test]
    fn cpi_components_sum_to_cpi() {
        let s = sample();
        let mut sum = s.cpi_component(s.issued_cycles).unwrap();
        for v in s.stall_cycles {
            sum += s.cpi_component(v).unwrap();
        }
        let cpi = s.cpi().unwrap();
        assert!((sum - cpi).abs() < 1e-9, "{sum} vs {cpi}");
    }
}
