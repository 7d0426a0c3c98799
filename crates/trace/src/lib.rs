//! Structured trace & metrics layer for the multiscalar simulator.
//!
//! The simulator's components (sequencer, register forwarding ring,
//! processing units, ARB/caches/bus) emit [`TraceEvent`]s into a
//! [`TraceSink`] chosen at construction time:
//!
//! - [`NullSink`] — the default; `ENABLED = false` lets every
//!   instrumentation site compile away.
//! - [`MetricsSink`] — folds the stream into a [`MetricsReport`] of
//!   counters and [`Histogram`]s (task sizes, inter-squash distance,
//!   ring latency, ARB occupancy) matching the paper's Section-5
//!   evaluation axes. It leaves the per-(unit, cycle) charges to the
//!   accountant.
//! - [`JsonLinesSink`] — one JSON object per event; byte-deterministic
//!   across identical runs.
//! - [`ChromeTraceSink`] — Chrome trace_event JSON: per-unit task
//!   timelines, squash instants and ARB occupancy counters, loadable
//!   in Perfetto.
//! - [`CpiAccountant`] — folds the per-(unit, cycle) issue/stall events
//!   and the task lifecycle into a conservation-checked [`CpiStack`],
//!   the one per-reason record of where a run's unit-cycles went.
//! - [`TeeSink`] — fan one run into several sinks at once.
//!
//! The `mstrace` binary (in `ms-bench`) drives any named workload and
//! writes `trace.json` + `report.json` from these sinks.

pub mod chrome;
pub mod cpi;
pub mod event;
pub mod hash;
pub mod histogram;
pub mod json;
pub mod jsonl;
pub mod jsonv;
pub mod metrics;
pub mod sink;

pub use chrome::ChromeTraceSink;
pub use cpi::{CpiAccountant, CpiStack, StallBuckets, TaskCpi, UnitCpi, CPI_SCHEMA};
pub use event::{SquashKind, StallReason, TraceEvent};
pub use histogram::Histogram;
pub use jsonl::{event_to_json, JsonLinesSink};
pub use metrics::{MetricsReport, MetricsSink};
pub use sink::{NullSink, TeeSink, TraceSink, VecSink};
