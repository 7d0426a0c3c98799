//! # ms-sweep — the experiment-sweep engine
//!
//! The paper's whole Section-5 evaluation is a design-space sweep:
//! {10 benchmarks} × {1-/2-way issue} × {in-order, out-of-order} ×
//! {scalar baseline, 4 units, 8 units}. Every point is an independent
//! simulation, which makes the sweep embarrassingly parallel and its
//! results perfectly cacheable. This crate turns that observation into
//! infrastructure:
//!
//! 1. a declarative [`SweepSpec`] expands workload × [`SimConfig`](multiscalar::SimConfig) axes
//!    into a flat list of independent [`Job`]s,
//! 2. an execution engine ([`run_sweep`] / [`run_jobs`]) runs them on a
//!    `std::thread` worker pool sized by [`SweepOptions::jobs`], with
//!    results returned in spec order so parallel output is byte-identical
//!    to a serial (`jobs = 1`) run,
//! 3. an on-disk content-addressed [`SweepCache`] memoizes each point
//!    under a stable key of (workload fingerprint, full
//!    [`SimConfig::stable_key`](multiscalar::SimConfig::stable_key), crate version), so re-runs and resumed
//!    sweeps only execute missing points, and
//! 4. [`artifacts`] renders the outcome as deterministic JSON and CSV,
//!    with optional per-job [`ms_trace::MetricsReport`]s.
//!
//! A failed design point never aborts the sweep: it is reported as a
//! [`JobFailure`] carrying the job identity, next to the points that
//! succeeded.
//!
//! The `mssweep` CLI (in `ms-bench`) is a thin front-end over this crate,
//! and `ms-bench`'s Table 3/4 regeneration runs on it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// A `JobFailure` carries the full `Job` (including its ~200-byte
// `SimConfig`) so failures stay self-describing. Each `Result` here
// corresponds to an entire simulation run, so the Err-variant size is
// irrelevant to performance.
#![allow(clippy::result_large_err)]

pub mod artifacts;
pub mod cache;
pub mod engine;
pub mod job;
pub mod spec;
pub mod statsio;

pub use cache::{CacheDirError, SweepCache};
pub use engine::{
    compute_and_store, resolve_workload, run_jobs, run_jobs_with, run_sweep, Executor,
    InProcessExecutor, JobFailure, JobOutcome, SweepOptions, SweepReport,
};
pub use job::{Job, JobKind};
pub use spec::SweepSpec;
