//! # ms-serve — deterministic simulation-as-a-service
//!
//! The paper's premise is throughput from parallel units behind a
//! sequential-appearing interface; this crate applies the same shape at
//! the systems layer. A long-running daemon (`msserve`) accepts
//! experiment requests — one workload × [`multiscalar::SimConfig`] ×
//! scale design point, or a whole sweep — over a versioned
//! line-delimited JSON protocol ([`protocol`], `multiscalar-serve/v1`),
//! computes them on a pool of in-process worker threads, and answers
//! with exactly the bytes `mssweep` would put in its `results.json`
//! artifact for the same point.
//!
//! Three layers keep the service cheap under duplicate-heavy traffic:
//!
//! 1. **Single-flight dedup** ([`flight`]) — concurrent identical
//!    requests coalesce onto one in-flight computation; every waiter
//!    gets the same payload `Arc`.
//! 2. **The checksummed sweep cache** ([`ms_sweep::SweepCache`]) — a
//!    request whose design point was ever computed (by this daemon *or*
//!    by `mssweep`, they share the key space) is answered from disk
//!    without simulating.
//! 3. **Admission control** ([`server`]) — a bounded compute queue;
//!    when it is full the daemon answers `overloaded` with a
//!    retry-after hint instead of queueing unboundedly, and a graceful
//!    shutdown drains queued and in-flight work before closing.
//!
//! Because simulation results are deterministic and responses carry
//! self-validating identity (workload fingerprint +
//! `SimConfig::stable_key` + FNV checksum, via the cache key), a
//! response is byte-identical no matter which layer produced it. The
//! socket-level tests in `tests/` pin that for computed, cached,
//! coalesced and pipelined answers, and CI byte-compares a served point
//! against a cold `mssweep` run.
//!
//! Workers execute through the [`ms_sweep::Executor`] trait, so the
//! daemon and `mssweep` run the same engine — and tests can interpose
//! counting or blocking executors to pin down dedup and backpressure
//! semantics precisely. Every job runs on that one in-process path,
//! under a panic guard: a job that panics settles as a structured
//! failure, and the daemon keeps serving.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod flight;
pub mod protocol;
pub mod server;
pub mod stats;

pub use flight::{Flight, FlightBoard, FlightOutcome};
pub use protocol::{Envelope, Request, RunRequest, SweepRequest, PROTO};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stats::{ServeStats, StatsSnapshot};
