//! # multiscalar-repro — reproduction of *Multiscalar Processors* (ISCA 1995)
//!
//! This is the umbrella crate of the workspace; it re-exports the full
//! stack so examples and integration tests can use one import. See the
//! member crates for the implementation:
//!
//! * [`ms_isa`] — the annotated instruction set,
//! * [`ms_asm`] — the assembler (scalar + multiscalar binaries from one
//!   source),
//! * [`ms_cfg`] — control-flow-graph walking for task annotation,
//! * [`ms_memsys`] — memory, caches, bus, and the Address Resolution
//!   Buffer,
//! * [`ms_pipeline`] — the processing-unit pipeline,
//! * [`ms_predictor`] — task prediction, return-address stack, descriptor
//!   cache,
//! * [`multiscalar`] — the multiscalar processor and the scalar baseline,
//! * [`ms_workloads`] — the evaluation benchmark suite.
//!
//! ## Where the documentation lives
//!
//! The repository's design notes are markdown files at the root, each
//! the authority on its axis:
//!
//! * **DESIGN.md** — what is built and why: system inventory,
//!   microarchitecture parameters, testing strategy, fault injection,
//!   differential fuzzing, cycle accounting (§11), and event-driven
//!   unit parking with its safety argument (§13).
//! * **PERFORMANCE.md** — host throughput: the `msperf`/`msprof`
//!   harnesses, the interleaved A/B methodology, the optimization
//!   passes, and the `BENCH_perf.json` artifact schema.
//! * **EXPERIMENTS.md** — simulated results: every paper table and
//!   figure reproduced, paper numbers beside measured ones.
//! * **ROADMAP.md** — the north star and open items.
//!
//! Simulated behaviour is byte-deterministic: wall-clock never appears
//! in a result artifact, and host-side optimizations (PERFORMANCE.md)
//! are admitted only when golden tests prove `RunStats` and CPI stacks
//! unchanged.

pub use ms_asm;
pub use ms_cfg;
pub use ms_isa;
pub use ms_memsys;
pub use ms_pipeline;
pub use ms_predictor;
pub use ms_workloads;
pub use multiscalar;
