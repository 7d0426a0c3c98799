//! # ms-workloads — the evaluation benchmark suite
//!
//! The paper evaluates on SPECint92 (compress, eqntott, espresso, gcc, sc,
//! xlisp), SPECfp92 tomcatv, GNU cmp and wc, and the Figure-3 symbol-search
//! example ("16 tokens, each appearing 450 times"). SPEC92 binaries and
//! inputs are not redistributable and no MIPS toolchain is assumed, so each
//! benchmark here is a synthetic kernel that reproduces the *dominant loop
//! structure the paper describes for that program* (Section 5.3): the same
//! task shape, the same inter-task dependence pattern, and therefore the
//! same qualitative multiscalar behaviour. See `DESIGN.md` §2 for the
//! substitution rationale.
//!
//! Every workload carries:
//! * one annotated assembly source (assembled into both the scalar and the
//!   multiscalar binary, reproducing Table 2's instruction-count deltas),
//! * deterministic generated inputs, and
//! * expected outputs computed by a Rust reference implementation, checked
//!   against simulated memory after every run — the simulators are
//!   *functionally validated* on every benchmark, not just timed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
mod cmp;
mod compress;
mod data;
mod eqntott;
mod espresso;
mod gcc_like;
mod sc_like;
mod symsearch;
mod tomcatv;
mod wc;
mod xlisp_like;

pub use data::Scale;

use ms_asm::{assemble, AsmMode};
use ms_isa::Program;
use multiscalar::trace::hash::{fnv1a_64, FNV1A_64_OFFSET};
use multiscalar::{Processor, RunStats, ScalarProcessor, SimConfig, SimError};
use std::fmt;

/// An expected memory value, checked after a run.
#[derive(Clone, Debug)]
pub struct Check {
    /// Data-segment label the expectation is anchored at.
    pub symbol: String,
    /// Byte offset from the label.
    pub offset: u32,
    /// Expected little-endian bytes.
    pub bytes: Vec<u8>,
    /// What this value means (for error messages).
    pub what: String,
}

impl Check {
    /// A `.word` (u32) expectation.
    pub fn word(symbol: &str, offset: u32, value: u32, what: &str) -> Check {
        Check {
            symbol: symbol.into(),
            offset,
            bytes: value.to_le_bytes().to_vec(),
            what: what.into(),
        }
    }

    /// A `.dword` (u64) expectation.
    pub fn dword(symbol: &str, offset: u32, value: u64, what: &str) -> Check {
        Check {
            symbol: symbol.into(),
            offset,
            bytes: value.to_le_bytes().to_vec(),
            what: what.into(),
        }
    }

    /// An `f64` expectation (exact bit pattern).
    pub fn double(symbol: &str, offset: u32, value: f64, what: &str) -> Check {
        Check {
            symbol: symbol.into(),
            offset,
            bytes: value.to_bits().to_le_bytes().to_vec(),
            what: what.into(),
        }
    }
}

/// A benchmark: annotated source, inputs, and reference-computed
/// expectations.
pub struct Workload {
    /// Benchmark name (paper row name).
    pub name: &'static str,
    /// What it models and why (paper Section 5.3 characterization).
    pub description: &'static str,
    /// Dual-mode assembly source.
    pub source: String,
    /// Expected memory state after a correct run.
    pub checks: Vec<Check>,
}

/// A validation failure: the simulation produced wrong values.
#[derive(Debug)]
pub enum WorkloadError {
    /// Assembly of the workload source failed.
    Asm(ms_asm::AsmError),
    /// The simulator reported an error.
    Sim(SimError),
    /// An output value did not match the reference implementation.
    Mismatch {
        /// Benchmark name.
        name: &'static str,
        /// Which expectation failed.
        what: String,
        /// Expected bytes.
        expected: Vec<u8>,
        /// Bytes found in simulated memory.
        found: Vec<u8>,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Asm(e) => write!(f, "assembly failed: {e}"),
            WorkloadError::Sim(e) => write!(f, "simulation failed: {e}"),
            WorkloadError::Mismatch { name, what, expected, found } => {
                write!(f, "{name}: {what}: expected {expected:02x?}, found {found:02x?}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<ms_asm::AsmError> for WorkloadError {
    fn from(e: ms_asm::AsmError) -> Self {
        WorkloadError::Asm(e)
    }
}

impl From<SimError> for WorkloadError {
    fn from(e: SimError) -> Self {
        WorkloadError::Sim(e)
    }
}

impl Workload {
    /// A stable 64-bit fingerprint of the workload's full content
    /// identity: name, generated source (which bakes in the scale-sized
    /// inputs and the per-workload RNG seeds), and reference-computed
    /// expectations.
    ///
    /// Equal fingerprints mean the same program, inputs, and expected
    /// outputs, so a simulation result for one is valid for the other —
    /// this is what keys the `ms-sweep` on-disk result cache. The hash is
    /// FNV-1a, independent of `std`'s unstable default hasher.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a_64(FNV1A_64_OFFSET, self.name.as_bytes());
        h = fnv1a_64(h, &[0xff]);
        h = fnv1a_64(h, self.source.as_bytes());
        for c in &self.checks {
            h = fnv1a_64(h, &[0xfe]);
            h = fnv1a_64(h, c.symbol.as_bytes());
            h = fnv1a_64(h, &c.offset.to_le_bytes());
            h = fnv1a_64(h, &c.bytes);
        }
        h
    }
}

impl Workload {
    /// Assembles the workload in the given mode.
    ///
    /// Results are memoized process-wide, keyed by the workload
    /// [`fingerprint`](Workload::fingerprint) and mode: sweeps run the
    /// same program under dozens of machine configurations, and
    /// re-parsing the source for each design point costs more than the
    /// cheap [`Program`] clone a cache hit pays.
    ///
    /// # Errors
    /// Returns the underlying assembler error.
    pub fn assemble(&self, mode: AsmMode) -> Result<Program, WorkloadError> {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<HashMap<(u64, AsmMode), Program>>> = OnceLock::new();
        let key = (self.fingerprint(), mode);
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(prog) = cache.lock().unwrap().get(&key) {
            return Ok(prog.clone());
        }
        let prog = assemble(&self.source, mode)?;
        cache.lock().unwrap().insert(key, prog.clone());
        Ok(prog)
    }

    /// Validates simulated memory against the reference-computed
    /// expectations — the sequential-semantics oracle shared by every run
    /// path, including the `ms-chaos` campaign.
    ///
    /// # Errors
    /// Returns [`WorkloadError::Mismatch`] for the first wrong value.
    ///
    /// # Panics
    /// Panics if a check references a symbol the program does not define
    /// (a bug in the workload definition, not in the simulation).
    pub fn verify_memory(
        &self,
        mem: &ms_memsys::Memory,
        prog: &Program,
    ) -> Result<(), WorkloadError> {
        for c in &self.checks {
            let base = prog.symbol(&c.symbol).unwrap_or_else(|| {
                panic!("{}: check references unknown symbol {}", self.name, c.symbol)
            });
            let found = mem.read_vec(base + c.offset, c.bytes.len());
            if found != c.bytes {
                return Err(WorkloadError::Mismatch {
                    name: self.name,
                    what: c.what.clone(),
                    expected: c.bytes.clone(),
                    found,
                });
            }
        }
        Ok(())
    }

    /// Runs the scalar binary on the scalar baseline and validates the
    /// result against the reference implementation.
    ///
    /// # Errors
    /// Propagates assembly/simulation errors and validation mismatches.
    pub fn run_scalar(&self, cfg: SimConfig) -> Result<RunStats, WorkloadError> {
        let prog = self.assemble(AsmMode::Scalar)?;
        let mut p = ScalarProcessor::new(prog, cfg)?;
        let stats = p.run()?;
        self.verify_memory(p.memory(), p.program())?;
        Ok(stats)
    }

    /// Runs the multiscalar binary on a multiscalar processor and
    /// validates the result against the reference implementation.
    ///
    /// # Errors
    /// Propagates assembly/simulation errors and validation mismatches.
    pub fn run_multiscalar(&self, cfg: SimConfig) -> Result<RunStats, WorkloadError> {
        let prog = self.assemble(AsmMode::Multiscalar)?;
        let mut p = Processor::new(prog, cfg)?;
        let stats = p.run()?;
        self.verify_memory(p.memory(), p.program())?;
        Ok(stats)
    }

    /// Like [`Workload::run_multiscalar`], but reports every
    /// [`multiscalar::trace::TraceEvent`] to `sink` and hands the
    /// finished sink back on every path, so a failed run still leaves a
    /// complete trace up to the failure. With a
    /// [`multiscalar::CpiAccountant`] (alone or in a
    /// [`multiscalar::trace::TeeSink`]) the stats carry the run's
    /// conservation-checked [`multiscalar::trace::CpiStack`] in
    /// [`RunStats::cpi`].
    ///
    /// # Errors
    /// The result propagates assembly/simulation errors and validation
    /// mismatches.
    pub fn run_multiscalar_with_sink<S: multiscalar::trace::TraceSink>(
        &self,
        cfg: SimConfig,
        mut sink: S,
    ) -> (Result<RunStats, WorkloadError>, S) {
        // Check the program while the sink is still ours to return.
        let checked = self.assemble(AsmMode::Multiscalar).and_then(|prog| {
            Processor::check_program(&prog)?;
            Ok(prog)
        });
        let prog = match checked {
            Ok(prog) => prog,
            Err(e) => {
                sink.finish();
                return (Err(e), sink);
            }
        };
        let mut p = Processor::with_sink(prog, cfg, sink)
            .expect("the only construction failure is the program check made above");
        let result = p.run().map_err(WorkloadError::from).and_then(|stats| {
            self.verify_memory(p.memory(), p.program())?;
            Ok(stats)
        });
        (result, p.into_sink())
    }

    /// Like [`Workload::run_multiscalar`], but perturbs the
    /// microarchitecture through `injector` (chaos testing), checks each
    /// task as it retires ([`Processor::run_checked`]) and returns the
    /// finished processor alongside the stats. Memory is validated against
    /// the reference before returning — fault injection must never change
    /// architectural results.
    ///
    /// # Errors
    /// Propagates assembly/simulation errors and validation mismatches.
    #[allow(clippy::type_complexity)]
    pub fn run_multiscalar_with_injector<F: multiscalar::FaultInjector>(
        &self,
        cfg: SimConfig,
        injector: F,
    ) -> Result<(RunStats, Processor<multiscalar::trace::NullSink, F>), WorkloadError> {
        let prog = self.assemble(AsmMode::Multiscalar)?;
        let mut p = Processor::with_injector(prog, cfg, injector)?;
        let stats = p.run_checked()?;
        self.verify_memory(p.memory(), p.program())?;
        Ok((stats, p))
    }
}

/// Builds one workload at a scale.
type Build = fn(Scale) -> Workload;

/// Each workload's paper row name and constructor, in the paper's table
/// order: the one list [`suite`] and [`by_name`] read.
const WORKLOADS: [(&str, Build); 10] = [
    ("Compress", compress::workload),
    ("Eqntott", eqntott::workload),
    ("Espresso", espresso::workload),
    ("Gcc", gcc_like::workload),
    ("Sc", sc_like::workload),
    ("Xlisp", xlisp_like::workload),
    ("Tomcatv", tomcatv::workload),
    ("Cmp", cmp::workload),
    ("Wc", wc::workload),
    ("Example", symsearch::workload),
];

/// The full benchmark ensemble, in the paper's table order.
pub fn suite(scale: Scale) -> Vec<Workload> {
    WORKLOADS.iter().map(|(_, build)| build(scale)).collect()
}

/// Builds one workload, named by its paper row name (case-insensitive).
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    WORKLOADS.iter().find(|(row, _)| row.eq_ignore_ascii_case(name)).map(|(_, build)| build(scale))
}

#[cfg(test)]
mod identity_tests {
    use super::*;

    #[test]
    fn fingerprints_are_deterministic_and_scale_sensitive() {
        let a = by_name("Wc", Scale::Test).unwrap();
        let b = by_name("Wc", Scale::Test).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same workload, same fingerprint");
        let full = by_name("Wc", Scale::Full).unwrap();
        assert_ne!(a.fingerprint(), full.fingerprint(), "scale changes the fingerprint");
        let other = by_name("Cmp", Scale::Test).unwrap();
        assert_ne!(a.fingerprint(), other.fingerprint(), "different workloads differ");
    }

    #[test]
    fn by_name_builds_the_suite_entry_alone() {
        for scale in [Scale::Test, Scale::Full] {
            for w in suite(scale) {
                for name in [w.name.to_string(), w.name.to_lowercase(), w.name.to_uppercase()] {
                    let one = by_name(&name, scale).unwrap_or_else(|| panic!("{name}"));
                    assert_eq!(one.fingerprint(), w.fingerprint(), "{name} at {}", scale.id());
                }
            }
            assert!(by_name("nosuch", scale).is_none());
        }
    }

    #[test]
    fn scale_ids_round_trip() {
        for s in [Scale::Test, Scale::Full] {
            assert_eq!(Scale::parse(s.id()), Some(s));
        }
        assert_eq!(Scale::parse("FULL"), Some(Scale::Full));
        assert_eq!(Scale::parse("huge"), None);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Runs a workload at test scale through the scalar baseline and a
    /// 4-unit multiscalar processor, validating both and the basic
    /// instruction-count relation (Table 2: multiscalar >= scalar).
    pub fn check_workload(w: &Workload) {
        let s =
            w.run_scalar(SimConfig::scalar()).unwrap_or_else(|e| panic!("{} scalar: {e}", w.name));
        let m = w
            .run_multiscalar(SimConfig::multiscalar(4))
            .unwrap_or_else(|e| panic!("{} multiscalar: {e}", w.name));
        assert!(
            m.instructions >= s.instructions,
            "{}: multiscalar dynamic count {} < scalar {}",
            w.name,
            m.instructions,
            s.instructions
        );
        assert!(s.cycles > 0 && m.cycles > 0);
    }
}
