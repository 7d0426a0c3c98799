//! Differential validation of one generated program.
//!
//! A program is cross-validated three ways:
//!
//! 1. **Static** — `ms-cfg::check_program` must accept an honestly
//!    annotated program (any error is a generator or checker bug) and
//!    should flag adversarially perturbed ones.
//! 2. **Differential** — the program runs on the multiscalar simulator
//!    at several [`SimConfig`] points, each run checked task by task
//!    against the sequential walk of the same binary
//!    ([`Processor::run_checked`]); each run's final memory, and the
//!    final registers of that walk, must agree with the scalar binary
//!    walked to its halt.
//! 3. **Runtime containment** — a perturbed program the checker missed
//!    may still fail loudly (simulator fault, watchdog, cycle bound);
//!    that counts as *caught*. A panic never does: it fails the case
//!    with verdict `panic` in every mode. What must never happen is a
//!    perturbed program computing something other than its sequential
//!    walk: a task that leaves the walk, or a final state that differs
//!    from the scalar binary's, is silent divergence, the bug class this
//!    crate hunts.
//!
//! The core oracle, [`validate_pair`], takes an already-assembled
//! multiscalar/scalar program pair and the memory regions to compare, so
//! it also serves the task partitioner: a partitioned program is checked
//! against the *original* scalar binary it was derived from.

use crate::gen::{ARR_BYTES, OUT_BYTES};
use ms_asm::{assemble, AsmMode};
use ms_cfg::{check_program, Severity};
use ms_isa::{Program, DATA_BASE};
use multiscalar::{Processor, SequentialWalk, SimConfig, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Knobs for one validation run.
#[derive(Clone, Copy, Debug)]
pub struct ValidateOpts {
    /// Hard cycle ceiling per simulation.
    pub max_cycles: u64,
    /// Forward-progress watchdog window (cycles without a retirement).
    pub watchdog: u64,
}

impl Default for ValidateOpts {
    fn default() -> ValidateOpts {
        ValidateOpts { max_cycles: 2_000_000, watchdog: 200_000 }
    }
}

/// The multiscalar configuration points every fuzz program is run at.
pub fn config_points(opts: &ValidateOpts) -> Vec<(&'static str, SimConfig)> {
    [
        ("ms1", SimConfig::multiscalar(1)),
        ("ms2", SimConfig::multiscalar(2)),
        ("ms4-ooo2", SimConfig::multiscalar(4).issue(2).out_of_order(true)),
        ("ms8-ring1", SimConfig::multiscalar(8).ring_width(1).ring_latency(2)),
    ]
    .into_iter()
    .map(|(n, c)| (n, c.max_cycles(opts.max_cycles).watchdog(Some(opts.watchdog))))
    .collect()
}

/// The configuration points partitioned programs are validated at: one
/// unit (pure sequencing), a wide out-of-order point, and a narrow ring —
/// the acceptance spread for machine-derived task boundaries.
pub fn partition_config_points(opts: &ValidateOpts) -> Vec<(&'static str, SimConfig)> {
    [
        ("ms1", SimConfig::multiscalar(1)),
        ("ms4-ooo2", SimConfig::multiscalar(4).issue(2).out_of_order(true)),
        ("ms8-ring1", SimConfig::multiscalar(8).ring_width(1).ring_latency(2)),
    ]
    .into_iter()
    .map(|(n, c)| (n, c.max_cycles(opts.max_cycles).watchdog(Some(opts.watchdog))))
    .collect()
}

/// The data-memory window to compare for `prog`: from the data base to
/// 64 KiB past the last initialized segment. The slack covers `.space`
/// tails (result arrays reserve address space without materializing
/// bytes); the stack is deliberately excluded — it holds saved `$31`
/// return addresses, which legitimately differ when inserted
/// instructions shift code addresses.
pub fn data_window(prog: &Program) -> (u32, usize) {
    const SLACK: u32 = 64 * 1024;
    let extent = prog.data.iter().map(|s| s.base + s.bytes.len() as u32).max().unwrap_or(DATA_BASE);
    (DATA_BASE, (extent.max(DATA_BASE) - DATA_BASE + SLACK) as usize)
}

/// The outcome of validating one program.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Whether the program met expectations for its mode.
    pub pass: bool,
    /// Machine-readable verdict name (see module docs).
    pub verdict: &'static str,
    /// Human-readable explanation (first failure, or empty).
    pub detail: String,
}

impl CaseOutcome {
    fn pass(verdict: &'static str) -> CaseOutcome {
        CaseOutcome { pass: true, verdict, detail: String::new() }
    }

    fn fail(verdict: &'static str, detail: String) -> CaseOutcome {
        CaseOutcome { pass: false, verdict, detail }
    }
}

/// Validates one rendered program source.
///
/// `adversarial` states the *expectation*: an honest program must pass
/// the checker and match the scalar reference everywhere; a perturbed
/// program may be caught statically or at runtime (pass), or turn out
/// harmless (pass) — but must not silently diverge (fail).
pub fn validate_source(src: &str, adversarial: bool, opts: &ValidateOpts) -> CaseOutcome {
    let ms_prog = match assemble(src, AsmMode::Multiscalar) {
        Ok(p) => p,
        Err(e) => return CaseOutcome::fail("assemble-error", format!("multiscalar: {e}")),
    };
    let sc_prog = match assemble(src, AsmMode::Scalar) {
        Ok(p) => p,
        Err(e) => return CaseOutcome::fail("assemble-error", format!("scalar: {e}")),
    };
    // Fuzz-generated programs anchor their results at `arr`; hand-written
    // repros without one are compared over the whole data window.
    let regions = match ms_prog.symbol("arr") {
        Some(arr) => [(arr, (ARR_BYTES + OUT_BYTES) as usize)],
        None => [data_window(&ms_prog)],
    };
    validate_pair(&ms_prog, &sc_prog, &regions, adversarial, opts, &config_points(opts))
}

/// Validates an assembled multiscalar program against a scalar reference
/// binary: the static checker must accept `ms_prog`, at every config in
/// `configs` the checked run must retire exactly the tasks of the walk
/// of `ms_prog` and leave the bytes of each `(base, len)` region in
/// `regions` as the walk of `sc_prog` does, and the walk of `ms_prog`
/// must end with the registers (except `$31`) of the walk of `sc_prog`.
///
/// The registers are compared once, walk against walk: a checked run
/// holds each task's create-mask registers to the walk of `ms_prog`, and
/// nothing else of a processor's registers is architectural at the end
/// (the last task's forwarded view still holds whatever the task did not
/// create).
pub fn validate_pair(
    ms_prog: &Program,
    sc_prog: &Program,
    regions: &[(u32, usize)],
    adversarial: bool,
    opts: &ValidateOpts,
    configs: &[(&'static str, SimConfig)],
) -> CaseOutcome {
    // Static cross-validation first: running a program whose
    // annotations are known-bad can trip internal debug asserts, so a
    // static catch both passes the case and skips the simulations.
    let report = check_program(ms_prog);
    let errors: Vec<String> = report.of_severity(Severity::Error).map(|d| d.to_string()).collect();
    if !errors.is_empty() {
        return if adversarial {
            CaseOutcome::pass("caught-static")
        } else {
            CaseOutcome::fail("static-reject", errors.join("; "))
        };
    }

    // Scalar reference: the scalar binary walked to its halt.
    let scalar = match walk_to_halt(sc_prog, "scalar", opts.max_cycles) {
        Ok(walk) => walk,
        Err(e) => return CaseOutcome::fail("scalar-error", e),
    };
    let sc_mem: Vec<Vec<u8>> =
        regions.iter().map(|&(base, len)| scalar.memory().read_vec(base, len)).collect();

    let diverged = if adversarial { "silent-divergence" } else { "diverged" };
    for (name, cfg) in configs {
        let prog = ms_prog.clone();
        let cfg = *cfg;
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<Vec<u8>>, SimError> {
            let mut p = Processor::new(prog, cfg)?;
            p.run_checked()?;
            Ok(regions.iter().map(|&(base, len)| p.memory().read_vec(base, len)).collect())
        }));
        let mem = match run {
            Ok(Ok(mem)) => mem,
            Ok(Err(e @ SimError::Diverged { .. })) => {
                return CaseOutcome::fail(diverged, format!("{name}: {e}"));
            }
            Ok(Err(e)) => {
                return if adversarial {
                    CaseOutcome::pass("caught-runtime")
                } else {
                    CaseOutcome::fail("runtime-error", format!("{name}: {e}"))
                };
            }
            // A panic is a simulator bug whatever the annotations say,
            // never a catch.
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                return CaseOutcome::fail("panic", format!("{name}: panicked: {msg}"));
            }
        };
        for (ri, &(base, _)) in regions.iter().enumerate() {
            if let Some(i) = (0..mem[ri].len()).find(|&i| mem[ri][i] != sc_mem[ri][i]) {
                let (it, sc) = (mem[ri][i], sc_mem[ri][i]);
                let at = base + i as u32;
                let d = format!("{name}: memory byte {at:#x} is {it:#04x}, scalar has {sc:#04x}");
                return CaseOutcome::fail(diverged, d);
            }
        }
    }

    // $31 holds a return address; the multiscalar text carries
    // instructions the scalar text lacks (releases, boundary jumps), so
    // code addresses — and only code addresses — legitimately differ
    // between binaries.
    let walk = match walk_to_halt(ms_prog, "multiscalar", opts.max_cycles) {
        Ok(walk) => walk,
        Err(e) => return CaseOutcome::fail(diverged, e),
    };
    let (regs, sc_regs) = (walk.regs(), scalar.regs());
    if let Some(r) = (0..regs.len()).find(|&r| r != 31 && regs[r] != sc_regs[r]) {
        let (it, sc) = (regs[r], sc_regs[r]);
        let d = format!("walk: register ${r} is {it:#x}, scalar has {sc:#x}");
        return CaseOutcome::fail(diverged, d);
    }

    if adversarial {
        CaseOutcome::pass("harmless")
    } else {
        CaseOutcome::pass("ok")
    }
}

/// Walks `prog` to its halt within `limit` instructions in all.
fn walk_to_halt(prog: &Program, binary: &str, limit: u64) -> Result<SequentialWalk, String> {
    let mut walk = SequentialWalk::new(prog.clone());
    let mut left = limit;
    while !walk.halted() {
        match walk.next_task(left) {
            Ok((_, Some(n))) => left -= n,
            Ok((_, None)) => {
                return Err(format!("the {binary} binary did not halt in {limit} instructions"))
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(walk)
}
