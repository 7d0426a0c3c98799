//! The scalar baseline processor.
//!
//! "The speedups are for a multiscalar processor compared to a scalar
//! processor, in which both use identical processing units" (Section 5.3).
//! This runs one [`ProcessingUnit`] over the *scalar* binary (no task
//! descriptors, no tag bits, no releases), with direct non-speculative
//! memory (no ARB) and the paper's 1-cycle data-cache hit time.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::stats::RunStats;
use crate::walk::boot;
use ms_isa::{PredecodedProgram, Program, Reg, RegMask};
use ms_memsys::{DataBanks, MemBus, Memory};
use ms_pipeline::{ExitKind, MemPorts, ProcessingUnit};

/// The scalar baseline.
pub struct ScalarProcessor {
    cfg: SimConfig,
    prog: PredecodedProgram,
    unit: ProcessingUnit,
    mem: Memory,
    bus: MemBus,
    banks: DataBanks,
    now: u64,
    done: bool,
}

impl ScalarProcessor {
    /// Builds a scalar processor for `prog` (assembled in scalar mode).
    ///
    /// # Errors
    /// Returns [`SimError::BadProgram`] for an empty program.
    pub fn new(prog: Program, cfg: SimConfig) -> Result<ScalarProcessor, SimError> {
        if prog.text.is_empty() {
            return Err(SimError::BadProgram("empty text segment".into()));
        }
        let (mem, regs) = boot(&prog);
        let mut unit = ProcessingUnit::new(0, cfg.unit_config());
        unit.assign_task(prog.entry, RegMask::EMPTY, &regs, RegMask::EMPTY, 0);
        let prog = PredecodedProgram::new(prog);
        Ok(ScalarProcessor {
            unit,
            mem,
            bus: MemBus::new(cfg.bus),
            banks: DataBanks::new(cfg.banks),
            now: 0,
            done: false,
            prog,
            cfg,
        })
    }

    /// The architectural memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        self.prog.program()
    }

    /// Reads a register (after a run, the final architectural value).
    pub fn reg(&self, r: Reg) -> u64 {
        self.unit.reg(r)
    }

    /// Runs to the `halt` instruction.
    ///
    /// # Errors
    /// Propagates unit faults and the cycle bound.
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        assert!(!self.done, "scalar processor already ran");
        let mut halted = false;
        loop {
            if self.now >= self.cfg.max_cycles {
                return Err(SimError::Timeout {
                    cycles: self.cfg.max_cycles,
                    snapshot: None,
                    history: Vec::new(),
                });
            }
            let mut ports = MemPorts {
                mem: &mut self.mem,
                bus: &mut self.bus,
                banks: &mut self.banks,
                arb: None,
                stage: 0,
                active_ranks: 1,
            };
            let out = self.unit.tick(self.now, &self.prog, &mut ports);
            if let Some(f) = self.unit.fault() {
                return Err(SimError::Fault(f.to_owned()));
            }
            if out.exit == Some(ExitKind::Halt) {
                halted = true;
            }
            if halted && self.unit.is_complete(self.now) {
                break;
            }
            self.now += 1;
        }
        self.done = true;
        let mut stats = RunStats { cycles: self.now + 1, ..RunStats::default() };
        stats.charge_retired(&self.unit.counters());
        stats.dcache = self.banks.stats();
        stats.icache = self.unit.icache_stats();
        stats.bus = self.bus.stats();
        Ok(stats)
    }
}
