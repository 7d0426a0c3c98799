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
use ms_isa::{MemWidth, PredecodedProgram, Program, Reg, RegMask, NUM_REGS, STACK_TOP};
use ms_memsys::{DataBanks, MemBus, Memory};
use ms_pipeline::{execute, extend_load, ExitKind, MemPorts, ProcessingUnit};

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
    /// Final register file of a [`ScalarProcessor::run_fast`] run (the
    /// fast path executes outside the pipeline's register file).
    fast_regs: Option<[u64; NUM_REGS]>,
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
        let mut mem = Memory::new();
        for seg in &prog.data {
            mem.write_slice(seg.base, &seg.bytes);
        }
        let mut unit = ProcessingUnit::new(0, cfg.unit_config());
        let mut boot = [0u64; NUM_REGS];
        boot[Reg::SP.index()] = STACK_TOP as u64;
        unit.assign_task(prog.entry, RegMask::EMPTY, &boot, RegMask::EMPTY, 0);
        let prog = PredecodedProgram::new(prog);
        Ok(ScalarProcessor {
            unit,
            mem,
            bus: MemBus::new(cfg.bus),
            banks: DataBanks::new(cfg.banks),
            now: 0,
            done: false,
            fast_regs: None,
            prog,
            cfg,
        })
    }

    /// Writes raw bytes into simulated memory (workload inputs).
    pub fn write_mem(&mut self, addr: u32, bytes: &[u8]) {
        self.mem.write_slice(addr, bytes);
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
        match &self.fast_regs {
            Some(regs) => {
                if r.is_zero() {
                    0
                } else {
                    regs[r.index()]
                }
            }
            None => self.unit.reg(r),
        }
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
        let c = self.unit.counters();
        let mut stats = RunStats {
            cycles: self.now + 1,
            instructions: c.instructions,
            tasks_retired: 1,
            ..RunStats::default()
        };
        stats.breakdown.useful = c.busy_cycles;
        stats.breakdown.no_comp_inter_task = c.inter_task_cycles;
        stats.breakdown.no_comp_intra_task = c.intra_task_cycles;
        stats.breakdown.no_comp_wait_retire = c.wait_retire_cycles;
        stats.dcache = self.banks.stats();
        stats.icache = self.unit.icache_stats();
        stats.bus = self.bus.stats();
        Ok(stats)
    }

    /// Greedy fast-forward run: executes the program architecturally —
    /// one instruction per loop iteration, no pipeline, cache, or bus
    /// modelling — and reports only what the differential oracle
    /// consumes: the final memory image, the final register file
    /// (served through [`ScalarProcessor::reg`]), and the exact retired
    /// instruction count.
    ///
    /// The timing fields of the returned [`RunStats`] are **not**
    /// meaningful (`cycles` equals `instructions`); anything that
    /// compares cycle counts — the benchmark tables, the CPI stacks —
    /// must use [`ScalarProcessor::run`]. `ms-fuzz`'s differential
    /// oracle is the intended caller: it only compares memory, registers
    /// and instruction counts, so the reference side can skip the
    /// microarchitecture entirely.
    ///
    /// # Errors
    /// Faults on fetch outside the text segment; times out after
    /// `max_cycles` *instructions* (the ticked bound is always at least
    /// as tight, since each instruction costs ≥ 1 cycle).
    pub fn run_fast(&mut self) -> Result<RunStats, SimError> {
        assert!(!self.done, "scalar processor already ran");
        let mut regs = [0u64; NUM_REGS];
        regs[Reg::SP.index()] = STACK_TOP as u64;
        let mut pc = self.prog.entry;
        let mut instructions = 0u64;
        loop {
            if instructions >= self.cfg.max_cycles {
                return Err(SimError::Timeout {
                    cycles: self.cfg.max_cycles,
                    snapshot: None,
                    history: Vec::new(),
                });
            }
            let Some((instr, _meta)) = self.prog.fetch(pc) else {
                return Err(SimError::Fault(format!(
                    "unit 0: instruction fetch outside text segment at {pc:#x}"
                )));
            };
            let outcome = execute(&instr, pc, |r| if r.is_zero() { 0 } else { regs[r.index()] });
            instructions += 1;
            if let Some((rd, v)) = outcome.writeback {
                if !rd.is_zero() {
                    regs[rd.index()] = v;
                }
            }
            if let Some(req) = outcome.mem {
                if req.is_store {
                    self.mem.write_le(req.addr, req.size, req.value);
                } else {
                    let raw = self.mem.read_le(req.addr, req.size);
                    let width = match req.size {
                        1 => MemWidth::B,
                        2 => MemWidth::H,
                        4 => MemWidth::W,
                        _ => MemWidth::D,
                    };
                    let v = extend_load(width, req.signed, raw);
                    let rd = req.dest.expect("loads have destinations");
                    if !rd.is_zero() {
                        regs[rd.index()] = v;
                    }
                }
            }
            if outcome.halt {
                break;
            }
            pc = match outcome.control {
                Some(c) => c.next_pc,
                None => pc + 4,
            };
        }
        self.done = true;
        self.fast_regs = Some(regs);
        Ok(RunStats { cycles: instructions, instructions, tasks_retired: 1, ..RunStats::default() })
    }
}
