//! A reference model of the ARB, and the differential tests that hold
//! [`Arb`] to it.
//!
//! The model is the ARB's specification. Its contract is the one
//! Transactional WaveCache gives speculative memory operations: they are
//! ordered by wave, here the stage's rank from the head, and a conflict
//! re-executes the later operation, here the violated stage. It keeps
//! everything per byte and recounts everything by brute force, uses
//! only the crate's public API, and shares no code with the ARB.
//!
//! Capacity is modelled as the ARB counts it, including the one
//! access that fails after recording part of itself (see
//! [`model_reproduces_the_non_atomic_line_crossing_failure`]).

use ms_memsys::{Arb, ArbFull, ArbStats, Memory};
use ms_trace::hash::splitmix64;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The ARB's observable behaviour, byte by byte.
struct Model {
    head: usize,
    nbanks: usize,
    capacity: usize,
    pressure: Option<usize>,
    /// Per stage: byte address -> the value it stored there.
    stores: Vec<BTreeMap<u32, u8>>,
    /// Per stage: bytes it loaded that its own stores did not supply.
    loads: Vec<BTreeSet<u32>>,
    stats: ArbStats,
}

/// The bytes of an access, grouped by 8-byte line in access order. An
/// access past the top of the address space wraps to address 0.
fn pieces(addr: u32, size: u32) -> Vec<(u32, Vec<u32>)> {
    let mut out: Vec<(u32, Vec<u32>)> = Vec::new();
    for a in (0..size).map(|i| addr.wrapping_add(i)) {
        match out.last_mut() {
            Some((line, bytes)) if *line == a >> 3 => bytes.push(a),
            _ => out.push((a >> 3, vec![a])),
        }
    }
    out
}

impl Model {
    fn new(nstages: usize, nbanks: usize, capacity: usize) -> Model {
        Model {
            head: 0,
            nbanks,
            capacity,
            pressure: None,
            stores: vec![BTreeMap::new(); nstages],
            loads: vec![BTreeSet::new(); nstages],
            stats: ArbStats::default(),
        }
    }

    fn rank(&self, stage: usize) -> usize {
        (stage + self.stores.len() - self.head) % self.stores.len()
    }

    fn stage_at(&self, rank: usize) -> usize {
        (self.head + rank) % self.stores.len()
    }

    /// Lines on which some stage, the head included, holds a bit.
    fn lines(&self) -> BTreeSet<u32> {
        let stored = self.stores.iter().flat_map(|s| s.keys());
        stored.chain(self.loads.iter().flatten()).map(|a| a >> 3).collect()
    }

    /// Banks interleave at 64-byte blocks, eight lines each.
    fn bank(&self, line: u32) -> usize {
        (line >> 3) as usize % self.nbanks
    }

    fn occupancy(&self, bank: usize) -> usize {
        self.lines().into_iter().filter(|&l| self.bank(l) == bank).count()
    }

    /// May `stage` record a bit on `line` now? A non-head stage may not
    /// take a line new to a bank that is already at capacity.
    fn admit(&mut self, stage: usize, line: u32) -> Result<(), ArbFull> {
        let bank = self.bank(line);
        let capacity = match self.pressure {
            Some(cap) => self.capacity.min(cap).max(1),
            None => self.capacity,
        };
        if self.rank(stage) != 0
            && !self.lines().contains(&line)
            && self.occupancy(bank) >= capacity
        {
            self.stats.full_events += 1;
            return Err(ArbFull { bank });
        }
        Ok(())
    }

    fn note_peak(&mut self) {
        let peak = (0..self.nbanks).map(|b| self.occupancy(b)).max().unwrap_or(0);
        self.stats.peak_bank_occupancy = self.stats.peak_bank_occupancy.max(peak);
    }

    /// Each byte comes from the stage's own store, else the nearest
    /// older stage's, else memory.
    fn load(
        &mut self,
        stage: usize,
        addr: u32,
        size: u32,
        mem: &Memory,
    ) -> Result<(u64, bool), ArbFull> {
        let rank = self.rank(stage);
        let (mut value, mut forwarded) = (0u64, false);
        for (i, a) in (0..size).map(|i| (i, addr.wrapping_add(i))) {
            let found = (0..=rank)
                .rev()
                .find_map(|r| self.stores[self.stage_at(r)].get(&a).map(|&b| (r, b)));
            let byte = match found {
                Some((r, b)) => {
                    forwarded |= r != rank;
                    b
                }
                None => mem.read_u8(a),
            };
            value |= u64::from(byte) << (8 * i);
        }
        if rank != 0 {
            // Checked against the occupancy before the access, then line
            // by line as each is recorded.
            for (line, _) in pieces(addr, size) {
                self.admit(stage, line)?;
            }
            for (line, bytes) in pieces(addr, size) {
                self.admit(stage, line)?;
                let exposed: Vec<u32> =
                    bytes.into_iter().filter(|a| !self.stores[stage].contains_key(a)).collect();
                self.loads[stage].extend(exposed);
                self.note_peak();
            }
        }
        self.stats.loads += 1;
        self.stats.load_forwards += u64::from(forwarded);
        Ok((value, forwarded))
    }

    /// Records the bytes, and reports in rank order every younger stage
    /// below `active` that loaded a stored byte which no strictly
    /// intervening stage has stored.
    fn store(
        &mut self,
        stage: usize,
        addr: u32,
        size: u32,
        value: u64,
        active: usize,
    ) -> Result<Vec<usize>, ArbFull> {
        for (line, _) in pieces(addr, size) {
            self.admit(stage, line)?;
        }
        let rank = self.rank(stage);
        let mut violated = Vec::new();
        for (line, bytes) in pieces(addr, size) {
            self.admit(stage, line)?;
            for &a in &bytes {
                self.stores[stage].insert(a, (value >> (8 * a.wrapping_sub(addr))) as u8);
            }
            self.note_peak();
            for younger in rank + 1..active {
                let s = self.stage_at(younger);
                let stale = bytes.iter().any(|a| {
                    self.loads[s].contains(a)
                        && !(rank + 1..younger)
                            .any(|r| self.stores[self.stage_at(r)].contains_key(a))
                });
                if stale && !violated.contains(&s) {
                    violated.push(s);
                }
            }
        }
        violated.sort_by_key(|&s| self.rank(s));
        self.stats.stores += 1;
        self.stats.violations += u64::from(!violated.is_empty());
        Ok(violated)
    }

    /// Writes the stage's stores to memory and returns their lines'
    /// addresses in ascending order.
    fn drain(&mut self, stage: usize, mem: &mut Memory) -> Vec<u32> {
        let stores = std::mem::take(&mut self.stores[stage]);
        self.loads[stage].clear();
        for (&a, &b) in &stores {
            mem.write_u8(a, b);
        }
        let lines: BTreeSet<u32> = stores.keys().map(|a| a & !7).collect();
        lines.into_iter().collect()
    }

    fn free(&mut self, stage: usize) {
        self.stores[stage].clear();
        self.loads[stage].clear();
    }
}

/// One step of a differential run.
#[derive(Clone, Copy, Debug)]
enum Op {
    Load { stage: usize, addr: u32, size: u32 },
    Store { stage: usize, addr: u32, size: u32, value: u64, active: usize },
    Head(usize),
    Free(usize),
    Drain(usize),
    Pressure(Option<usize>),
}

/// A seeded draw sequence.
struct Draws {
    seed: u64,
    n: u64,
}

impl Draws {
    fn below(&mut self, bound: u64) -> u64 {
        self.n += 1;
        splitmix64(self.seed ^ splitmix64(self.n)) % bound
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// Accesses start in three 96-byte windows, each across a bank
/// boundary: low memory (where top-of-memory accesses wrap to), one
/// across a page boundary, and the top of the address space.
const WINDOWS: [u32; 3] = [0x0, 0x1FD0, 0xFFFF_FFA0];
const WINDOW_BYTES: u32 = 96;

/// Every byte an access can touch: each window and the 7 bytes past it.
fn window_bytes() -> impl Iterator<Item = u32> {
    WINDOWS.iter().flat_map(|&w| (0..WINDOW_BYTES + 7).map(move |i| w.wrapping_add(i)))
}

/// What a set of runs reached, so that a run that stops reaching the
/// interesting cases fails instead of passing vacuously.
#[derive(Debug, Default)]
struct Reached {
    forwards: u64,
    violations: u64,
    full_events: u64,
    /// Failed accesses that left part of themselves behind.
    partial_failures: u64,
    drained_lines: u64,
    top_line_wraps: u64,
}

/// Runs `ops` against a fresh `Arb` and a fresh model, comparing every
/// outcome, every `ArbStats` field, every bank's occupancy and, after a
/// drain, the memory bytes. Returns the first difference.
fn run_differential(
    (nstages, nbanks, capacity): (usize, usize, usize),
    ops: &[Op],
    init: impl Fn(u32) -> u8,
    reached: &mut Reached,
) -> Result<(), String> {
    let mut arb = Arb::new(nstages, nbanks, capacity);
    let mut model = Model::new(nstages, nbanks, capacity);
    let (mut arb_mem, mut model_mem) = (Memory::new(), Memory::new());
    for a in window_bytes() {
        arb_mem.write_u8(a, init(a));
        model_mem.write_u8(a, init(a));
    }
    for (i, &op) in ops.iter().enumerate() {
        let fail = |what: String| {
            Err(format!("op {i} {op:?} on ({nstages}, {nbanks}, {capacity}): {what}"))
        };
        let occupancy_before = arb.total_occupancy();
        let failed = match op {
            Op::Load { stage, addr, size } => {
                let got = arb.load(stage, addr, size, &arb_mem).map(|r| (r.value, r.forwarded));
                let want = model.load(stage, addr, size, &model_mem);
                if got != want {
                    return fail(format!("load: arb {got:x?}, model {want:x?}"));
                }
                reached.forwards += u64::from(matches!(got, Ok((_, true))));
                got.is_err()
            }
            Op::Store { stage, addr, size, value, active } => {
                let got = arb.store(stage, addr, size, value, active);
                let want = model.store(stage, addr, size, value, active);
                if got != want {
                    return fail(format!("store: arb {got:?}, model {want:?}"));
                }
                got.is_err()
            }
            Op::Head(stage) => {
                arb.set_head(stage);
                model.head = stage;
                false
            }
            Op::Free(stage) => {
                arb.free_stage(stage);
                model.free(stage);
                false
            }
            Op::Drain(stage) => {
                let got = arb.drain_stage(stage, &mut arb_mem).to_vec();
                let want = model.drain(stage, &mut model_mem);
                if got != want {
                    return fail(format!("drain: arb {got:x?}, model {want:x?}"));
                }
                if let Some(a) =
                    window_bytes().find(|&a| arb_mem.read_u8(a) != model_mem.read_u8(a))
                {
                    return fail(format!("memory at {a:#x} after drain"));
                }
                reached.drained_lines += got.len() as u64;
                false
            }
            Op::Pressure(cap) => {
                arb.set_capacity_pressure(cap);
                model.pressure = cap;
                false
            }
        };
        if arb.stats() != model.stats {
            return fail(format!("stats: arb {:?}, model {:?}", arb.stats(), model.stats));
        }
        for bank in 0..nbanks {
            if arb.occupancy(bank) != model.occupancy(bank) {
                let (a, m) = (arb.occupancy(bank), model.occupancy(bank));
                return fail(format!("bank {bank} occupancy: arb {a}, model {m}"));
            }
        }
        if let Op::Load { addr, size, .. } | Op::Store { addr, size, .. } = op {
            reached.top_line_wraps += u64::from(addr.checked_add(size - 1).is_none());
        }
        reached.partial_failures += u64::from(failed && arb.total_occupancy() != occupancy_before);
    }
    reached.violations += model.stats.violations;
    reached.full_events += model.stats.full_events;
    Ok(())
}

/// The geometry and operation sequence drawn from `seed`: 1, 2, 4 and 8
/// stages in turn, 1, 2 or 4 banks, capacities from 1 line up, sizes 1,
/// 2, 4 and 8 at any alignment in the three windows.
fn seeded_case(seed: u64, len: usize) -> ((usize, usize, usize), Vec<Op>) {
    let mut d = Draws { seed, n: 0 };
    let nstages = [1, 2, 4, 8][seed as usize % 4];
    let nbanks = d.pick(&[1, 2, 4]);
    let capacity = d.pick(&[1, 3, 256, 256]);
    let ops = (0..len)
        .map(|_| {
            let stage = d.below(nstages as u64) as usize;
            // Half the accesses go to 16 bytes around a line boundary.
            let offset = match d.below(2) {
                0 => 36 + d.below(16),
                _ => d.below(u64::from(WINDOW_BYTES)),
            };
            let addr = d.pick(&WINDOWS).wrapping_add(offset as u32);
            let size = d.pick(&[1, 2, 4, 8]);
            match d.below(100) {
                0..=37 => Op::Load { stage, addr, size },
                38..=71 => {
                    let value = splitmix64(seed ^ d.below(u64::MAX));
                    let active = match d.below(4) {
                        0 => d.below(nstages as u64 + 1) as usize,
                        _ => nstages,
                    };
                    Op::Store { stage, addr, size, value, active }
                }
                72..=79 => Op::Head(stage),
                80..=86 => Op::Drain(stage),
                87..=93 => Op::Free(stage),
                _ => Op::Pressure(d.pick(&[None, None, Some(0), Some(1), Some(2)])),
            }
        })
        .collect();
    ((nstages, nbanks, capacity), ops)
}

fn seeded_byte(a: u32) -> u8 {
    splitmix64(u64::from(a)) as u8
}

#[test]
fn arb_matches_the_model_on_seeded_sequences() {
    let mut reached = Reached::default();
    for seed in 0..600u64 {
        let (geometry, ops) = seeded_case(seed, 160);
        if let Err(e) = run_differential(geometry, &ops, seeded_byte, &mut reached) {
            panic!("seed {seed}: {e}");
        }
    }
    // Every case the model distinguishes was reached, many times over.
    let Reached {
        forwards,
        violations,
        full_events,
        partial_failures,
        drained_lines,
        top_line_wraps,
    } = reached;
    assert!(forwards > 800 && violations > 500 && drained_lines > 5000, "{reached:?}");
    assert!(full_events > 5000 && top_line_wraps > 100 && partial_failures > 100, "{reached:?}");
}

/// A line-crossing access whose two lines are both new to one bank with
/// one place left passes the capacity check made before the access,
/// records its first line and then fails on the second.
#[test]
fn model_reproduces_the_non_atomic_line_crossing_failure() {
    let ops = [
        Op::Store { stage: 1, addr: 0x0, size: 4, value: 1, active: 2 },
        Op::Store { stage: 1, addr: 0x14, size: 8, value: 0x1122_3344_5566_7788, active: 2 },
        Op::Load { stage: 1, addr: 0x14, size: 4 },
    ];
    let mut reached = Reached::default();
    run_differential((2, 1, 2), &ops, |_| 0, &mut reached).unwrap();
    assert_eq!(reached.partial_failures, 1);

    let mut model = Model::new(2, 1, 2);
    let mem = Memory::new();
    model.store(1, 0x0, 4, 1, 2).unwrap();
    assert_eq!(model.store(1, 0x14, 8, 0x1122_3344_5566_7788, 2), Err(ArbFull { bank: 0 }));
    assert_eq!((model.occupancy(0), model.stats.full_events), (2, 1));
    assert_eq!(model.load(1, 0x14, 4, &mem), Ok((0x5566_7788, false)));
}

/// The seeded mutant (forwarding from the farthest older stage instead
/// of the nearest) must not survive the differential run.
#[cfg(feature = "arb-teeth")]
#[test]
fn seeded_arb_mutant_is_caught_by_the_model() {
    let mut reached = Reached::default();
    let caught = (0..600u64).find_map(|seed| {
        let (geometry, ops) = seeded_case(seed, 160);
        run_differential(geometry, &ops, seeded_byte, &mut reached).err()
    });
    let what = caught.expect("the seeded ARB mutant went undetected");
    assert!(what.contains("load: arb"), "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any interleaving of loads and stores issued in task order
    /// (earlier stages never issue after later stages touch the same
    /// data — the violation-free schedule), ARB loads equal the model's
    /// and no store reports a violation.
    #[test]
    fn arb_matches_sequential_oracle_on_ordered_schedules(
        ops in proptest::collection::vec(
            (0usize..4, any::<bool>(), 0u32..64, 1u32..=8, any::<u64>()),
            1..60
        )
    ) {
        let mut arb = Arb::new(4, 2, 256);
        let mut model = Model::new(4, 2, 256);
        let mut mem = Memory::new();
        for a in 0..80u32 {
            mem.write_u8(a, a as u8);
        }
        // Sort by stage so every access happens in task order: no
        // violations possible, loads must match the model exactly.
        let mut ops = ops;
        ops.sort_by_key(|&(stage, ..)| stage);
        for (stage, is_store, addr, size, value) in ops {
            let size = size.min(8);
            if is_store {
                let v = arb.store(stage, addr, size, value, 4).expect("capacity");
                prop_assert!(v.is_empty(), "ordered schedule must not violate");
                prop_assert_eq!(model.store(stage, addr, size, value, 4), Ok(v));
            } else {
                let got = arb.load(stage, addr, size, &mem).expect("capacity");
                let want = model.load(stage, addr, size, &mem).expect("capacity");
                prop_assert_eq!(got.value, want.0);
            }
        }
    }

    /// A later-task load followed by an earlier-task store to overlapping
    /// bytes is always reported as a violation of the loading task, by
    /// the ARB and by the model alike.
    #[test]
    fn arb_always_detects_reordered_conflicts(
        addr in 0u32..32,
        lsize in 1u32..=8,
        ssize in 1u32..=8,
        lstage in 1usize..4,
    ) {
        let mut arb = Arb::new(4, 2, 256);
        let mut model = Model::new(4, 2, 256);
        let mem = Memory::new();
        let _ = arb.load(lstage, addr, lsize, &mem).unwrap();
        let _ = model.load(lstage, addr, lsize, &mem).unwrap();
        // Head stores over the loaded bytes.
        let v = arb.store(0, addr, ssize, 0xff, 4).unwrap();
        prop_assert!(v.contains(&lstage), "violation of stage {} missing: {:?}", lstage, v);
        prop_assert_eq!(model.store(0, addr, ssize, 0xff, 4), Ok(v));
    }
}
