//! The Address Resolution Buffer (ARB).
//!
//! Franklin & Sohi's ARB (paper Section 2.3) holds the speculative memory
//! operations of all active tasks: "the values corresponding to these
//! operations reside in the ARB and update the data cache as their status
//! changes from speculative to non-speculative. In addition to providing
//! storage for speculative operations, the ARB tracks the units which
//! performed the operations with load and store bits. A memory dependence
//! violation is detected by checking these bits (if a load from a
//! successor unit occurred before a store from a predecessor unit, a
//! memory dependence was violated)."
//!
//! This implementation tracks state at byte granularity within 8-byte
//! lines, one *stage* per processing unit:
//!
//! * a **load** gathers each byte from the nearest predecessor stage (in
//!   task order) holding a speculative store to it, else from memory, and
//!   sets the stage's load bit for bytes not satisfied by the task's own
//!   stores;
//! * a **store** records its bytes and reports every successor stage whose
//!   recorded loads overlap the stored bytes without an intervening store
//!   — those tasks consumed stale values and must be squashed;
//! * **retiring** a task drains its stores to memory; **squashing** a task
//!   discards its stage wholesale.
//!
//! Lines are interleaved across banks of bounded capacity; allocations
//! beyond capacity fail for speculative stages (the caller stalls the
//! unit), while the head stage may always allocate — "the head which does
//! not require ARB storage is not squashed" and must always make progress.
//!
//! Storage: one index maps each resident line to a *slot*, and a flat
//! slab holds every slot's `nstages` stage states. Each stage keeps its
//! *footprint*, the slots where it holds a bit, so retiring or squashing
//! a task visits only that task's lines; a slot no stage holds any more
//! leaves the index and is reused. `crates/memsys/tests/arb_model.rs`
//! holds the reference model this behaviour is specified by.

use crate::mem::Memory;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic multiplicative hasher for the 4-byte line keys.
///
/// SipHash (the `HashMap` default) costs more than the rest of an ARB
/// probe for keys this small. Line numbers are dense and sequential-ish;
/// a Fibonacci multiply plus a fold of the high bits spreads them well,
/// and nothing iterates the index, so its order never matters.
#[derive(Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        let h = (self.0 ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Resident line → its slot.
type LineIndex = HashMap<u32, u32, BuildHasherDefault<LineHasher>>;

/// Byte `i` of `BYTE_MASK[m]` is `0xFF` exactly when bit `i` of `m` is
/// set: a line's byte mask widened to a mask over its 8-byte word.
const BYTE_MASK: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut i = 0;
        while i < 8 {
            if m & (1 << i) != 0 {
                table[m] |= 0xFF << (8 * i);
            }
            i += 1;
        }
        m += 1;
    }
    table
};

/// Error returned when a speculative access cannot allocate ARB space.
///
/// The caller should stall the issuing (non-head) unit and retry; this is
/// the paper's "less drastic alternative" to squashing on ARB overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbFull {
    /// The bank that was full.
    pub bank: usize,
}

impl fmt::Display for ArbFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ARB bank {} is full", self.bank)
    }
}

impl std::error::Error for ArbFull {}

/// Statistics accumulated by the ARB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArbStats {
    /// Loads processed.
    pub loads: u64,
    /// Stores processed.
    pub stores: u64,
    /// Loads that obtained at least one byte from a predecessor's
    /// speculative store (memory renaming / forwarding).
    pub load_forwards: u64,
    /// Memory-order violations detected.
    pub violations: u64,
    /// Allocation failures (bank full).
    pub full_events: u64,
    /// Peak entries resident in any single bank.
    pub peak_bank_occupancy: usize,
}

/// One stage's bits and stored bytes on one line.
#[derive(Clone, Copy, Default)]
struct StageState {
    load_mask: u8,
    store_mask: u8,
    bytes: [u8; 8],
}

impl StageState {
    fn is_empty(&self) -> bool {
        self.load_mask == 0 && self.store_mask == 0
    }
}

/// A slot's line and the number of stages holding a bit on it.
#[derive(Clone, Copy)]
struct Slot {
    line: u32,
    holders: u32,
}

/// The Address Resolution Buffer.
pub struct Arb {
    nstages: usize,
    capacity_per_bank: usize,
    /// Temporary capacity-pressure cap (chaos injection); `None` in
    /// normal operation.
    pressure_cap: Option<usize>,
    head: usize,
    index: LineIndex,
    /// `nstages` states per slot; slot `s`'s start at `s * nstages`.
    states: Vec<StageState>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Per stage: the slots where it holds a bit, each once.
    footprints: Vec<Vec<u32>>,
    /// Per bank: resident lines.
    bank_occupancy: Vec<usize>,
    /// The lines the last [`Arb::drain_stage`] wrote.
    drained: Vec<u32>,
    stats: ArbStats,
}

/// The result of an ARB load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadResult {
    /// The loaded value (zero-extended little-endian bytes).
    pub value: u64,
    /// Whether any byte was forwarded from a speculative store.
    pub forwarded: bool,
}

impl Arb {
    /// Builds an ARB with one stage per processing unit, `nbanks` banks of
    /// `capacity_per_bank` 8-byte lines each (the paper uses 256 per
    /// bank).
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(nstages: usize, nbanks: usize, capacity_per_bank: usize) -> Arb {
        assert!(nstages > 0 && nbanks > 0 && capacity_per_bank > 0);
        Arb {
            nstages,
            capacity_per_bank,
            pressure_cap: None,
            head: 0,
            index: LineIndex::default(),
            states: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            footprints: vec![Vec::new(); nstages],
            bank_occupancy: vec![0; nbanks],
            drained: Vec::new(),
            stats: ArbStats::default(),
        }
    }

    /// Applies (or with `None` lifts) a temporary capacity-pressure cap
    /// on entries per bank (chaos injection). The effective capacity
    /// never drops below 1, and the head stage may always allocate, so
    /// the Stall overflow policy cannot deadlock under pressure.
    pub fn set_capacity_pressure(&mut self, cap: Option<usize>) {
        self.pressure_cap = cap;
    }

    /// The bank capacity currently in force.
    fn effective_capacity(&self) -> usize {
        match self.pressure_cap {
            Some(cap) => self.capacity_per_bank.min(cap).max(1),
            None => self.capacity_per_bank,
        }
    }

    /// Number of stages (processing units).
    pub fn stages(&self) -> usize {
        self.nstages
    }

    /// Sets which stage is the current head task.
    pub fn set_head(&mut self, head: usize) {
        assert!(head < self.nstages);
        self.head = head;
    }

    /// Task-order rank of `stage` (0 = head).
    fn rank(&self, stage: usize) -> usize {
        (stage + self.nstages - self.head) % self.nstages
    }

    fn bank_of(&self, line: u32) -> usize {
        // Lines are 8 bytes; banks are interleaved at 64-byte cache-block
        // granularity, matching `DataBanks::bank_of`.
        ((line >> 3) as usize) % self.bank_occupancy.len()
    }

    /// Bytes a size-`n` access at `addr` touches within each 8-byte line.
    ///
    /// Yields `(line, byte_mask, first_byte_offset_within_access)`. An
    /// access of at most 8 bytes covers at most two lines, so this is a
    /// fixed-size, allocation-free iterator — it sits on the path of
    /// every simulated load and store. Like [`Memory::read_le`], an
    /// access past the top of the address space wraps to address 0: its
    /// second piece is line 0.
    fn split(addr: u32, size: u32) -> impl Iterator<Item = (u32, u8, u32)> {
        let mask = |first: u32, len: u32| (((1u16 << len) - 1) << first) as u8;
        let line = addr >> 3;
        let off = addr & 7;
        let head = size.min(8 - off);
        let pieces = [
            (line, mask(off, head), 0),
            ((line + 1) & (u32::MAX >> 3), mask(0, size - head), head),
        ];
        pieces.into_iter().take(if head < size { 2 } else { 1 })
    }

    /// The slot of each line of an access, `None` for a line no stage
    /// holds: the one index lookup per line an access makes.
    fn lookup(&self, addr: u32, size: u32) -> [Option<u32>; 2] {
        let mut slots = [None; 2];
        for (slot, (line, _, _)) in slots.iter_mut().zip(Self::split(addr, size)) {
            *slot = self.index.get(&line).copied();
        }
        slots
    }

    /// Checks, against the occupancy before the access, that a stage of
    /// rank `rank` may take every line `slots` finds new. Each line is
    /// checked again when it is taken (see [`Arb::allocate`]).
    fn check_capacity(
        &mut self,
        rank: usize,
        addr: u32,
        size: u32,
        slots: [Option<u32>; 2],
    ) -> Result<(), ArbFull> {
        if rank == 0 {
            return Ok(());
        }
        let capacity = self.effective_capacity();
        for ((line, _, _), slot) in Self::split(addr, size).zip(slots) {
            let bank = self.bank_of(line);
            if slot.is_none() && self.bank_occupancy[bank] >= capacity {
                self.stats.full_events += 1;
                return Err(ArbFull { bank });
            }
        }
        Ok(())
    }

    /// Takes a slot for `line`, which no stage holds. The head may always
    /// allocate; any other stage fails on a full bank.
    ///
    /// This check is what keeps a failed access from being atomic: a
    /// line-crossing access whose two lines are both new to one bank
    /// with one place left passes [`Arb::check_capacity`], records its
    /// first line here, and then fails on its second.
    fn allocate(&mut self, line: u32, at_head: bool) -> Result<u32, ArbFull> {
        let bank = self.bank_of(line);
        if !at_head && self.bank_occupancy[bank] >= self.effective_capacity() {
            self.stats.full_events += 1;
            return Err(ArbFull { bank });
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Slot { line, holders: 0 };
                slot
            }
            None => {
                self.slots.push(Slot { line, holders: 0 });
                self.states.resize(self.states.len() + self.nstages, StageState::default());
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(line, slot);
        self.bank_occupancy[bank] += 1;
        self.stats.peak_bank_occupancy =
            self.stats.peak_bank_occupancy.max(self.bank_occupancy[bank]);
        Ok(slot)
    }

    /// `stage`'s state on `slot`, entered in the stage's footprint the
    /// first time the stage is about to hold a bit there.
    fn held_state(&mut self, slot: u32, stage: usize) -> &mut StageState {
        let i = slot as usize * self.nstages + stage;
        if self.states[i].is_empty() {
            self.footprints[stage].push(slot);
            self.slots[slot as usize].holders += 1;
        }
        &mut self.states[i]
    }

    /// Clears `stage`'s state on every slot of its footprint, writing its
    /// stored bytes to `mem` (and their lines to `drained`) when given
    /// one. A slot no stage holds any more is freed.
    fn clear_stage(&mut self, stage: usize, mut mem: Option<&mut Memory>) {
        assert!(stage < self.nstages);
        let mut footprint = std::mem::take(&mut self.footprints[stage]);
        for &slot in &footprint {
            let Slot { line, holders } = self.slots[slot as usize];
            let st = std::mem::take(&mut self.states[slot as usize * self.nstages + stage]);
            if let Some(mem) = mem.as_deref_mut() {
                if st.store_mask != 0 {
                    write_stored_bytes(mem, line, st);
                    self.drained.push(line << 3);
                }
            }
            if holders == 1 {
                self.index.remove(&line);
                let bank = self.bank_of(line);
                self.bank_occupancy[bank] -= 1;
                self.free_slots.push(slot);
            }
            self.slots[slot as usize].holders = holders - 1;
        }
        footprint.clear();
        self.footprints[stage] = footprint;
    }

    /// Performs a speculative load of `size` bytes at `addr` by `stage`.
    ///
    /// # Errors
    /// Returns [`ArbFull`] when the load must record a load bit but its
    /// bank is full (never for the head stage).
    ///
    /// # Panics
    /// Panics if `size` is 0 or greater than 8, or `stage` out of range.
    pub fn load(
        &mut self,
        stage: usize,
        addr: u32,
        size: u32,
        mem: &Memory,
    ) -> Result<LoadResult, ArbFull> {
        assert!(stage < self.nstages, "stage {stage} out of range");
        assert!((1..=8).contains(&size), "load size {size}");
        let my_rank = self.rank(stage);
        let slots = self.lookup(addr, size);
        if my_rank == 0 && slots == [None; 2] {
            // Head fast path: the head records no load bits, so with no
            // ARB entry on any touched line the whole access is a plain
            // memory read — the common case for non-speculative traffic.
            self.stats.loads += 1;
            return Ok(LoadResult { value: mem.read_le(addr, size), forwarded: false });
        }
        self.check_capacity(my_rank, addr, size, slots)?;

        let mut value = 0u64;
        let mut forwarded = false;
        for ((line, mask, chunk_off), slot) in Self::split(addr, size).zip(slots) {
            let first = mask.trailing_zeros();
            // The line's bytes as one little-endian word, resolved by
            // scanning ranks nearest-first as bit masks: each stage claims
            // whatever still-unresolved bytes its store mask covers,
            // exactly reproducing the per-byte "nearest store at or before
            // our rank" rule.
            let mut word = 0u64;
            let mut remaining = mask;
            let mut from_own = 0u8;
            if let Some(slot) = slot {
                let states = &self.states[slot as usize * self.nstages..][..self.nstages];
                for back in 0..=my_rank {
                    if remaining == 0 {
                        break;
                    }
                    // The seeded mutant forwards from the farthest older
                    // stage instead of the nearest.
                    let r = if cfg!(feature = "arb-teeth") && back > 0 {
                        back - 1
                    } else {
                        my_rank - back
                    };
                    let st = &states[(self.head + r) % self.nstages];
                    let hit = st.store_mask & remaining;
                    if hit != 0 {
                        if back == 0 {
                            from_own = hit;
                        } else {
                            forwarded = true;
                        }
                        word |= u64::from_le_bytes(st.bytes) & BYTE_MASK[hit as usize];
                        remaining &= !hit;
                    }
                }
            }
            // Bytes no stage stored come from memory: the access's bytes
            // in this line are contiguous, so one read serves them.
            if remaining != 0 {
                let base = (line << 3) | first;
                word |= (mem.read_le(base, mask.count_ones()) << (8 * first))
                    & BYTE_MASK[remaining as usize];
            }
            value |= (word >> (8 * first)) << (8 * chunk_off);
            // Every byte not supplied by our own store records a load bit
            // (the violation-detection footprint); the head never does.
            let need_load_bits = mask & !from_own;
            if my_rank != 0 && need_load_bits != 0 {
                let slot = match slot {
                    Some(slot) => slot,
                    None => self.allocate(line, false)?,
                };
                self.held_state(slot, stage).load_mask |= need_load_bits;
            }
        }
        self.stats.loads += 1;
        if forwarded {
            self.stats.load_forwards += 1;
        }
        Ok(LoadResult { value, forwarded })
    }

    /// Performs a speculative store of the low `size` bytes of `value` at
    /// `addr` by `stage`. Returns the stages (unit indices) whose earlier
    /// loads are violated by this store, in task order from earliest.
    ///
    /// # Errors
    /// Returns [`ArbFull`] when a line cannot be allocated (never for the
    /// head stage).
    ///
    /// # Panics
    /// Panics if `size` is 0 or greater than 8, or `stage` out of range.
    pub fn store(
        &mut self,
        stage: usize,
        addr: u32,
        size: u32,
        value: u64,
        active_ranks: usize,
    ) -> Result<Vec<usize>, ArbFull> {
        assert!(stage < self.nstages, "stage {stage} out of range");
        assert!((1..=8).contains(&size), "store size {size}");
        let my_rank = self.rank(stage);
        let slots = self.lookup(addr, size);
        self.check_capacity(my_rank, addr, size, slots)?;

        let mut violated: Vec<usize> = Vec::new();
        for ((line, mask, chunk_off), slot) in Self::split(addr, size).zip(slots) {
            let slot = match slot {
                Some(slot) => slot,
                None => self.allocate(line, my_rank == 0)?,
            };
            // Record the store bytes.
            let word_mask = BYTE_MASK[mask as usize];
            let stored = (value >> (8 * chunk_off)) << (8 * mask.trailing_zeros());
            let st = self.held_state(slot, stage);
            st.bytes =
                ((u64::from_le_bytes(st.bytes) & !word_mask) | (stored & word_mask)).to_le_bytes();
            st.store_mask |= mask;
            // Check successor loads: a successor's load bit on a byte we
            // just stored means it read a stale value, unless a store by a
            // strictly intervening task supplied that byte.
            let states = &self.states[slot as usize * self.nstages..][..self.nstages];
            let mut covered = 0u8;
            for succ_rank in my_rank + 1..active_ranks {
                let s = (self.head + succ_rank) % self.nstages;
                if states[s].load_mask & mask & !covered != 0 && !violated.contains(&s) {
                    violated.push(s);
                }
                covered |= states[s].store_mask;
            }
        }
        self.stats.stores += 1;
        if !violated.is_empty() {
            self.stats.violations += 1;
            let head = self.head;
            let n = self.nstages;
            violated.sort_by_key(|&s| (s + n - head) % n);
        }
        Ok(violated)
    }

    /// [`Arb::load`] with trace instrumentation: emits an `ArbLoad` on
    /// success (noting forwarding) or an `ArbFullStall` on allocation
    /// failure, timestamped `now`.
    pub fn load_traced<S: ms_trace::TraceSink>(
        &mut self,
        now: u64,
        stage: usize,
        addr: u32,
        size: u32,
        mem: &Memory,
        sink: &mut S,
    ) -> Result<LoadResult, ArbFull> {
        let result = self.load(stage, addr, size, mem);
        if S::ENABLED {
            match &result {
                Ok(r) => sink.event(&ms_trace::TraceEvent::ArbLoad {
                    cycle: now,
                    unit: stage,
                    addr,
                    size,
                    forwarded: r.forwarded,
                }),
                Err(_) => sink.event(&ms_trace::TraceEvent::ArbFullStall {
                    cycle: now,
                    unit: stage,
                    addr,
                    is_store: false,
                }),
            }
        }
        result
    }

    /// [`Arb::store`] with trace instrumentation: emits an `ArbStore` on
    /// success plus one `ArbViolation` per squash-worthy stage, or an
    /// `ArbFullStall` on allocation failure, timestamped `now`.
    #[allow(clippy::too_many_arguments)] // mirrors `store` plus (now, sink)
    pub fn store_traced<S: ms_trace::TraceSink>(
        &mut self,
        now: u64,
        stage: usize,
        addr: u32,
        size: u32,
        value: u64,
        active_ranks: usize,
        sink: &mut S,
    ) -> Result<Vec<usize>, ArbFull> {
        let result = self.store(stage, addr, size, value, active_ranks);
        if S::ENABLED {
            match &result {
                Ok(violated) => {
                    sink.event(&ms_trace::TraceEvent::ArbStore {
                        cycle: now,
                        unit: stage,
                        addr,
                        size,
                        violated: !violated.is_empty(),
                    });
                    for &v in violated {
                        sink.event(&ms_trace::TraceEvent::ArbViolation {
                            cycle: now,
                            store_unit: stage,
                            violated_unit: v,
                            addr,
                        });
                    }
                }
                Err(_) => sink.event(&ms_trace::TraceEvent::ArbFullStall {
                    cycle: now,
                    unit: stage,
                    addr,
                    is_store: true,
                }),
            }
        }
        result
    }

    /// Clears all ARB state for `stage` (task squashed). Entries that
    /// become empty are reclaimed.
    pub fn free_stage(&mut self, stage: usize) {
        self.clear_stage(stage, None);
    }

    /// Drains `stage`'s speculative stores to memory (task retired) and
    /// clears the stage. Returns the 8-byte-line addresses written, in
    /// ascending order, for the caller's cache/bandwidth modelling: a
    /// buffer the ARB reuses at the next drain.
    pub fn drain_stage(&mut self, stage: usize, mem: &mut Memory) -> &[u32] {
        self.drained.clear();
        self.clear_stage(stage, Some(mem));
        // Deterministic drain order regardless of footprint order.
        self.drained.sort_unstable();
        &self.drained
    }

    /// Entries currently resident in `bank`.
    pub fn occupancy(&self, bank: usize) -> usize {
        self.bank_occupancy[bank]
    }

    /// Total entries across banks.
    pub fn total_occupancy(&self) -> usize {
        self.index.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ArbStats {
        self.stats
    }
}

/// Writes the bytes `st` stored on `line` to `mem`, one write per run of
/// consecutive bytes.
fn write_stored_bytes(mem: &mut Memory, line: u32, st: StageState) {
    let word = u64::from_le_bytes(st.bytes);
    let mut rest = st.store_mask;
    while rest != 0 {
        let first = rest.trailing_zeros();
        let len = (rest >> first).trailing_ones();
        mem.write_le((line << 3) | first, len, word >> (8 * first));
        rest &= !((((1u16 << len) - 1) << first) as u8);
    }
}

impl fmt::Debug for Arb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arb")
            .field("stages", &self.nstages)
            .field("banks", &self.bank_occupancy.len())
            .field("head", &self.head)
            .field("occupancy", &self.total_occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb4() -> (Arb, Memory) {
        (Arb::new(4, 2, 256), Memory::new())
    }

    #[test]
    fn load_reads_memory_when_no_stores() {
        let (mut arb, mut mem) = arb4();
        mem.write_le(0x100, 4, 0xdead_beef);
        let r = arb.load(1, 0x100, 4, &mem).unwrap();
        assert_eq!(r.value, 0xdead_beef);
        assert!(!r.forwarded);
    }

    #[test]
    fn store_forwards_to_successor_load() {
        let (mut arb, mem) = arb4();
        // Task order: unit0 (head) stores, unit1 loads.
        arb.store(0, 0x100, 4, 0x1234_5678, 2).unwrap();
        let r = arb.load(1, 0x100, 4, &mem).unwrap();
        assert_eq!(r.value, 0x1234_5678);
        assert!(r.forwarded);
        assert_eq!(arb.stats().load_forwards, 1);
    }

    #[test]
    fn own_store_beats_predecessor_store() {
        let (mut arb, mem) = arb4();
        arb.store(0, 0x100, 4, 0xaaaa_aaaa, 2).unwrap();
        arb.store(1, 0x100, 4, 0xbbbb_bbbb, 2).unwrap();
        let r = arb.load(1, 0x100, 4, &mem).unwrap();
        assert_eq!(r.value, 0xbbbb_bbbb);
    }

    #[test]
    fn late_store_detects_violation() {
        let (mut arb, mem) = arb4();
        // Successor (unit 2) loads first...
        let r = arb.load(2, 0x200, 4, &mem).unwrap();
        assert_eq!(r.value, 0);
        // ...then predecessor (unit 0 = head) stores: violation of unit 2.
        let v = arb.store(0, 0x200, 4, 7, 3).unwrap();
        assert_eq!(v, vec![2]);
        assert_eq!(arb.stats().violations, 1);
    }

    #[test]
    fn proper_order_is_not_a_violation() {
        let (mut arb, mem) = arb4();
        arb.store(0, 0x200, 4, 7, 3).unwrap();
        let r = arb.load(2, 0x200, 4, &mem).unwrap();
        assert_eq!(r.value, 7);
        // A later store by the head to a *different* address is fine.
        let v = arb.store(0, 0x300, 4, 9, 3).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn intervening_store_masks_violation() {
        let (mut arb, mem) = arb4();
        // Unit 1 stores, unit 2 loads (reads unit 1's value).
        arb.store(1, 0x80, 4, 42, 3).unwrap();
        let r = arb.load(2, 0x80, 4, &mem).unwrap();
        assert_eq!(r.value, 42);
        // Head (unit 0) now stores the same address: unit 2's load got its
        // value from unit 1, which intervenes — no violation.
        let v = arb.store(0, 0x80, 4, 7, 3).unwrap();
        assert!(v.is_empty(), "{v:?}");
        // But unit 1's own read state: unit 1 never loaded, so nothing.
    }

    #[test]
    fn partial_byte_overlap_violates() {
        let (mut arb, mem) = arb4();
        let _ = arb.load(1, 0x102, 1, &mem).unwrap();
        // A 4-byte store covering 0x100..0x104 overlaps the loaded byte.
        let v = arb.store(0, 0x100, 4, 0xffff_ffff, 2).unwrap();
        assert_eq!(v, vec![1]);
    }

    #[test]
    fn own_load_after_own_store_sets_no_load_bit() {
        let (mut arb, mem) = arb4();
        arb.store(1, 0x100, 4, 5, 2).unwrap();
        let _ = arb.load(1, 0x100, 4, &mem).unwrap();
        // Head store should NOT violate unit 1: its load was satisfied by
        // its own store.
        let v = arb.store(0, 0x100, 4, 9, 2).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn head_loads_never_allocate() {
        let (mut arb, mem) = arb4();
        let _ = arb.load(0, 0x100, 4, &mem).unwrap();
        assert_eq!(arb.total_occupancy(), 0);
    }

    #[test]
    fn unaligned_access_spans_lines() {
        let (mut arb, mut mem) = arb4();
        mem.write_le(0x104, 8, 0x1122_3344_5566_7788);
        let r = arb.load(1, 0x104, 8, &mem).unwrap();
        assert_eq!(r.value, 0x1122_3344_5566_7788);
        // Store spanning two lines, then read back.
        arb.store(1, 0x104, 8, 0xaabb_ccdd_eeff_0011, 2).unwrap();
        let r = arb.load(2, 0x104, 8, &mem).unwrap();
        assert_eq!(r.value, 0xaabb_ccdd_eeff_0011);
    }

    #[test]
    fn drain_writes_memory_and_clears() {
        let (mut arb, mut mem) = arb4();
        arb.store(0, 0x100, 4, 0xcafe_f00d, 1).unwrap();
        let lines = arb.drain_stage(0, &mut mem);
        assert_eq!(lines, vec![0x100]);
        assert_eq!(mem.read_le(0x100, 4), 0xcafe_f00d);
        assert_eq!(arb.total_occupancy(), 0);
    }

    #[test]
    fn squash_discards_stores() {
        let (mut arb, mut mem) = arb4();
        arb.store(1, 0x100, 4, 0xbad, 2).unwrap();
        arb.free_stage(1);
        assert_eq!(arb.total_occupancy(), 0);
        let r = arb.load(2, 0x100, 4, &mem).unwrap();
        assert_eq!(r.value, 0);
        let _ = arb.drain_stage(1, &mut mem);
        assert_eq!(mem.read_le(0x100, 4), 0);
    }

    #[test]
    fn capacity_limits_speculative_stages_only() {
        let mut arb = Arb::new(2, 1, 2);
        // Fill the single bank (capacity 2 lines) from the speculative
        // stage 1.
        arb.store(1, 0x0, 4, 1, 2).unwrap();
        arb.store(1, 0x8, 4, 1, 2).unwrap();
        let e = arb.store(1, 0x10, 4, 1, 2).unwrap_err();
        assert_eq!(e.bank, 0);
        assert!(arb.stats().full_events >= 1);
        // The head may exceed capacity.
        arb.store(0, 0x10, 4, 1, 2).unwrap();
    }

    #[test]
    fn line_crossing_access_can_fail_after_recording_its_first_line() {
        // Both lines of the 8-byte store are new to the one bank, which
        // has one place left: the check before the access passes, the
        // first line is recorded, and the second fails.
        let mut arb = Arb::new(2, 1, 2);
        let mem = Memory::new();
        arb.store(1, 0x0, 4, 1, 2).unwrap();
        assert_eq!(arb.store(1, 0x14, 8, 0x1122_3344_5566_7788, 2), Err(ArbFull { bank: 0 }));
        assert_eq!((arb.occupancy(0), arb.stats().full_events, arb.stats().stores), (2, 1, 1));
        assert_eq!(arb.load(1, 0x14, 4, &mem).unwrap().value, 0x5566_7788);
    }

    #[test]
    fn capacity_pressure_tightens_and_lifts() {
        let mut arb = Arb::new(2, 1, 4);
        arb.set_capacity_pressure(Some(1));
        arb.store(1, 0x0, 4, 1, 2).unwrap();
        // Second line exceeds the pressured capacity for a speculative
        // stage...
        assert!(arb.store(1, 0x8, 4, 1, 2).is_err());
        // ...but the head may always allocate.
        arb.store(0, 0x8, 4, 1, 2).unwrap();
        // Lifting the pressure restores the real capacity.
        arb.set_capacity_pressure(None);
        arb.store(1, 0x10, 4, 1, 2).unwrap();
        // A zero cap clamps to 1: existing lines remain usable.
        arb.set_capacity_pressure(Some(0));
        arb.store(1, 0x0, 4, 2, 2).unwrap();
    }

    #[test]
    fn rank_respects_head_rotation() {
        let (mut arb, mem) = arb4();
        arb.set_head(2); // task order: 2, 3, 0, 1
        let _ = arb.load(0, 0x40, 4, &mem).unwrap(); // rank 2
        let v = arb.store(3, 0x40, 4, 5, 4).unwrap(); // rank 1 < 2: violation
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn violations_sorted_in_task_order() {
        let (mut arb, mem) = arb4();
        let _ = arb.load(2, 0x40, 4, &mem).unwrap();
        let _ = arb.load(1, 0x40, 4, &mem).unwrap();
        let _ = arb.load(3, 0x40, 4, &mem).unwrap();
        let v = arb.store(0, 0x40, 4, 5, 4).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }
}

#[cfg(test)]
mod matrix_tests {
    //! Systematic load/store interleaving matrices across stages.
    use super::*;

    #[test]
    fn forwarding_prefers_nearest_predecessor() {
        let mut arb = Arb::new(4, 2, 256);
        let mem = Memory::new();
        arb.store(0, 0x40, 4, 0xaaaa, 4).unwrap();
        arb.store(1, 0x40, 4, 0xbbbb, 4).unwrap();
        arb.store(2, 0x40, 4, 0xcccc, 4).unwrap();
        // Stage 3 sees stage 2's value; stage 1 sees its own.
        assert_eq!(arb.load(3, 0x40, 4, &mem).unwrap().value, 0xcccc);
        assert_eq!(arb.load(1, 0x40, 4, &mem).unwrap().value, 0xbbbb);
        assert_eq!(arb.load(0, 0x40, 4, &mem).unwrap().value, 0xaaaa);
    }

    #[test]
    fn byte_merge_across_predecessors_and_memory() {
        let mut arb = Arb::new(4, 2, 256);
        let mut mem = Memory::new();
        mem.write_le(0x80, 8, 0x8877_6655_4433_2211);
        arb.store(0, 0x80, 2, 0xaabb, 3).unwrap(); // bytes 0-1 from head
        arb.store(1, 0x83, 1, 0xcc, 3).unwrap(); // byte 3 from stage 1
        let got = arb.load(2, 0x80, 8, &mem).unwrap();
        // bytes: [bb aa 33 cc 55 66 77 88]
        assert_eq!(got.value, 0x8877_6655_cc33_aabb);
        assert!(got.forwarded);
    }

    #[test]
    fn violation_matrix_over_all_loader_storer_pairs() {
        // For every (storer s, loader l) with s earlier than l: a load
        // before the store is a violation of l; a load after is not.
        for s in 0..3usize {
            for l in (s + 1)..4usize {
                // Load-before-store: violation.
                let mut arb = Arb::new(4, 2, 256);
                let mem = Memory::new();
                let _ = arb.load(l, 0x100, 4, &mem).unwrap();
                let v = arb.store(s, 0x100, 4, 1, 4).unwrap();
                assert_eq!(v, vec![l], "store@{s} load@{l}");

                // Store-before-load: clean.
                let mut arb = Arb::new(4, 2, 256);
                arb.store(s, 0x100, 4, 1, 4).unwrap();
                let r = arb.load(l, 0x100, 4, &mem).unwrap();
                assert_eq!(r.value, 1);
                let v = arb.store(s, 0x104, 4, 2, 4).unwrap();
                assert!(v.is_empty(), "store@{s} load@{l}");
            }
        }
    }

    #[test]
    fn retire_then_reuse_stage_is_clean() {
        let mut arb = Arb::new(2, 2, 256);
        let mut mem = Memory::new();
        arb.store(0, 0x20, 4, 111, 2).unwrap();
        arb.drain_stage(0, &mut mem);
        arb.set_head(1);
        // Unit 0 is reused by a later task (rank 1 now).
        arb.store(0, 0x20, 4, 222, 2).unwrap();
        let got = arb.load(0, 0x20, 4, &mem).unwrap();
        assert_eq!(got.value, 222);
        // Memory still holds the drained value.
        assert_eq!(mem.read_le(0x20, 4), 111);
    }

    #[test]
    fn disjoint_bytes_in_one_line_do_not_conflict() {
        let mut arb = Arb::new(4, 2, 256);
        let mem = Memory::new();
        let _ = arb.load(2, 0x104, 2, &mem).unwrap(); // bytes 4-5
        let v = arb.store(0, 0x100, 4, 0xffff_ffff, 3).unwrap(); // bytes 0-3
        assert!(v.is_empty(), "non-overlapping bytes must not violate");
    }

    #[test]
    fn drain_is_sorted_and_deterministic() {
        let mut arb = Arb::new(2, 4, 256);
        let mut mem = Memory::new();
        for &addr in &[0x300u32, 0x100, 0x200, 0x80] {
            arb.store(0, addr, 4, addr as u64, 1).unwrap();
        }
        let lines = arb.drain_stage(0, &mut mem);
        let mut sorted = lines.to_vec();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn stats_track_forwards_and_violations() {
        let mut arb = Arb::new(4, 2, 256);
        let mem = Memory::new();
        arb.store(0, 0x10, 4, 9, 2).unwrap();
        let _ = arb.load(1, 0x10, 4, &mem).unwrap();
        let _ = arb.load(2, 0x500, 4, &mem).unwrap();
        let _ = arb.store(0, 0x500, 4, 3, 3).unwrap();
        let st = arb.stats();
        assert_eq!(st.loads, 2);
        assert_eq!(st.stores, 2);
        assert_eq!(st.load_forwards, 1);
        assert_eq!(st.violations, 1);
        assert!(st.peak_bank_occupancy >= 1);
    }

    /// Accesses in the top 8-byte line of the address space: one that
    /// fills it, and two that run past its end and wrap to address 0.
    const TOP_OF_MEMORY: [(u32, u32); 3] = [(0xFFFF_FFF8, 4), (0xFFFF_FFFC, 4), (0xFFFF_FFFC, 8)];

    #[test]
    fn split_covers_exactly_the_bytes_memory_touches() {
        for (addr, size) in TOP_OF_MEMORY {
            let mut bytes: Vec<u32> = Arb::split(addr, size)
                .flat_map(|(line, mask, _)| {
                    (0..8).filter(move |b| mask & (1 << b) != 0).map(move |b| (line << 3) | b)
                })
                .collect();
            let mut touched: Vec<u32> = (0..size).map(|i| addr.wrapping_add(i)).collect();
            bytes.sort_unstable();
            touched.sort_unstable();
            assert_eq!(bytes, touched, "({addr:#x}, {size})");
        }
    }

    #[test]
    fn top_of_memory_loads_and_stores_forward_and_drain_like_memory() {
        for (addr, size) in TOP_OF_MEMORY {
            let value = 0x8877_6655_4433_2211u64 & (u64::MAX >> (64 - 8 * size));
            let mut mem = Memory::new();
            mem.write_le(addr, size, 0x0102_0304_0506_0708);
            let mut arb = Arb::new(4, 2, 256);

            // The head's load reads memory; a successor's load of the
            // same bytes records load bits without panicking.
            let before = mem.read_le(addr, size);
            assert_eq!(arb.load(0, addr, size, &mem).unwrap().value, before);
            assert_eq!(arb.load(2, addr, size, &mem).unwrap().value, before);

            // Unit 1 stores: unit 2 read before it, so it is violated,
            // and unit 2's next load sees unit 1's bytes.
            assert_eq!(arb.store(1, addr, size, value, 3).unwrap(), vec![2], "({addr:#x}, {size})");
            let r = arb.load(2, addr, size, &mem).unwrap();
            assert_eq!((r.value, r.forwarded), (value, true), "({addr:#x}, {size})");

            let mut expected = mem.clone();
            expected.write_le(addr, size, value);
            arb.drain_stage(1, &mut mem);
            for i in 0..size {
                let a = addr.wrapping_add(i);
                assert_eq!(mem.read_u8(a), expected.read_u8(a), "byte {a:#x}");
            }
            for a in [0xFFFF_FFF0, 0xFFFF_FFF4, 0, 4, 8] {
                assert_eq!(mem.read_le(a, 4), expected.read_le(a, 4), "word {a:#x}");
            }
        }
    }
}
