//! The per-unit register file.
//!
//! Every processing unit holds "the appearance of a single logical
//! register file … with a copy in each parallel processing unit"
//! (paper abstract). Each copy tracks, per register:
//!
//! * its current **value**,
//! * whether the value is still **awaiting** arrival from a predecessor
//!   task (the reservations set up from the accum mask, Section 2.1), and
//! * the **cycle at which the latest local writer's result is available**
//!   (the intra-unit scoreboard; full bypass is assumed, so a dependent
//!   may issue in the cycle the producer's result is ready).

use ms_isa::{Reg, RegMask, NUM_REGS};

/// Why a register cannot be read right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadStatus {
    /// Readable this cycle.
    Ready,
    /// An in-flight instruction in this unit produces it later.
    WaitLocal,
    /// A predecessor task has not yet forwarded it (inter-task wait).
    WaitRemote,
}

/// One processing unit's copy of the register file.
#[derive(Clone, Debug)]
pub struct RegFile {
    vals: [u64; NUM_REGS],
    awaiting: RegMask,
    ready_at: [u64; NUM_REGS],
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegFile {
    /// A register file with all registers zero and ready.
    pub fn new() -> RegFile {
        RegFile { vals: [0; NUM_REGS], awaiting: RegMask::EMPTY, ready_at: [0; NUM_REGS] }
    }

    /// Installs the task-entry state: `vals` copied from the predecessor's
    /// forwarded view, with `awaiting` registers reserved until the ring
    /// delivers them.
    pub fn install(&mut self, vals: &[u64; NUM_REGS], awaiting: RegMask) {
        self.vals = *vals;
        self.vals[0] = 0;
        self.awaiting = awaiting;
        self.awaiting.remove(Reg::ZERO);
        self.ready_at = [0; NUM_REGS];
    }

    /// Read status of `r` at cycle `now`.
    pub fn status(&self, r: Reg, now: u64) -> ReadStatus {
        if r.is_zero() {
            return ReadStatus::Ready;
        }
        if self.awaiting.contains(r) {
            ReadStatus::WaitRemote
        } else if self.ready_at[r.index()] > now {
            ReadStatus::WaitLocal
        } else {
            ReadStatus::Ready
        }
    }

    /// The current value of `r`.
    ///
    /// Callers must have checked [`RegFile::status`]; reading an awaiting
    /// register returns the stale snapshot value.
    pub fn read(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.vals[r.index()]
        }
    }

    /// Writes `v` to `r` from a local instruction whose result is
    /// available (bypass included) at `ready_at`. Clears any inter-task
    /// reservation — the local write supersedes the awaited value.
    pub fn write(&mut self, r: Reg, v: u64, ready_at: u64) {
        if r.is_zero() {
            return;
        }
        self.vals[r.index()] = v;
        self.awaiting.remove(r);
        let slot = &mut self.ready_at[r.index()];
        *slot = (*slot).max(ready_at);
    }

    /// Delivers an inter-task value from the ring at cycle `now`. Ignored
    /// if the register is not awaiting (e.g. the task already overwrote
    /// it, or a duplicate delivery).
    pub fn deliver(&mut self, r: Reg, v: u64, now: u64) {
        if r.is_zero() || !self.awaiting.contains(r) {
            return;
        }
        self.vals[r.index()] = v;
        self.awaiting.remove(r);
        self.ready_at[r.index()] = self.ready_at[r.index()].max(now);
    }

    /// The cycle at which the latest local writer's result becomes
    /// readable (0 if never locally written). Always 0 for `$0`, whose
    /// entry no write or delivery touches. The issue logic compares an
    /// instruction's latest source against the current cycle with it,
    /// and the parking probe uses it to bound how long a `WaitLocal`
    /// operand stays blocked.
    #[inline]
    pub fn ready_at(&self, r: Reg) -> u64 {
        self.ready_at[r.index()]
    }

    /// Registers still awaiting inter-task delivery.
    pub fn awaiting(&self) -> RegMask {
        self.awaiting
    }

    /// A copy of all current values.
    pub fn values(&self) -> [u64; NUM_REGS] {
        self.vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_hardwired() {
        let mut rf = RegFile::new();
        rf.install(&[9; NUM_REGS], [Reg::ZERO].into_iter().collect());
        rf.write(Reg::ZERO, 99, 5);
        rf.deliver(Reg::ZERO, 99, 7);
        assert_eq!(rf.read(Reg::ZERO), 0);
        assert_eq!(rf.status(Reg::ZERO, 0), ReadStatus::Ready);
        assert_eq!(rf.ready_at(Reg::ZERO), 0, "$0 is ready from cycle 0");
    }

    #[test]
    fn local_scoreboard_times_reads() {
        let mut rf = RegFile::new();
        let r = Reg::int(4);
        rf.write(r, 42, 10);
        assert_eq!(rf.status(r, 9), ReadStatus::WaitLocal);
        assert_eq!(rf.status(r, 10), ReadStatus::Ready);
        assert_eq!(rf.read(r), 42);
    }

    #[test]
    fn awaiting_blocks_until_delivery() {
        let mut rf = RegFile::new();
        let r = Reg::int(8);
        let mut vals = [0u64; NUM_REGS];
        vals[r.index()] = 7; // stale snapshot
        rf.install(&vals, [r].into_iter().collect());
        assert_eq!(rf.status(r, 100), ReadStatus::WaitRemote);
        rf.deliver(r, 55, 30);
        assert_eq!(rf.status(r, 30), ReadStatus::Ready);
        assert_eq!(rf.read(r), 55);
        // Duplicate delivery is ignored.
        rf.deliver(r, 99, 31);
        assert_eq!(rf.read(r), 55);
    }

    #[test]
    fn local_write_supersedes_reservation() {
        let mut rf = RegFile::new();
        let r = Reg::int(8);
        rf.install(&[0; NUM_REGS], [r].into_iter().collect());
        rf.write(r, 11, 3);
        assert_eq!(rf.status(r, 3), ReadStatus::Ready);
        // A late delivery must not clobber the local value.
        rf.deliver(r, 22, 4);
        assert_eq!(rf.read(r), 11);
    }

    #[test]
    fn install_resets_scoreboard() {
        let mut rf = RegFile::new();
        rf.write(Reg::int(4), 1, 1000);
        rf.install(&[0; NUM_REGS], RegMask::EMPTY);
        assert_eq!(rf.status(Reg::int(4), 0), ReadStatus::Ready);
    }
}
