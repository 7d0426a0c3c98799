//! Multiscalar annotations: tag bits and register masks.
//!
//! Section 2.2 of the paper attaches "a few tag bits (forward and stop
//! bits, respectively) to each instruction in a task" and describes the
//! *create mask* as the statically computed set of "register values that
//! may be produced" by a task. [`TagBits`] and [`RegMask`] model exactly
//! those artifacts.

use crate::reg::Reg;
use std::fmt;

/// The condition under which an instruction terminates its task.
///
/// Figure 4 of the paper tags the closing branch of the loop body with a
/// "Stop Always" condition; conditional variants let a task end only on one
/// outcome of a branch (used when one branch direction stays inside the
/// task).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StopCond {
    /// Not a stopping instruction.
    #[default]
    None,
    /// The task completes after this instruction, unconditionally.
    Always,
    /// The task completes only if this (branch) instruction is taken.
    IfTaken,
    /// The task completes only if this (branch) instruction is not taken.
    IfNotTaken,
}

impl StopCond {
    /// Whether the stop condition fires given the branch outcome
    /// (`taken` is ignored for [`StopCond::Always`]).
    pub fn fires(self, taken: bool) -> bool {
        match self {
            StopCond::None => false,
            StopCond::Always => true,
            StopCond::IfTaken => taken,
            StopCond::IfNotTaken => !taken,
        }
    }

    /// Assembly suffix for this condition (`""`, `"!s"`, `"!st"`, `"!sn"`).
    pub fn suffix(self) -> &'static str {
        match self {
            StopCond::None => "",
            StopCond::Always => "!s",
            StopCond::IfTaken => "!st",
            StopCond::IfNotTaken => "!sn",
        }
    }
}

/// The per-instruction multiscalar tag bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TagBits {
    /// Forward bit: this is the last update of its destination register in
    /// the task, so the result is sent to successor units at write-back.
    pub forward: bool,
    /// Stop bits: the task completes when this instruction's stop condition
    /// fires.
    pub stop: StopCond,
}

impl TagBits {
    /// Tag bits with nothing set.
    pub const NONE: TagBits = TagBits { forward: false, stop: StopCond::None };

    /// Whether any tag bit is set.
    pub fn is_any(self) -> bool {
        self.forward || self.stop != StopCond::None
    }

    /// Assembly suffix string, e.g. `"!f!s"`.
    pub fn suffix(self) -> String {
        let mut s = String::new();
        if self.forward {
            s.push_str("!f");
        }
        s.push_str(self.stop.suffix());
        s
    }
}

/// A set of architectural registers as a 64-bit vector.
///
/// Used for task *create masks*, the dynamically accumulated *accum masks*
/// (the union of the create masks of active predecessor tasks, Section 2.1)
/// and the operand of `release` instructions.
///
/// ```
/// use ms_isa::{Reg, RegMask};
/// let m: RegMask = [Reg::int(4), Reg::int(20)].into_iter().collect();
/// assert!(m.contains(Reg::int(4)));
/// assert_eq!(m.to_string(), "$4,$20");
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegMask(u64);

impl RegMask {
    /// The empty mask.
    pub const EMPTY: RegMask = RegMask(0);

    /// Creates a mask from its raw 64-bit representation.
    pub const fn from_bits(bits: u64) -> RegMask {
        RegMask(bits)
    }

    /// Raw 64-bit representation (bit *i* = register index *i*).
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Whether `r` is in the mask.
    pub const fn contains(self, r: Reg) -> bool {
        self.0 & (1u64 << r.index()) != 0
    }

    /// Inserts `r`. Returns whether it was newly inserted.
    pub fn insert(&mut self, r: Reg) -> bool {
        let bit = 1u64 << r.index();
        let new = self.0 & bit == 0;
        self.0 |= bit;
        new
    }

    /// Removes `r`. Returns whether it was present.
    pub fn remove(&mut self, r: Reg) -> bool {
        let bit = 1u64 << r.index();
        let had = self.0 & bit != 0;
        self.0 &= !bit;
        had
    }

    /// Set union.
    pub const fn union(self, other: RegMask) -> RegMask {
        RegMask(self.0 | other.0)
    }

    /// Set intersection.
    pub const fn intersect(self, other: RegMask) -> RegMask {
        RegMask(self.0 & other.0)
    }

    /// Set difference (`self` minus `other`).
    pub const fn difference(self, other: RegMask) -> RegMask {
        RegMask(self.0 & !other.0)
    }

    /// Whether the mask is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the mask.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over member registers in index order, visiting only the
    /// set bits.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Reg::from_index(i)
        })
    }
}

impl FromIterator<Reg> for RegMask {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> Self {
        let mut m = RegMask::EMPTY;
        for r in iter {
            m.insert(r);
        }
        m
    }
}

impl Extend<Reg> for RegMask {
    fn extend<I: IntoIterator<Item = Reg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl fmt::Display for RegMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(none)");
        }
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for RegMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegMask({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::NUM_REGS;

    #[test]
    fn stop_cond_fires_per_outcome() {
        assert!(!StopCond::None.fires(true));
        assert!(!StopCond::None.fires(false));
        assert!(StopCond::Always.fires(true));
        assert!(StopCond::Always.fires(false));
        assert!(StopCond::IfTaken.fires(true));
        assert!(!StopCond::IfTaken.fires(false));
        assert!(!StopCond::IfNotTaken.fires(true));
        assert!(StopCond::IfNotTaken.fires(false));
    }

    #[test]
    fn mask_set_algebra() {
        let a: RegMask = [Reg::int(1), Reg::int(2)].into_iter().collect();
        let b: RegMask = [Reg::int(2), Reg::fp(3)].into_iter().collect();
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersect(b).len(), 1);
        assert!(a.intersect(b).contains(Reg::int(2)));
        assert_eq!(a.difference(b).len(), 1);
        assert!(a.difference(b).contains(Reg::int(1)));
    }

    #[test]
    fn insert_remove_report_change() {
        let mut m = RegMask::EMPTY;
        assert!(m.insert(Reg::int(5)));
        assert!(!m.insert(Reg::int(5)));
        assert!(m.remove(Reg::int(5)));
        assert!(!m.remove(Reg::int(5)));
        assert!(m.is_empty());
    }

    #[test]
    fn iter_visits_in_index_order() {
        let m: RegMask = [Reg::fp(0), Reg::int(3), Reg::int(30)].into_iter().collect();
        let v: Vec<Reg> = m.iter().collect();
        assert_eq!(v, vec![Reg::int(3), Reg::int(30), Reg::fp(0)]);
    }

    #[test]
    fn iter_yields_exactly_the_set_bits_in_order() {
        // Random masks (splitmix64), plus the edges: empty, full, each end.
        let mut state = 0x5EED_u64;
        let mut masks = vec![0, !0, 1, 1 << 63];
        for _ in 0..2000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            // Thin some masks out so sparse sets are drawn too.
            masks.push(if state & 1 == 0 { z ^ (z >> 31) } else { z & (z >> 17) & (z >> 33) });
        }
        for bits in masks {
            let naive: Vec<Reg> = (0..NUM_REGS)
                .filter(|&i| bits & (1u64 << i) != 0)
                .filter_map(Reg::from_index)
                .collect();
            let fast: Vec<Reg> = RegMask::from_bits(bits).iter().collect();
            assert_eq!(fast, naive, "mask {bits:#018x}");
        }
    }

    #[test]
    fn display_matches_paper_style() {
        let m: RegMask = [Reg::int(4), Reg::int(8), Reg::int(17), Reg::int(20), Reg::int(23)]
            .into_iter()
            .collect();
        assert_eq!(m.to_string(), "$4,$8,$17,$20,$23");
        assert_eq!(RegMask::EMPTY.to_string(), "(none)");
    }

    #[test]
    fn tag_suffixes() {
        let t = TagBits { forward: true, stop: StopCond::Always };
        assert_eq!(t.suffix(), "!f!s");
        assert!(t.is_any());
        assert!(!TagBits::NONE.is_any());
    }
}
