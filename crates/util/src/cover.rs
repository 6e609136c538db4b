//! Incremental set-cover bookkeeping for subset sweeps.
//!
//! [`CoverCounter`] pairs with the delta streams in [`crate::subsets`]: a
//! verifier fixes a *target* slot set (e.g. `tran(x)` for Requirement 1),
//! then adds/removes member sets as the enumeration swaps elements in and
//! out, and can ask in O(1) whether the running union covers the target.
//! Per-slot `u16` multiplicities make removal exact (a slot stays covered
//! while *any* member still supplies it), and an `uncovered` bitmask is
//! maintained word-incrementally so callers can also stream the residual
//! `target − union` set (free-slot style checks, throughput counts).

use crate::bitset::BitSet;

/// Multiset union of slot sets, tracked against a fixed target.
///
/// Invariants (upheld by `add`/`remove`, checked by `debug_assert!`):
/// * `counts[s]` = number of currently-added sets containing slot `s`;
/// * `uncovered = target − { s : counts[s] > 0 }`;
/// * `deficit = |uncovered|`, so `is_covered()` is a single comparison.
///
/// Every set passed to [`add`](Self::add) **must be a subset of the current
/// target** — callers mask their sets with the target first (that masking is
/// where the real speedup lives: for polynomial schedules two blocks
/// intersect in at most `k` slots, so a swap costs `O(k)` instead of
/// `O(L)`). The restriction lets `add`/`remove` skip any membership test
/// against the target.
///
/// # Backtracking
///
/// Search consumers (the schedule synthesizer's branch-and-bound) need to
/// *undo* a prefix of additions without remembering which sets were added:
/// [`add_tracked`](Self::add_tracked) journals every slot it increments on a
/// trail, [`mark`](Self::mark) snapshots the trail position in O(1), and
/// [`undo_to`](Self::undo_to) pops the trail back to a mark — each popped
/// entry is a single decrement, so a backtrack costs exactly the increments
/// it unwinds, never a rescan of the added sets or the target.
#[derive(Clone, Debug)]
pub struct CoverCounter {
    counts: Vec<u16>,
    target: BitSet,
    uncovered: BitSet,
    deficit: usize,
    /// Journal of slots incremented by `add_tracked`, for `undo_to`.
    trail: Vec<u32>,
}

/// An O(1) snapshot of a [`CoverCounter`] trail position, taken by
/// [`CoverCounter::mark`] and consumed by [`CoverCounter::undo_to`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoverMark(usize);

impl CoverCounter {
    /// Creates a counter over `universe` slots with an empty target.
    pub fn new(universe: usize) -> Self {
        CoverCounter {
            counts: vec![0; universe],
            target: BitSet::new(universe),
            uncovered: BitSet::new(universe),
            deficit: 0,
            trail: Vec::new(),
        }
    }

    /// Resets the counter to track `target` with no sets added.
    pub fn set_target(&mut self, target: &BitSet) {
        debug_assert_eq!(target.universe(), self.counts.len());
        self.counts.fill(0);
        self.target.clone_from(target);
        self.uncovered.clone_from(target);
        self.deficit = target.len();
        self.trail.clear();
    }

    /// Adds one member set (must be ⊆ the current target).
    pub fn add(&mut self, set: &BitSet) {
        debug_assert!(
            set.is_subset(&self.target),
            "CoverCounter::add requires sets masked to the target"
        );
        for s in set.iter() {
            self.counts[s] += 1;
            if self.counts[s] == 1 {
                self.uncovered.remove(s);
                self.deficit -= 1;
            }
        }
    }

    /// Removes one previously-added member set.
    pub fn remove(&mut self, set: &BitSet) {
        for s in set.iter() {
            debug_assert!(
                self.counts[s] > 0,
                "CoverCounter::remove of an unadded slot"
            );
            self.counts[s] -= 1;
            if self.counts[s] == 0 {
                self.uncovered.insert(s);
                self.deficit += 1;
            }
        }
    }

    /// Like [`add`](Self::add), but journals every incremented slot on the
    /// undo trail so [`undo_to`](Self::undo_to) can unwind it. Returns the
    /// number of target slots this set newly covered (its marginal gain).
    pub fn add_tracked(&mut self, set: &BitSet) -> usize {
        debug_assert!(
            set.is_subset(&self.target),
            "CoverCounter::add_tracked requires sets masked to the target"
        );
        let before = self.deficit;
        for s in set.iter() {
            self.counts[s] += 1;
            self.trail.push(s as u32);
            if self.counts[s] == 1 {
                self.uncovered.remove(s);
                self.deficit -= 1;
            }
        }
        before - self.deficit
    }

    /// Snapshots the current undo-trail position in O(1).
    #[inline]
    pub fn mark(&self) -> CoverMark {
        CoverMark(self.trail.len())
    }

    /// Unwinds every [`add_tracked`](Self::add_tracked) since `mark` was
    /// taken: each journaled slot is decremented once (constant work per
    /// entry — no rescan of sets or target). The mark must come from this
    /// counter's current `set_target` epoch.
    pub fn undo_to(&mut self, mark: CoverMark) {
        debug_assert!(mark.0 <= self.trail.len(), "mark from a future epoch");
        while self.trail.len() > mark.0 {
            let s = self.trail.pop().expect("trail length checked") as usize;
            debug_assert!(self.counts[s] > 0, "trail decrement of a zero count");
            self.counts[s] -= 1;
            if self.counts[s] == 0 {
                self.uncovered.insert(s);
                self.deficit += 1;
            }
        }
    }

    /// `true` iff the union of the added sets equals the target.
    #[inline]
    pub fn is_covered(&self) -> bool {
        self.deficit == 0
    }

    /// Number of target slots not yet covered (`|target − union|`).
    #[inline]
    pub fn deficit(&self) -> usize {
        self.deficit
    }

    /// The residual `target − union` as a bitmask.
    #[inline]
    pub fn uncovered(&self) -> &BitSet {
        &self.uncovered
    }

    /// Universe size the counter was built for.
    #[inline]
    pub fn universe(&self) -> usize {
        self.counts.len()
    }

    /// Multiplicity of slot `s` in the current union.
    #[inline]
    pub fn multiplicity(&self, s: usize) -> u16 {
        self.counts[s]
    }

    /// `true` iff removing one copy of `set` would leave the union's
    /// coverage unchanged — every slot of `set` has another supplier. The
    /// local-search redundancy test: a slot of the schedule whose demand
    /// set is redundant can be dropped.
    pub fn is_redundant(&self, set: &BitSet) -> bool {
        set.iter().all(|s| self.counts[s] >= 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(universe: usize, elems: &[usize]) -> BitSet {
        let mut b = BitSet::new(universe);
        for &e in elems {
            b.insert(e);
        }
        b
    }

    #[test]
    fn cover_tracks_union_against_target() {
        let mut c = CoverCounter::new(10);
        c.set_target(&bs(10, &[1, 3, 5, 7]));
        assert!(!c.is_covered());
        assert_eq!(c.deficit(), 4);

        let a = bs(10, &[1, 3]);
        let b = bs(10, &[3, 5]);
        c.add(&a);
        assert_eq!(c.deficit(), 2);
        c.add(&b);
        assert_eq!(c.deficit(), 1);
        assert_eq!(c.uncovered().iter().collect::<Vec<_>>(), vec![7]);

        // Slot 3 is covered twice: removing one supplier keeps it covered.
        c.remove(&a);
        assert_eq!(c.deficit(), 2);
        assert_eq!(c.uncovered().iter().collect::<Vec<_>>(), vec![1, 7]);
        c.remove(&b);
        assert_eq!(c.deficit(), 4);

        c.add(&bs(10, &[1, 3, 5, 7]));
        assert!(c.is_covered());
        assert_eq!(c.uncovered().len(), 0);
    }

    #[test]
    fn set_target_resets_state() {
        let mut c = CoverCounter::new(8);
        c.set_target(&bs(8, &[0, 1]));
        c.add(&bs(8, &[0, 1]));
        assert!(c.is_covered());
        c.set_target(&bs(8, &[2]));
        assert!(!c.is_covered());
        assert_eq!(c.deficit(), 1);
        c.add(&bs(8, &[2]));
        assert!(c.is_covered());
    }

    #[test]
    fn empty_target_is_trivially_covered() {
        let mut c = CoverCounter::new(4);
        c.set_target(&BitSet::new(4));
        assert!(c.is_covered());
    }

    #[test]
    fn tracked_adds_unwind_to_marks() {
        let mut c = CoverCounter::new(10);
        c.set_target(&bs(10, &[1, 3, 5, 7]));
        let m0 = c.mark();
        assert_eq!(c.add_tracked(&bs(10, &[1, 3])), 2);
        let m1 = c.mark();
        assert_eq!(c.add_tracked(&bs(10, &[3, 5])), 1, "3 already covered");
        assert_eq!(c.add_tracked(&bs(10, &[7])), 1);
        assert!(c.is_covered());

        // Unwind the last two adds: back to {1, 3} covered.
        c.undo_to(m1);
        assert_eq!(c.deficit(), 2);
        assert_eq!(c.uncovered().iter().collect::<Vec<_>>(), vec![5, 7]);
        assert_eq!(c.multiplicity(3), 1);

        // Re-add after an undo, then unwind everything.
        c.add_tracked(&bs(10, &[5, 7]));
        assert!(c.is_covered());
        c.undo_to(m0);
        assert_eq!(c.deficit(), 4);
        assert_eq!(c.multiplicity(1), 0);

        // undo_to a mark equal to the current trail is a no-op.
        let m = c.mark();
        c.undo_to(m);
        assert_eq!(c.deficit(), 4);
    }

    #[test]
    fn tracked_and_untracked_adds_interoperate_with_redundancy() {
        let mut c = CoverCounter::new(6);
        c.set_target(&bs(6, &[0, 1, 2]));
        let a = bs(6, &[0, 1]);
        let b = bs(6, &[1, 2]);
        c.add_tracked(&a);
        c.add_tracked(&b);
        assert!(c.is_covered());
        // Slot 0 and 2 have a single supplier: neither set is redundant.
        assert!(!c.is_redundant(&a));
        assert!(!c.is_redundant(&b));
        let overlap = bs(6, &[1]);
        c.add_tracked(&overlap);
        assert!(c.is_redundant(&overlap), "slot 1 has three suppliers");
    }

    #[test]
    fn set_target_resets_the_trail() {
        let mut c = CoverCounter::new(4);
        c.set_target(&bs(4, &[0, 1]));
        c.add_tracked(&bs(4, &[0]));
        c.set_target(&bs(4, &[2, 3]));
        // A fresh epoch: the old trail must not leak into new marks.
        let m = c.mark();
        assert_eq!(m, CoverMark(0));
        c.add_tracked(&bs(4, &[2, 3]));
        assert!(c.is_covered());
        c.undo_to(m);
        assert_eq!(c.deficit(), 2);
    }
}
