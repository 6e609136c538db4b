//! A dense, fixed-universe bit set.
//!
//! [`BitSet`] is the workhorse set representation of the workspace: node sets
//! (`T[i]`, `R[i]`, neighbourhoods) and slot sets (`tran(x)`, `recv(x)`,
//! `freeSlots(x, Y)`) are all subsets of a small fixed universe
//! (`[0, n)` nodes or `[0, L)` slots), for which a packed `u64`-block bitmap
//! beats hash sets by a wide margin and makes the set algebra of the paper
//! (unions over neighbourhoods, differences against transmitter sets) cheap,
//! branch-free word operations.

const BITS: usize = u64::BITS as usize;

/// A set of `usize` elements drawn from a fixed universe `[0, universe)`.
///
/// All binary operations (`union_with`, `is_disjoint`, ...) require both
/// operands to share the same universe; this is asserted in debug builds.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
    universe: usize,
}

impl BitSet {
    /// Creates an empty set over `[0, universe)`.
    pub fn new(universe: usize) -> Self {
        BitSet {
            blocks: vec![0; universe.div_ceil(BITS)],
            universe,
        }
    }

    /// Creates the full set `{0, 1, ..., universe-1}`.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::new(universe);
        for (i, b) in s.blocks.iter_mut().enumerate() {
            let lo = i * BITS;
            *b = if lo + BITS <= universe {
                u64::MAX
            } else {
                // Final, partially-filled block.
                (1u64 << (universe - lo)) - 1
            };
        }
        if universe.is_multiple_of(BITS) {
            if let Some(last) = s.blocks.last_mut() {
                *last = u64::MAX;
            }
        }
        if universe == 0 {
            s.blocks.clear();
        }
        s
    }

    /// Builds a set from an iterator of elements.
    pub fn from_iter<I: IntoIterator<Item = usize>>(universe: usize, iter: I) -> Self {
        let mut s = Self::new(universe);
        for e in iter {
            s.insert(e);
        }
        s
    }

    /// The universe size this set was created with.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The raw `u64` blocks backing the set, least-significant word first.
    ///
    /// Bits above the universe in the final word are always zero, so word
    /// algorithms (popcounts, custom masks) need no end-of-universe fixup.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }

    /// Number of `u64` blocks (`⌈universe / 64⌉`).
    #[inline]
    pub fn word_count(&self) -> usize {
        self.blocks.len()
    }

    /// Inserts `e`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, e: usize) -> bool {
        assert!(
            e < self.universe,
            "element {e} outside universe {}",
            self.universe
        );
        let (blk, bit) = (e / BITS, e % BITS);
        let had = self.blocks[blk] & (1 << bit) != 0;
        self.blocks[blk] |= 1 << bit;
        !had
    }

    /// Removes `e`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, e: usize) -> bool {
        assert!(
            e < self.universe,
            "element {e} outside universe {}",
            self.universe
        );
        let (blk, bit) = (e / BITS, e % BITS);
        let had = self.blocks[blk] & (1 << bit) != 0;
        self.blocks[blk] &= !(1 << bit);
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, e: usize) -> bool {
        e < self.universe && self.blocks[e / BITS] & (1 << (e % BITS)) != 0
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `true` if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// Inserts every element of the universe, in place. `#[inline]` like
    /// [`BitSet::copy_truncated`]: both serve the simulator's per-slot
    /// mask fills.
    #[inline]
    pub fn fill(&mut self) {
        self.blocks.fill(u64::MAX);
        let tail = self.universe % BITS;
        if tail != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
    }

    /// Overwrites `self` with `other ∩ [0, self.universe())`, keeping
    /// `self`'s universe: the overlapping words are copied, any words past
    /// `other`'s end are zeroed, and the final word is masked to the
    /// universe. Unlike the binary operations, the universes may differ.
    #[inline]
    pub fn copy_truncated(&mut self, other: &BitSet) {
        let k = self.blocks.len().min(other.blocks.len());
        self.blocks[..k].copy_from_slice(&other.blocks[..k]);
        self.blocks[k..].fill(0);
        let tail = self.universe % BITS;
        if tail != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference: `self −= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Returns `self ∪ other` as a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self − other` as a new set.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// The complement within the universe.
    pub fn complement(&self) -> BitSet {
        BitSet::full(self.universe).difference(self)
    }

    /// `true` if the two sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// `|self ∩ other|` without materialising the intersection.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.universe, other.universe);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self − other|` without materialising the difference.
    pub fn difference_len(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.universe, other.universe);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// `true` iff `self − other` is empty, i.e. `self ⊆ other`.
    ///
    /// Equivalent to `difference_len(other) == 0` but bails out on the first
    /// word that pins the count nonzero — the fast path for coverage checks
    /// (Requirement 1 asks only *whether* `tran(x)` is covered, not by how
    /// much).
    #[inline]
    pub fn difference_is_empty(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Visits every element of `self ∩ other` in increasing order without
    /// materialising the intersection: the blocks are ANDed word by word
    /// and set bits extracted with `trailing_zeros`, so words where the
    /// sets don't overlap cost one AND and one compare. The callback
    /// returns `false` to stop early (e.g. once a second element proves a
    /// collision).
    ///
    /// This is the sparse channel-resolution kernel: `neighbors(y) ∩
    /// transmitters` touches `⌈n/64⌉` words instead of walking all `n`
    /// candidate nodes.
    #[inline]
    pub fn intersect_for_each(&self, other: &BitSet, mut f: impl FnMut(usize) -> bool) {
        debug_assert_eq!(self.universe, other.universe);
        for (i, (a, b)) in self.blocks.iter().zip(&other.blocks).enumerate() {
            let mut word = a & b;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                if !f(i * BITS + bit) {
                    return;
                }
                word &= word - 1;
            }
        }
    }

    /// The smallest element, if any.
    pub fn min(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects into a set whose universe is `max element + 1`.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let elems: Vec<usize> = iter.into_iter().collect();
        let universe = elems.iter().max().map_or(0, |m| m + 1);
        BitSet::from_iter(universe, elems)
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    set: &'a BitSet,
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.block_idx += 1;
            if self.block_idx >= self.set.blocks.len() {
                return None;
            }
            self.current = self.set.blocks[self.block_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.block_idx * BITS + bit)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Enumerates all `k`-subsets of `[0, n)`, invoking `f` on each.
///
/// This is the enumeration kernel behind the exhaustive requirement checkers
/// and the brute-force throughput computation (sums over all neighbourhoods
/// `S ⊆ V_n − {x,y}` with `|S| = D−1`). The callback receives the subset as a
/// sorted slice; returning `false` aborts the enumeration early.
pub fn for_each_subset(n: usize, k: usize, mut f: impl FnMut(&[usize]) -> bool) {
    if k > n {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        if !f(&idx) {
            return;
        }
        // Advance to the next combination in lexicographic order.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Enumerates `k`-subsets of an arbitrary element pool (not just `0..n`).
pub fn for_each_subset_of(pool: &[usize], k: usize, mut f: impl FnMut(&[usize]) -> bool) {
    let mut scratch = vec![0usize; k];
    let mut aborted = false;
    for_each_subset(pool.len(), k, |idx| {
        if aborted {
            return false;
        }
        for (s, &i) in scratch.iter_mut().zip(idx) {
            *s = pool[i];
        }
        if !f(&scratch) {
            aborted = true;
            return false;
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = BitSet::new(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = BitSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(0) && f.contains(69));
        assert!(!f.contains(70));
    }

    #[test]
    fn full_at_block_boundaries() {
        for u in [0, 1, 63, 64, 65, 127, 128, 129] {
            let f = BitSet::full(u);
            assert_eq!(f.len(), u, "universe {u}");
            assert_eq!(f.iter().count(), u);
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter(10, [1, 2, 3, 7]);
        let b = BitSet::from_iter(10, [3, 4, 7, 9]);
        assert_eq!(a.union(&b), BitSet::from_iter(10, [1, 2, 3, 4, 7, 9]));
        assert_eq!(a.intersection(&b), BitSet::from_iter(10, [3, 7]));
        assert_eq!(a.difference(&b), BitSet::from_iter(10, [1, 2]));
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.difference_len(&b), 2);
        assert_eq!(a.complement(), BitSet::from_iter(10, [0, 4, 5, 6, 8, 9]));
    }

    #[test]
    fn subset_and_disjoint() {
        let a = BitSet::from_iter(10, [1, 2]);
        let b = BitSet::from_iter(10, [1, 2, 3]);
        let c = BitSet::from_iter(10, [4, 5]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(BitSet::new(10).is_subset(&a));
    }

    #[test]
    fn iter_order_and_min() {
        let s = BitSet::from_iter(200, [199, 0, 64, 63, 65]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 199]);
        assert_eq!(s.min(), Some(0));
        assert_eq!(BitSet::new(5).min(), None);
    }

    #[test]
    fn words_accessors_and_trailing_bits() {
        for u in [63usize, 64, 65] {
            let f = BitSet::full(u);
            assert_eq!(f.word_count(), u.div_ceil(64), "universe {u}");
            let popcount: u32 = f.words().iter().map(|w| w.count_ones()).sum();
            assert_eq!(popcount as usize, u, "no stray bits above universe {u}");
        }
        let mut s = BitSet::new(65);
        s.insert(64);
        assert_eq!(s.words(), &[0, 1]);
    }

    #[test]
    fn difference_is_empty_matches_difference_len() {
        for u in [63usize, 64, 65] {
            let a = BitSet::from_iter(u, [0, u / 2, u - 1]);
            let b = BitSet::full(u);
            assert!(a.difference_is_empty(&b), "universe {u}");
            assert_eq!(a.difference_len(&b), 0);
            let mut c = b.clone();
            c.remove(u - 1);
            assert!(!a.difference_is_empty(&c), "universe {u}");
            assert_eq!(a.difference_len(&c), 1);
            assert!(BitSet::new(u).difference_is_empty(&BitSet::new(u)));
        }
    }

    #[test]
    fn intersect_for_each_matches_intersection_iter() {
        for u in [63usize, 64, 65] {
            let a = BitSet::from_iter(u, [0, 1, u / 2, u - 2, u - 1]);
            let b = BitSet::from_iter(u, [1, u / 2, u - 1]);
            let mut seen = Vec::new();
            a.intersect_for_each(&b, |e| {
                seen.push(e);
                true
            });
            assert_eq!(
                seen,
                a.intersection(&b).iter().collect::<Vec<_>>(),
                "universe {u}"
            );
            // Word-boundary elements survive the word-by-word AND.
            assert!(seen.contains(&(u - 1)), "universe {u}");
        }
    }

    #[test]
    fn intersect_for_each_early_abort_and_disjoint() {
        let a = BitSet::from_iter(130, [0, 63, 64, 65, 129]);
        let b = BitSet::full(130);
        let mut seen = Vec::new();
        a.intersect_for_each(&b, |e| {
            seen.push(e);
            seen.len() < 2
        });
        assert_eq!(seen, vec![0, 63], "stops after the callback says so");
        let c = BitSet::from_iter(130, [1, 62, 66]);
        a.intersect_for_each(&c, |_| panic!("disjoint sets visit nothing"));
    }

    #[test]
    fn from_iterator_trait_infers_universe() {
        let s: BitSet = [3usize, 9, 1].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn copy_truncated_matches_contains_across_universes() {
        let src = BitSet::from_iter(130, [0, 5, 63, 64, 65, 100, 127, 128, 129]);
        for u in [0usize, 1, 63, 64, 65, 129, 130, 131, 200] {
            let mut dst = BitSet::full(u);
            dst.copy_truncated(&src);
            assert_eq!(dst.universe(), u);
            let want: Vec<usize> = (0..u).filter(|&e| src.contains(e)).collect();
            assert_eq!(dst.iter().collect::<Vec<_>>(), want, "universe {u}");
            let popcount: u32 = dst.words().iter().map(|w| w.count_ones()).sum();
            assert_eq!(popcount as usize, want.len(), "no stray bits, universe {u}");
        }
    }

    #[test]
    fn fill_equals_full() {
        for u in [0usize, 1, 63, 64, 65, 128, 130] {
            let mut s = BitSet::new(u);
            s.fill();
            assert_eq!(s, BitSet::full(u), "universe {u}");
            assert_eq!(s.len(), u);
        }
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::full(66);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe(), 66);
    }

    #[test]
    fn subsets_count_matches_binomial() {
        // C(6,3) = 20 subsets
        let mut count = 0;
        for_each_subset(6, 3, |s| {
            assert_eq!(s.len(), 3);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            count += 1;
            true
        });
        assert_eq!(count, 20);
    }

    #[test]
    fn subsets_edge_cases() {
        let mut count = 0;
        for_each_subset(5, 0, |s| {
            assert!(s.is_empty());
            count += 1;
            true
        });
        assert_eq!(count, 1, "one empty subset");

        count = 0;
        for_each_subset(5, 5, |_| {
            count += 1;
            true
        });
        assert_eq!(count, 1, "one full subset");

        count = 0;
        for_each_subset(3, 4, |_| {
            count += 1;
            true
        });
        assert_eq!(count, 0, "k > n yields nothing");
    }

    #[test]
    fn subsets_early_abort() {
        let mut count = 0;
        for_each_subset(10, 2, |_| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn subsets_of_pool() {
        let pool = [2usize, 5, 9];
        let mut seen = Vec::new();
        for_each_subset_of(&pool, 2, |s| {
            seen.push(s.to_vec());
            true
        });
        assert_eq!(seen, vec![vec![2, 5], vec![2, 9], vec![5, 9]]);
    }

    #[test]
    fn subsets_of_pool_early_abort() {
        let pool = [0usize, 1, 2, 3];
        let mut seen = 0;
        for_each_subset_of(&pool, 2, |_| {
            seen += 1;
            false
        });
        assert_eq!(seen, 1);
    }
}
