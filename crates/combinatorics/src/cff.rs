//! Cover-free families.
//!
//! A family of `n` blocks over a ground set of `L` points is *D-cover-free*
//! if no block is contained in the union of any `D` others. Syrotiuk-
//! Colbourn-Ling (2003) and Colbourn-Ling-Syrotiuk (2004) — references
//! [22, 3] of the paper — show that a topology-transparent non-sleeping
//! schedule for `N_n^D` is exactly a D-cover-free family with blocks
//! `tran(x)` over the `L` slots of a frame. This module provides the three
//! constructions the literature uses (trivial/identity, orthogonal-array /
//! polynomial, Steiner) plus an exhaustive verifier used in tests and in
//! experiment E5.

use crate::gf::Gf;
use crate::poly::Poly;
use crate::primes::TsmaParams;
use crate::steiner::SteinerTripleSystem;
use ttdc_util::{for_each_subset, for_each_subset_delta, BitSet, CoverCounter, SubsetEvent};

/// A family of blocks (subsets of a ground set of `L` points).
#[derive(Clone, Debug)]
pub struct CoverFreeFamily {
    ground: usize,
    blocks: Vec<BitSet>,
}

impl CoverFreeFamily {
    /// Builds a family from explicit blocks. All blocks must share the
    /// ground-set universe.
    pub fn from_blocks(ground: usize, blocks: Vec<BitSet>) -> CoverFreeFamily {
        for b in &blocks {
            assert_eq!(b.universe(), ground, "block universe mismatch");
        }
        CoverFreeFamily { ground, blocks }
    }

    /// The trivial family: block `x = {x}` over ground set `[0, n)`.
    ///
    /// D-cover-free for every `D ≤ n−1` (disjoint singletons) — the TDMA
    /// fixed-assignment schedule, with frame length `n`.
    pub fn identity(n: usize) -> CoverFreeFamily {
        let blocks = (0..n).map(|x| BitSet::from_iter(n, [x])).collect();
        CoverFreeFamily { ground: n, blocks }
    }

    /// The polynomial (orthogonal-array) family for `n` nodes: block of node
    /// `x` is `{ i·q + f_x(i) : i ∈ GF(q) }` where `f_x` is the `x`-th
    /// polynomial of degree ≤ k. Ground set size `q²`; D-cover-free for all
    /// `D ≤ (q−1)/k`.
    pub fn from_polynomials(gf: &Gf, k: u32, n: u64) -> CoverFreeFamily {
        let q = gf.order();
        assert!(
            n <= (q as u64).saturating_pow(k + 1),
            "n = {n} exceeds q^(k+1)"
        );
        let ground = q * q;
        let blocks = (0..n)
            .map(|x| {
                let p = Poly::from_index(gf, x, k);
                BitSet::from_iter(ground, (0..q).map(|i| i * q + p.eval(gf, i)))
            })
            .collect();
        CoverFreeFamily { ground, blocks }
    }

    /// Convenience: polynomial family for the searched [`TsmaParams`].
    pub fn from_tsma_params(params: &TsmaParams, n: u64) -> CoverFreeFamily {
        let gf = Gf::new(params.q.q as usize).expect("searched q is a prime power");
        Self::from_polynomials(&gf, params.k, n)
    }

    /// The Steiner family: one block per triple of STS(v), over ground set
    /// `[0, v)`. Supports `v(v−1)/6` nodes; 2-cover-free (blocks of size 3
    /// intersect pairwise in ≤ 1 point).
    pub fn from_steiner(sts: &SteinerTripleSystem) -> CoverFreeFamily {
        let v = sts.points();
        let blocks = sts
            .triples()
            .iter()
            .map(|t| BitSet::from_iter(v, t.iter().copied()))
            .collect();
        CoverFreeFamily { ground: v, blocks }
    }

    /// Ground-set size (`L`, the frame length of the induced schedule).
    pub fn ground_size(&self) -> usize {
        self.ground
    }

    /// Number of blocks (`n`, the node population).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if the family has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The blocks.
    pub fn blocks(&self) -> &[BitSet] {
        &self.blocks
    }

    /// The smallest block size — a lower bound on per-frame transmission
    /// opportunities in the induced schedule.
    pub fn min_block_size(&self) -> usize {
        self.blocks.iter().map(BitSet::len).min().unwrap_or(0)
    }

    /// Exhaustively checks D-cover-freeness; returns the first violation
    /// `(x, Y)` found (block `x` covered by the union of blocks `Y`).
    ///
    /// Runs on the incremental subset engine: blocks are masked to the
    /// candidate block `x` once, then a revolving-door enumeration updates
    /// a [`CoverCounter`] by one swapped block per subset instead of
    /// rebuilding a `D`-way union — with a witness-safe counting-bound
    /// prune that skips any `x` whose `D` largest masked intersections
    /// cannot total `|block x|` points. Experiment E5 uses this up to a
    /// few hundred nodes at D = 2.
    pub fn find_violation(&self, d: usize) -> Option<(usize, Vec<usize>)> {
        let n = self.blocks.len();
        let mut others: Vec<usize> = Vec::with_capacity(n);
        let mut masked: Vec<BitSet> = vec![BitSet::new(self.ground); n];
        let mut sizes: Vec<usize> = Vec::with_capacity(n);
        let mut all_union = BitSet::new(self.ground);
        let mut counter = CoverCounter::new(self.ground);
        for x in 0..n {
            others.clear();
            others.extend((0..n).filter(|&y| y != x));
            if others.len() < d {
                continue;
            }
            let target = &self.blocks[x];
            sizes.clear();
            all_union.clear();
            for &y in &others {
                masked[y].clone_from(&self.blocks[y]);
                masked[y].intersect_with(target);
                sizes.push(masked[y].len());
                all_union.union_with(&masked[y]);
            }
            // Witness-safe prunes: no D-subset can cover block x if even
            // the whole family misses one of its points, or if the D
            // largest intersections fall short of |block x|.
            if !target.difference_is_empty(&all_union) {
                continue;
            }
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            if sizes.iter().take(d).sum::<usize>() < target.len() {
                continue;
            }
            counter.set_target(target);
            let mut found: Option<Vec<usize>> = None;
            for_each_subset_delta(&others, d, |ev| match ev {
                SubsetEvent::Add(y) => {
                    counter.add(&masked[y]);
                    true
                }
                SubsetEvent::Remove(y) => {
                    counter.remove(&masked[y]);
                    true
                }
                SubsetEvent::Visit(ys) => {
                    if counter.is_covered() {
                        found = Some(ys.to_vec());
                        false
                    } else {
                        true
                    }
                }
            });
            if let Some(ys) = found {
                return Some((x, ys));
            }
        }
        None
    }

    /// Reference implementation of [`Self::find_violation`]: same revolving-door
    /// enumeration order (hence the identical witness), but every union
    /// rebuilt from scratch and no pruning. Baseline for the equivalence
    /// tests and the `bench_all` `verify` family.
    pub fn find_violation_naive(&self, d: usize) -> Option<(usize, Vec<usize>)> {
        let n = self.blocks.len();
        let mut union = BitSet::new(self.ground);
        let mut others: Vec<usize> = Vec::with_capacity(n);
        for x in 0..n {
            others.clear();
            others.extend((0..n).filter(|&y| y != x));
            let mut found: Option<Vec<usize>> = None;
            for_each_subset_delta(&others, d, |ev| {
                if let SubsetEvent::Visit(ys) = ev {
                    union.clear();
                    for &y in ys {
                        union.union_with(&self.blocks[y]);
                    }
                    if self.blocks[x].is_subset(&union) {
                        found = Some(ys.to_vec());
                        return false;
                    }
                }
                true
            });
            if let Some(ys) = found {
                return Some((x, ys));
            }
        }
        None
    }

    /// `true` if the family is D-cover-free (exhaustive).
    pub fn is_d_cover_free(&self, d: usize) -> bool {
        self.find_violation(d).is_none()
    }

    /// The largest `D` for which the family is D-cover-free, determined
    /// exhaustively (tests only; monotone in `D`, so linear scan).
    pub fn max_cover_free_degree(&self) -> usize {
        let n = self.blocks.len();
        if n < 2 {
            return n.saturating_sub(1);
        }
        let mut d = 0;
        while d + 1 < n && self.is_d_cover_free(d + 1) {
            d += 1;
        }
        d
    }
}

/// Enumerates D-subsets of `[0, n)` — re-exported shim kept for callers that
/// iterate neighbourhood candidates the same way the verifier does.
pub fn for_each_d_subset(n: usize, d: usize, f: impl FnMut(&[usize]) -> bool) {
    for_each_subset(n, d, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_family_is_maximally_cover_free() {
        let f = CoverFreeFamily::identity(6);
        assert_eq!(f.len(), 6);
        assert_eq!(f.ground_size(), 6);
        assert_eq!(f.min_block_size(), 1);
        assert!(f.is_d_cover_free(5));
        assert_eq!(f.max_cover_free_degree(), 5);
    }

    #[test]
    fn polynomial_family_guarantee_holds() {
        // q = 5, k = 1: D ≤ (5−1)/1 = 4 guaranteed; blocks have size q = 5.
        let gf = Gf::new(5).unwrap();
        let f = CoverFreeFamily::from_polynomials(&gf, 1, 25);
        assert_eq!(f.len(), 25);
        assert_eq!(f.ground_size(), 25);
        assert_eq!(f.min_block_size(), 5);
        assert!(f.is_d_cover_free(2));
        // Full D = 4 check is C(24,4)·25 ≈ 270k unions — still fine.
        assert!(f.is_d_cover_free(4));
    }

    #[test]
    fn polynomial_family_guarantee_is_tight() {
        // q = 3, k = 1: guaranteed D = 2; with all 9 polynomials D = 3 must
        // fail (three lines through distinct points cover a fourth's block).
        let gf = Gf::new(3).unwrap();
        let f = CoverFreeFamily::from_polynomials(&gf, 1, 9);
        assert!(f.is_d_cover_free(2));
        assert!(!f.is_d_cover_free(3));
    }

    #[test]
    fn steiner_family_is_2_cover_free() {
        let sts = SteinerTripleSystem::new(9).unwrap();
        let f = CoverFreeFamily::from_steiner(&sts);
        assert_eq!(f.len(), 12);
        assert_eq!(f.ground_size(), 9);
        assert_eq!(f.min_block_size(), 3);
        assert!(f.is_d_cover_free(2));
        assert!(
            !f.is_d_cover_free(3),
            "triples of size 3 cannot survive D=3"
        );
    }

    #[test]
    fn from_tsma_params_roundtrip() {
        let params = TsmaParams::search(20, 2).unwrap();
        let f = CoverFreeFamily::from_tsma_params(&params, 20);
        assert_eq!(f.len(), 20);
        assert_eq!(f.ground_size(), params.frame_length() as usize);
        assert!(f.is_d_cover_free(2));
    }

    #[test]
    fn violation_is_reported_concretely() {
        // Two identical blocks: 1-cover-free fails with a concrete witness.
        let blocks = vec![
            BitSet::from_iter(4, [0, 1]),
            BitSet::from_iter(4, [0, 1]),
            BitSet::from_iter(4, [2, 3]),
        ];
        let f = CoverFreeFamily::from_blocks(4, blocks);
        let (x, ys) = f.find_violation(1).unwrap();
        assert!(x <= 1 && ys.len() == 1);
        assert_eq!(f.max_cover_free_degree(), 0);
    }

    #[test]
    fn incremental_verifier_matches_naive() {
        let gf3 = Gf::new(3).unwrap();
        let gf4 = Gf::new(4).unwrap();
        let sts = SteinerTripleSystem::new(9).unwrap();
        let families = vec![
            CoverFreeFamily::identity(6),
            CoverFreeFamily::from_polynomials(&gf3, 1, 9),
            CoverFreeFamily::from_polynomials(&gf4, 1, 16),
            CoverFreeFamily::from_steiner(&sts),
            CoverFreeFamily::from_blocks(
                4,
                vec![
                    BitSet::from_iter(4, [0, 1]),
                    BitSet::from_iter(4, [0, 1]),
                    BitSet::from_iter(4, [2, 3]),
                ],
            ),
        ];
        for f in &families {
            for d in 1..=3.min(f.len().saturating_sub(1)) {
                assert_eq!(
                    f.find_violation(d),
                    f.find_violation_naive(d),
                    "n={} d={d}",
                    f.len()
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_families() {
        let f = CoverFreeFamily::from_blocks(3, vec![]);
        assert!(f.is_empty());
        assert_eq!(f.max_cover_free_degree(), 0);
        let g = CoverFreeFamily::from_blocks(3, vec![BitSet::from_iter(3, [0])]);
        assert_eq!(g.max_cover_free_degree(), 0);
        assert_eq!(g.min_block_size(), 1);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universe_rejected() {
        CoverFreeFamily::from_blocks(4, vec![BitSet::new(5)]);
    }
}
