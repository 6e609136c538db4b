//! Demand triples and candidate slots: the set-cover view of synthesis.
//!
//! Requirement 3 (topology transparency for maximum degree `D`) says: for
//! every node `x`, every `D`-subset `Y ⊆ V ∖ {x}` of potential neighbors,
//! and every `y ∈ Y`, some slot lets `x` reach `y` even if all of `Y` is
//! interfering — i.e. a slot whose transmitter set contains `x`, avoids all
//! of `Y`, and whose receiver set contains `y`. Each triple `(x, Y, y)` is
//! one *demand*; a schedule satisfies Requirement 3 exactly when its slots
//! cover every demand. Minimizing frame length is therefore a minimum
//! set-cover problem over the candidate-slot space, which is what the
//! branch-and-bound in [`super::search`] solves.
//!
//! Candidate slots are `(T, R)` pairs with `1 ≤ |T| ≤ α_T`, `R ⊆ V ∖ T`,
//! and `|R| = min(α_R, n − |T|)`: receivers never interfere, so a
//! non-maximal `R` is dominated by any maximal superset and can be dropped
//! without losing optimality (transmitters *can* interfere, so `|T|` ranges
//! over all sizes).

use crate::schedule::Schedule;
use ttdc_util::{for_each_subset_of, BitSet};

/// One Requirement-3 demand triple `(x, Y, y)` with `y ∈ Y`.
#[derive(Clone, Debug)]
pub struct Demand {
    /// Transmitting node.
    pub x: usize,
    /// Intended receiver (a member of the interferer group).
    pub y: usize,
    /// The full `D`-subset `Y` (includes `y`).
    pub group: BitSet,
}

/// All demand triples for `(n, D)`, in canonical order: `x` ascending,
/// `Y` in lexicographic subset order, `y` ascending within `Y`.
#[derive(Clone, Debug)]
pub struct DemandSpace {
    n: usize,
    d: usize,
    demands: Vec<Demand>,
}

impl DemandSpace {
    /// Enumerates every demand for `n` nodes at maximum degree `d`.
    /// `|demands| = n · C(n−1, d) · d`.
    pub fn new(n: usize, d: usize) -> DemandSpace {
        assert!(d >= 1 && n > d, "need 1 ≤ D < n (n = {n}, D = {d})");
        let mut demands = Vec::new();
        for x in 0..n {
            let pool: Vec<usize> = (0..n).filter(|&v| v != x).collect();
            for_each_subset_of(&pool, d, |ys| {
                let group = BitSet::from_iter(n, ys.iter().copied());
                for &y in ys {
                    demands.push(Demand {
                        x,
                        y,
                        group: group.clone(),
                    });
                }
                true
            });
        }
        DemandSpace { n, d, demands }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Maximum degree the demands encode.
    pub fn degree(&self) -> usize {
        self.d
    }

    /// Number of demand triples.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// `true` when there are no demands (never for valid `(n, d)`).
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// The demand triples in canonical order.
    pub fn demands(&self) -> &[Demand] {
        &self.demands
    }

    /// `true` iff slot `(t, r)` covers demand `i`: `x ∈ T`, `T ∩ Y = ∅`,
    /// `y ∈ R`.
    pub fn covers(&self, i: usize, t: &BitSet, r: &BitSet) -> bool {
        let dem = &self.demands[i];
        t.contains(dem.x) && t.is_disjoint(&dem.group) && r.contains(dem.y)
    }
}

/// One candidate slot with its precomputed demand coverage.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Transmitter set.
    pub t: BitSet,
    /// Receiver set (maximal: `|R| = min(α_R, n − |T|)`).
    pub r: BitSet,
    /// Bitmask over demand ids this slot covers.
    pub coverage: BitSet,
}

/// The full candidate-slot space for `(n, D, α_T, α_R)`, in canonical
/// order (`|T|` ascending, then `T` lexicographic, then `R` lexicographic)
/// with a per-demand supplier index.
#[derive(Clone, Debug)]
pub struct CandidateSpace {
    /// Candidates that cover at least one demand, canonical order.
    pub cands: Vec<Candidate>,
    /// `suppliers[i]` = candidate ids covering demand `i`, ascending.
    pub suppliers: Vec<Vec<u32>>,
    /// Largest single-candidate coverage (the deficit bound's unit).
    pub max_gain: usize,
}

impl CandidateSpace {
    /// Enumerates every useful candidate slot and indexes it by demand.
    pub fn new(space: &DemandSpace, alpha_t: usize, alpha_r: usize) -> CandidateSpace {
        let n = space.num_nodes();
        assert!(alpha_t >= 1 && alpha_r >= 1, "need α_T, α_R ≥ 1");
        let all: Vec<usize> = (0..n).collect();
        let mut cands = Vec::new();
        for tsize in 1..=alpha_t.min(n) {
            let rsize = alpha_r.min(n - tsize);
            if rsize == 0 {
                continue; // T = V: nobody can receive.
            }
            for_each_subset_of(&all, tsize, |ts| {
                let t = BitSet::from_iter(n, ts.iter().copied());
                let rest: Vec<usize> = (0..n).filter(|&v| !t.contains(v)).collect();
                for_each_subset_of(&rest, rsize, |rs| {
                    let r = BitSet::from_iter(n, rs.iter().copied());
                    let mut coverage = BitSet::new(space.len());
                    for i in 0..space.len() {
                        if space.covers(i, &t, &r) {
                            coverage.insert(i);
                        }
                    }
                    if !coverage.is_empty() {
                        cands.push(Candidate {
                            t: t.clone(),
                            r,
                            coverage,
                        });
                    }
                    true
                });
                true
            });
        }
        let mut suppliers = vec![Vec::new(); space.len()];
        let mut max_gain = 0;
        for (c, cand) in cands.iter().enumerate() {
            max_gain = max_gain.max(cand.coverage.len());
            for i in cand.coverage.iter() {
                suppliers[i].push(c as u32);
            }
        }
        CandidateSpace {
            cands,
            suppliers,
            max_gain,
        }
    }

    /// Builds the schedule for a set of candidate ids (sorted ascending —
    /// the canonical slot order the search reports).
    pub fn schedule(&self, n: usize, slots: &[u32]) -> Schedule {
        let t = slots
            .iter()
            .map(|&c| self.cands[c as usize].t.clone())
            .collect();
        let r = slots
            .iter()
            .map(|&c| self.cands[c as usize].r.clone())
            .collect();
        Schedule::new(n, t, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_count_matches_formula() {
        // n · C(n−1, d) · d
        let s = DemandSpace::new(5, 2);
        assert_eq!(s.len(), 5 * 6 * 2);
        let s = DemandSpace::new(6, 1);
        assert_eq!(s.len(), 6 * 5);
    }

    #[test]
    fn coverage_matches_definition() {
        let s = DemandSpace::new(4, 2);
        let t = BitSet::from_iter(4, [0]);
        let r = BitSet::from_iter(4, [1, 2]);
        for (i, dem) in s.demands().iter().enumerate() {
            let expect = dem.x == 0 && !dem.group.contains(0) && r.contains(dem.y);
            assert_eq!(s.covers(i, &t, &r), expect, "demand {i}");
        }
    }

    #[test]
    fn every_demand_has_a_supplier() {
        for (n, d, at, ar) in [(5, 1, 1, 1), (5, 2, 1, 2), (6, 2, 2, 2)] {
            let space = DemandSpace::new(n, d);
            let cs = CandidateSpace::new(&space, at, ar);
            assert!(
                cs.suppliers.iter().all(|s| !s.is_empty()),
                "({n},{d},{at},{ar})"
            );
        }
    }

    #[test]
    fn candidates_respect_alpha_caps_and_maximal_r() {
        let space = DemandSpace::new(6, 2);
        let cs = CandidateSpace::new(&space, 2, 3);
        assert!(!cs.cands.is_empty());
        for c in &cs.cands {
            assert!(!c.t.is_empty() && c.t.len() <= 2);
            assert_eq!(c.r.len(), 3.min(6 - c.t.len()));
            assert!(c.t.is_disjoint(&c.r));
        }
    }
}
