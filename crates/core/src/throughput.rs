//! Worst-case throughput (§5, Definitions 1–2 and Theorem 2).
//!
//! The paper measures schedules by their throughput in the *worst case*:
//! every node has exactly `D` neighbours and every neighbour is saturated.
//! `𝒯(x, y, S)` is the set of slots in which a transmission from `x` to `y`
//! is guaranteed to succeed when `y`'s other neighbours are `S`; the
//! *minimum* throughput (Definition 1) takes the worst `(x, y, S)`, the
//! *average* throughput (Definition 2) averages `|𝒯|` over all `(x, y, S)`.
//! Theorem 2 collapses the latter to a closed form that depends only on the
//! per-slot transmitter/receiver **counts** — this module implements both
//! the closed form and the brute-force enumeration it is validated against,
//! plus the fixed-topology variant used by the Figure-1 experiment.

use crate::schedule::Schedule;
use rayon::prelude::*;
use ttdc_util::{
    for_each_subset_delta, for_each_subset_of, BinomialTable, BitSet, CoverCounter, SubsetEvent,
};

/// `𝒯(x, y, S) = recv(y) ∩ freeSlots(x, {y} ∪ S)`: slots where `x → y` is
/// guaranteed to succeed when `y`'s other neighbours are `S`.
pub fn guaranteed_slots(s: &Schedule, x: usize, y: usize, others: &[usize]) -> BitSet {
    let mut out = s.recv(y).clone();
    out.intersect_with(s.tran(x));
    out.difference_with(s.tran(y));
    for &z in others {
        out.difference_with(s.tran(z));
    }
    out
}

/// Per-transmitter scratch for the incremental `(x, y, S)` sweeps: the
/// interferer pool, the base set `recv(y) ∩ tran(x) − tran(y)`, the pool's
/// transmit sets masked to the base, and the cover counter whose residual
/// is exactly `𝒯(x, y, S)`.
pub(crate) struct SweepScratch {
    pub(crate) pool: Vec<usize>,
    pub(crate) base: BitSet,
    pub(crate) masked: Vec<BitSet>,
    pub(crate) counter: CoverCounter,
}

impl SweepScratch {
    pub(crate) fn new(n: usize, l: usize) -> Self {
        SweepScratch {
            pool: Vec::with_capacity(n),
            base: BitSet::new(l),
            masked: vec![BitSet::new(l); n],
            counter: CoverCounter::new(l),
        }
    }

    /// Prepares the scratch for one `(x, y)` pair: rebuilds the pool and
    /// base set, masks the pool's transmit sets, and retargets the counter.
    pub(crate) fn prepare(&mut self, s: &Schedule, x: usize, y: usize) {
        let n = s.num_nodes();
        self.pool.clear();
        self.pool.extend((0..n).filter(|&v| v != x && v != y));
        self.base.clone_from(s.recv(y));
        self.base.intersect_with(s.tran(x));
        self.base.difference_with(s.tran(y));
        for &z in &self.pool {
            self.masked[z].clone_from(s.tran(z));
            self.masked[z].intersect_with(&self.base);
        }
        self.counter.set_target(&self.base);
    }

    /// Runs the revolving-door enumeration over `(D−1)`-sets of the pool,
    /// keeping `counter` in sync; `visit(counter)` sees
    /// `counter.deficit() = |𝒯(x, y, S)|` per subset and returns `false` to
    /// abort.
    pub(crate) fn sweep(&mut self, d: usize, mut visit: impl FnMut(&CoverCounter) -> bool) {
        let SweepScratch {
            pool,
            masked,
            counter,
            ..
        } = self;
        for_each_subset_delta(pool, d - 1, |ev| match ev {
            SubsetEvent::Add(z) => {
                counter.add(&masked[z]);
                true
            }
            SubsetEvent::Remove(z) => {
                counter.remove(&masked[z]);
                true
            }
            SubsetEvent::Visit(_) => visit(counter),
        });
    }

    /// Like [`sweep`](Self::sweep) but in **lexicographic** subset order —
    /// for callers that accumulate floating-point per subset and must
    /// reproduce the historical iteration order bit-for-bit
    /// (`average_access_delay`).
    pub(crate) fn sweep_lex(&mut self, d: usize, mut visit: impl FnMut(&CoverCounter) -> bool) {
        let SweepScratch {
            pool,
            masked,
            counter,
            ..
        } = self;
        ttdc_util::for_each_subset_delta_lex(pool, d - 1, |ev| match ev {
            SubsetEvent::Add(z) => {
                counter.add(&masked[z]);
                true
            }
            SubsetEvent::Remove(z) => {
                counter.remove(&masked[z]);
                true
            }
            SubsetEvent::Visit(_) => visit(counter),
        });
    }
}

/// Definition 1: the minimum worst-case throughput
/// `min_{x,y,S} |𝒯(x,y,S)| / L` over all `x ≠ y` and `|S| = D−1`,
/// computed exhaustively (parallel over the transmitter, incremental
/// subset engine inside).
///
/// The schedule is topology-transparent for `N_n^D` iff this is `> 0`.
pub fn min_throughput(s: &Schedule, d: usize) -> f64 {
    assert!(d >= 1);
    let n = s.num_nodes();
    assert!(n > d, "need at least D+1 nodes for a degree-D worst case");
    let l = s.frame_length();
    let min_count = (0..n)
        .into_par_iter()
        .map(|x| {
            let mut local = usize::MAX;
            let mut scratch = SweepScratch::new(n, l);
            for y in 0..n {
                if y == x {
                    continue;
                }
                scratch.prepare(s, x, y);
                scratch.sweep(d, |counter| {
                    local = local.min(counter.deficit());
                    local > 0 // a zero cannot be beaten; stop early
                });
                if local == 0 {
                    break;
                }
            }
            local
        })
        .min()
        .unwrap_or(0);
    min_count as f64 / l as f64
}

/// Reference implementation of [`min_throughput`]: the pre-engine scan
/// that rebuilds every `𝒯(x, y, S)` from scratch. Kept as the equivalence
/// baseline for proptests.
pub fn min_throughput_naive(s: &Schedule, d: usize) -> f64 {
    assert!(d >= 1);
    let n = s.num_nodes();
    assert!(n > d, "need at least D+1 nodes for a degree-D worst case");
    let l = s.frame_length();
    let min_count = (0..n)
        .into_par_iter()
        .map(|x| {
            let mut local = usize::MAX;
            let mut scratch = BitSet::new(l);
            for y in 0..n {
                if y == x {
                    continue;
                }
                let pool: Vec<usize> = (0..n).filter(|&v| v != x && v != y).collect();
                for_each_subset_of(&pool, d - 1, |others| {
                    scratch.clear();
                    scratch.union_with(s.recv(y));
                    scratch.intersect_with(s.tran(x));
                    scratch.difference_with(s.tran(y));
                    for &z in others {
                        scratch.difference_with(s.tran(z));
                    }
                    local = local.min(scratch.len());
                    local > 0 // a zero cannot be beaten; stop early
                });
                if local == 0 {
                    break;
                }
            }
            local
        })
        .min()
        .unwrap_or(0);
    min_count as f64 / l as f64
}

/// Definition 2 computed by brute force: enumerates every `(x, y, S)` and
/// sums `|𝒯(x, y, S)|` into `F`, then normalises. Exponential in `D`;
/// the ground truth that [`average_throughput`] is validated against.
/// The exact-integer accumulation makes the enumeration order irrelevant,
/// so the incremental engine returns the bit-identical f64.
pub fn average_throughput_bruteforce(s: &Schedule, d: usize) -> f64 {
    assert!(d >= 1);
    let n = s.num_nodes();
    assert!(n > d);
    let l = s.frame_length();
    let f: u128 = (0..n)
        .into_par_iter()
        .map(|x| {
            let mut acc: u128 = 0;
            let mut scratch = SweepScratch::new(n, l);
            for y in 0..n {
                if y == x {
                    continue;
                }
                scratch.prepare(s, x, y);
                scratch.sweep(d, |counter| {
                    acc += counter.deficit() as u128;
                    true
                });
            }
            acc
        })
        .sum();
    let denom = n as f64
        * (n - 1) as f64
        * ttdc_util::binomial_f64((n - 2) as u64, (d - 1) as u64)
        * l as f64;
    f as f64 / denom
}

/// Reference implementation of [`average_throughput_bruteforce`] — the
/// pre-engine from-scratch scan, kept as the equivalence baseline.
pub fn average_throughput_bruteforce_naive(s: &Schedule, d: usize) -> f64 {
    assert!(d >= 1);
    let n = s.num_nodes();
    assert!(n > d);
    let l = s.frame_length();
    let f: u128 = (0..n)
        .into_par_iter()
        .map(|x| {
            let mut acc: u128 = 0;
            let mut scratch = BitSet::new(l);
            for y in 0..n {
                if y == x {
                    continue;
                }
                let pool: Vec<usize> = (0..n).filter(|&v| v != x && v != y).collect();
                for_each_subset_of(&pool, d - 1, |others| {
                    scratch.clear();
                    scratch.union_with(s.recv(y));
                    scratch.intersect_with(s.tran(x));
                    scratch.difference_with(s.tran(y));
                    for &z in others {
                        scratch.difference_with(s.tran(z));
                    }
                    acc += scratch.len() as u128;
                    true
                });
            }
            acc
        })
        .sum();
    let denom = n as f64
        * (n - 1) as f64
        * ttdc_util::binomial_f64((n - 2) as u64, (d - 1) as u64)
        * l as f64;
    f as f64 / denom
}

/// Theorem 2: the average worst-case throughput in closed form,
///
/// ```text
///            Σ_i |T[i]| · |R[i]| · C(n−|T[i]|−1, D−1)
/// Thr_ave = ───────────────────────────────────────────
///                  n (n−1) C(n−2, D−1) L
/// ```
///
/// It depends only on the per-slot counts, not on *which* nodes are
/// scheduled — the observation driving the whole of §5.
pub fn average_throughput(s: &Schedule, d: usize) -> f64 {
    assert!(d >= 1);
    let n = s.num_nodes();
    assert!(n > d);
    let l = s.frame_length();
    // Every slot needs C(n−t−1, D−1)/C(n−2, D−1) for its own t; memoize the
    // whole family once instead of re-deriving the factor product per slot.
    let ratios = BinomialTable::new((n - 2) as u64, (d - 1) as u64);
    let sum: f64 = (0..l)
        .map(|i| {
            let t = s.transmitters(i).len();
            let r = s.receivers(i).len();
            if t == 0 || r == 0 || n < t + 1 {
                return 0.0;
            }
            // |T[i]|·|R[i]| · C(n−t−1, D−1)/C(n−2, D−1)
            t as f64 * r as f64 * ratios.ratio((n - t - 1) as u64)
        })
        .sum();
    sum / (n as f64 * (n - 1) as f64 * l as f64)
}

/// Average throughput from per-slot counts alone — the form used by the
/// bound sweeps (no schedule object required).
pub fn average_throughput_from_counts(n: usize, d: usize, counts: &[(usize, usize)]) -> f64 {
    assert!(d >= 1 && n > d);
    let l = counts.len();
    let ratios = BinomialTable::new((n - 2) as u64, (d - 1) as u64);
    let sum: f64 = counts
        .iter()
        .map(|&(t, r)| {
            if t == 0 || r == 0 || n < t + 1 {
                return 0.0;
            }
            t as f64 * r as f64 * ratios.ratio((n - t - 1) as u64)
        })
        .sum();
    sum / (n as f64 * (n - 1) as f64 * l as f64)
}

/// Per-link guaranteed successes on a **fixed topology** (the Figure-1
/// setting): for each directed edge `(x, y)` of the adjacency structure,
/// the number of slots per frame in which `x → y` is guaranteed, i.e.
/// `|recv(y) ∩ freeSlots(x, N(y) ∪ {y} − {x})|`.
///
/// `adjacency[v]` is the neighbour set of `v` (universe `n`, symmetric).
pub fn topology_link_throughput(s: &Schedule, adjacency: &[BitSet]) -> Vec<(usize, usize, usize)> {
    let n = s.num_nodes();
    assert_eq!(adjacency.len(), n, "adjacency size mismatch");
    let mut out = Vec::new();
    let mut scratch = BitSet::new(s.frame_length());
    for (y, nbrs) in adjacency.iter().enumerate() {
        for x in nbrs {
            // Guaranteed slots for x → y with y's actual neighbourhood.
            scratch.clear();
            scratch.union_with(s.recv(y));
            scratch.intersect_with(s.tran(x));
            scratch.difference_with(s.tran(y));
            for z in nbrs {
                if z != x {
                    scratch.difference_with(s.tran(z));
                }
            }
            out.push((x, y, scratch.len()));
        }
    }
    out
}

/// Aggregate of [`topology_link_throughput`]: `(min, mean)` guaranteed
/// successes per frame over all directed links.
pub fn topology_throughput_summary(s: &Schedule, adjacency: &[BitSet]) -> (usize, f64) {
    let links = topology_link_throughput(s, adjacency);
    if links.is_empty() {
        return (0, 0.0);
    }
    let min = links.iter().map(|&(_, _, c)| c).min().unwrap();
    let mean = links.iter().map(|&(_, _, c)| c as f64).sum::<f64>() / links.len() as f64;
    (min, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttdc_combinatorics::CoverFreeFamily;

    fn identity_schedule(n: usize) -> Schedule {
        Schedule::from_cff(&CoverFreeFamily::identity(n))
    }

    fn polynomial_schedule(q: usize, k: u32, n: u64) -> Schedule {
        let gf = ttdc_combinatorics::Gf::new(q).unwrap();
        Schedule::from_cff(&CoverFreeFamily::from_polynomials(&gf, k, n))
    }

    #[test]
    fn guaranteed_slots_identity() {
        let s = identity_schedule(5);
        // x=0 → y=1 with others {2,3}: slot 0 is free and 1 listens there.
        let t = guaranteed_slots(&s, 0, 1, &[2, 3]);
        assert_eq!(t, BitSet::from_iter(5, [0]));
    }

    #[test]
    fn identity_min_throughput_is_one_over_n() {
        for n in [4usize, 6, 8] {
            let s = identity_schedule(n);
            for d in 1..=3 {
                let thr = min_throughput(&s, d);
                assert!((thr - 1.0 / n as f64).abs() < 1e-12, "n={n} d={d}: {thr}");
            }
        }
    }

    #[test]
    fn theorem2_matches_bruteforce_identity() {
        for n in [4usize, 5, 6, 7] {
            for d in 1..=3 {
                if n < d + 1 {
                    continue;
                }
                let s = identity_schedule(n);
                let closed = average_throughput(&s, d);
                let brute = average_throughput_bruteforce(&s, d);
                assert!(
                    (closed - brute).abs() < 1e-12,
                    "n={n} d={d}: closed {closed} vs brute {brute}"
                );
            }
        }
    }

    #[test]
    fn theorem2_matches_bruteforce_polynomial() {
        for (q, k, n) in [(3usize, 1u32, 9u64), (4, 1, 12), (5, 1, 25)] {
            let s = polynomial_schedule(q, k, n);
            for d in 1..=3 {
                let closed = average_throughput(&s, d);
                let brute = average_throughput_bruteforce(&s, d);
                assert!(
                    (closed - brute).abs() < 1e-12,
                    "q={q} n={n} d={d}: {closed} vs {brute}"
                );
            }
        }
    }

    #[test]
    fn theorem2_matches_bruteforce_duty_cycled() {
        // A hand-built sleeping schedule: 4 nodes, 3 slots.
        let t = vec![
            BitSet::from_iter(4, [0, 1]),
            BitSet::from_iter(4, [2]),
            BitSet::from_iter(4, [3]),
        ];
        let r = vec![
            BitSet::from_iter(4, [2, 3]),
            BitSet::from_iter(4, [0]),
            BitSet::from_iter(4, [1, 2]),
        ];
        let s = Schedule::new(4, t, r);
        for d in 1..=2 {
            let closed = average_throughput(&s, d);
            let brute = average_throughput_bruteforce(&s, d);
            assert!((closed - brute).abs() < 1e-12, "d={d}: {closed} vs {brute}");
        }
    }

    #[test]
    fn counts_form_agrees_with_schedule_form() {
        let s = polynomial_schedule(3, 1, 9);
        let counts: Vec<(usize, usize)> = (0..s.frame_length())
            .map(|i| (s.transmitters(i).len(), s.receivers(i).len()))
            .collect();
        for d in 1..=3 {
            assert!(
                (average_throughput(&s, d) - average_throughput_from_counts(9, d, &counts)).abs()
                    < 1e-15
            );
        }
    }

    #[test]
    fn incremental_sweeps_match_naive_to_the_bit() {
        for (q, k, n) in [(3usize, 1u32, 9u64), (4, 1, 12)] {
            let s = polynomial_schedule(q, k, n);
            for d in 1..=3 {
                assert_eq!(
                    min_throughput(&s, d).to_bits(),
                    min_throughput_naive(&s, d).to_bits(),
                    "min q={q} n={n} d={d}"
                );
                assert_eq!(
                    average_throughput_bruteforce(&s, d).to_bits(),
                    average_throughput_bruteforce_naive(&s, d).to_bits(),
                    "avg q={q} n={n} d={d}"
                );
            }
        }
    }

    #[test]
    fn min_throughput_zero_iff_not_transparent() {
        let s = polynomial_schedule(3, 1, 9);
        assert!(min_throughput(&s, 2) > 0.0);
        assert_eq!(min_throughput(&s, 3), 0.0);
        assert!(!crate::requirements::is_topology_transparent(&s, 3));
    }

    #[test]
    fn average_throughput_invariant_under_node_relabeling() {
        // Theorem 2 says only the counts matter: swapping which nodes
        // occupy T[i] leaves the average unchanged.
        let t1 = vec![BitSet::from_iter(5, [0, 1]), BitSet::from_iter(5, [2, 3])];
        let t2 = vec![BitSet::from_iter(5, [3, 4]), BitSet::from_iter(5, [0, 4])];
        let s1 = Schedule::non_sleeping(5, t1);
        let s2 = Schedule::non_sleeping(5, t2);
        for d in 1..=3 {
            assert!((average_throughput(&s1, d) - average_throughput(&s2, d)).abs() < 1e-15);
        }
    }

    #[test]
    fn fixed_topology_throughput_identity_ring() {
        // Ring 0-1-2-3 under the identity schedule: every directed link has
        // exactly 1 guaranteed slot per frame (the transmitter's own slot).
        let s = identity_schedule(4);
        let adj: Vec<BitSet> = (0..4)
            .map(|v| BitSet::from_iter(4, [(v + 1) % 4, (v + 3) % 4]))
            .collect();
        let links = topology_link_throughput(&s, &adj);
        assert_eq!(links.len(), 8, "4 undirected edges = 8 directed links");
        assert!(links.iter().all(|&(_, _, c)| c == 1));
        let (min, mean) = topology_throughput_summary(&s, &adj);
        assert_eq!(min, 1);
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_topology_empty_graph() {
        let s = identity_schedule(3);
        let adj = vec![BitSet::new(3), BitSet::new(3), BitSet::new(3)];
        assert!(topology_link_throughput(&s, &adj).is_empty());
        assert_eq!(topology_throughput_summary(&s, &adj), (0, 0.0));
    }
}
