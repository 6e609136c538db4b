//! The topology-transparency requirements of §4 of the paper.
//!
//! * **Requirement 1** (Colbourn-Ling-Syrotiuk): a *non-sleeping* `⟨T⟩` is
//!   topology-transparent for `N_n^D` iff for every node `x` and every set
//!   `Y` of `D` other nodes, `freeSlots(x, Y) ≠ ∅`.
//! * **Requirement 2** (Dukes-Colbourn-Syrotiuk): a general `⟨T,R⟩` is
//!   topology-transparent iff for all `x ≠ y` and every set of `d ≤ D−1`
//!   interferers, `∪_i σ(y_i, y) ⊉ σ(x, y)`.
//! * **Requirement 3** (this paper): equivalently, for every `x` and every
//!   `D`-set `Y`, `freeSlots(x, Y)` is non-empty **and** meets `recv(y_k)`
//!   for every `y_k ∈ Y`.
//!
//! Theorem 1 proves Requirements 2 and 3 equivalent; the property test
//! `req2_iff_req3` in this module checks exactly that, and experiment E1
//! sweeps it over constructed schedules.
//!
//! # Verifier engine
//!
//! The exhaustive checkers run through the incremental subset engine in
//! `ttdc-util`: subsets are enumerated in **revolving-door order**
//! ([`for_each_subset_delta`], one element swapped per step) and the running
//! slot-union is maintained by a [`CoverCounter`] over candidate sets
//! pre-masked to the target, so a step costs `O(|masked set|)` instead of a
//! `d`-way union rebuild over the frame. Two witness-safe prunes run before
//! each enumeration: the *full-pool* check (if even the union of every
//! candidate misses a target slot, no subset can cover) and the *counting
//! bound* (if the `d` largest masked sets total fewer slots than the
//! target, no `d` of them can cover). Both only skip scopes that provably
//! contain no witness.
//!
//! The outer quantifier over the transmitter `x` fans out across the rayon
//! pool under the **deterministic-witness rule**: the reported violation is
//! the minimum over `(x, y, subset-rank)` in revolving-door rank, so the
//! answer is bit-identical at any thread count (an `AtomicUsize` lets
//! larger `x` bail out early without affecting which witness wins). The
//! `*_naive` twins enumerate in the same order but rebuild every union from
//! scratch — they are the reference the proptest equivalence suite and the
//! `bench_all` `verify` speedup/identity family compare against.

use crate::schedule::Schedule;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use ttdc_util::{for_each_subset_delta, splitmix64, BitSet, CoverCounter, SubsetEvent};

/// A witness that a schedule is **not** topology-transparent: transmissions
/// from `x` to `y` (when `y`'s other neighbours are `interferers`) are never
/// guaranteed to succeed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The transmitter.
    pub x: usize,
    /// The intended receiver (`None` for Requirement-1 violations, which
    /// quantify over the whole neighbourhood at once).
    pub y: Option<usize>,
    /// The other nodes in `y`'s neighbourhood.
    pub interferers: Vec<usize>,
}

/// Fills `out` with `[0, n) − excl` (ascending), reusing its allocation.
pub(crate) fn pool_excluding_into(n: usize, excl: &[usize], out: &mut Vec<usize>) {
    out.clear();
    out.extend((0..n).filter(|v| !excl.contains(v)));
}

/// Per-transmitter scratch for the incremental scans: the candidate pool,
/// the candidates' slot sets masked to the current target, and the cover
/// counter — allocated once per `x` work item, reused across `(y, S)`.
struct ScanScratch {
    pool: Vec<usize>,
    masked: Vec<BitSet>,
    sizes: Vec<usize>,
    all_union: BitSet,
    counter: CoverCounter,
}

impl ScanScratch {
    fn new(n: usize, l: usize) -> Self {
        ScanScratch {
            pool: Vec::with_capacity(n),
            masked: vec![BitSet::new(l); n],
            sizes: Vec::with_capacity(n),
            all_union: BitSet::new(l),
            counter: CoverCounter::new(l),
        }
    }

    /// Masks `source(z)` to `target` for every pool candidate `z` and
    /// returns `true` if a `d`-subset of the pool could still cover
    /// `target` — i.e. neither witness-safe prune fires: the union of *all*
    /// masked candidates covers the target (full-pool check), and the `d`
    /// largest masked sets total at least `|target|` slots (counting
    /// bound).
    fn mask_and_prune<'s>(
        &mut self,
        target: &BitSet,
        d: usize,
        source: impl Fn(usize) -> &'s BitSet,
    ) -> bool {
        self.sizes.clear();
        self.all_union.clear();
        for &z in &self.pool {
            let m = &mut self.masked[z];
            m.clone_from(source(z));
            m.intersect_with(target);
            self.sizes.push(m.len());
            self.all_union.union_with(m);
        }
        if !target.difference_is_empty(&self.all_union) {
            return false;
        }
        self.sizes.sort_unstable_by(|a, b| b.cmp(a));
        self.sizes.iter().take(d).sum::<usize>() >= target.len()
    }
}

/// Runs the revolving-door enumeration over the scratch's pool, keeping the
/// cover counter in sync, and calls `visit(subset, counter)` per subset;
/// `visit` returning `false` aborts.
fn scan_subsets(
    scratch: &mut ScanScratch,
    d: usize,
    mut visit: impl FnMut(&[usize], &CoverCounter) -> bool,
) {
    let ScanScratch {
        pool,
        masked,
        counter,
        ..
    } = scratch;
    for_each_subset_delta(pool, d, |ev| match ev {
        SubsetEvent::Add(z) => {
            counter.add(&masked[z]);
            true
        }
        SubsetEvent::Remove(z) => {
            counter.remove(&masked[z]);
            true
        }
        SubsetEvent::Visit(ys) => visit(ys, counter),
    });
}

/// Parallel outer loop over the transmitter with deterministic first-witness
/// selection: `scan(x)` returns `x`'s first witness (in `(y, subset-rank)`
/// order); the global answer is the witness of the smallest such `x`,
/// regardless of thread count. The atomic lets transmitters above an
/// already-found witness skip their scan entirely — a pure speedup, since
/// their result could never win.
fn first_witness_over_x(
    n: usize,
    scan: impl Fn(usize) -> Option<Violation> + Sync,
) -> Option<Violation> {
    let best_x = AtomicUsize::new(usize::MAX);
    let per_x: Vec<Option<Violation>> = (0..n)
        .into_par_iter()
        .map(|x| {
            if best_x.load(Ordering::Relaxed) < x {
                return None;
            }
            let w = scan(x);
            if w.is_some() {
                best_x.fetch_min(x, Ordering::Relaxed);
            }
            w
        })
        .collect();
    per_x.into_iter().flatten().next()
}

/// Incremental Requirement-1 scan of one transmitter: first `Y` (in
/// revolving-door rank) whose transmissions cover `tran(x)`.
fn requirement1_scan_x(s: &Schedule, d: usize, x: usize) -> Option<Violation> {
    let n = s.num_nodes();
    let tx = s.tran(x);
    let mut scratch = ScanScratch::new(n, s.frame_length());
    pool_excluding_into(n, &[x], &mut scratch.pool);
    if scratch.pool.len() < d || !scratch.mask_and_prune(tx, d, |z| s.tran(z)) {
        return None;
    }
    scratch.counter.set_target(tx);
    let mut witness = None;
    scan_subsets(&mut scratch, d, |ys, counter| {
        if counter.is_covered() {
            witness = Some(Violation {
                x,
                y: None,
                interferers: ys.to_vec(),
            });
            false
        } else {
            true
        }
    });
    witness
}

/// Checks Requirement 1 on the transmission part of `s` (ignores `R`):
/// returns the first `(x, Y)` with `freeSlots(x, Y) = ∅`, or `None` if the
/// non-sleeping schedule `⟨T⟩` is topology-transparent for `N_n^D`.
pub fn requirement1_violation(s: &Schedule, d: usize) -> Option<Violation> {
    assert!(d >= 1, "degree bound must be at least 1");
    first_witness_over_x(s.num_nodes(), |x| requirement1_scan_x(s, d, x))
}

/// Reference implementation of [`requirement1_violation`]: same enumeration
/// order, but serial and with every slot-union rebuilt from scratch.
/// Returns the identical witness; exists for the equivalence proptests and
/// the `bench_all` `verify` baseline.
pub fn requirement1_violation_naive(s: &Schedule, d: usize) -> Option<Violation> {
    assert!(d >= 1, "degree bound must be at least 1");
    let n = s.num_nodes();
    let mut union = BitSet::new(s.frame_length());
    let mut pool = Vec::with_capacity(n);
    for x in 0..n {
        pool_excluding_into(n, &[x], &mut pool);
        let mut witness = None;
        for_each_subset_delta(&pool, d, |ev| {
            if let SubsetEvent::Visit(ys) = ev {
                union.clear();
                for &y in ys {
                    union.union_with(s.tran(y));
                }
                if s.tran(x).difference_len(&union) == 0 {
                    witness = Some(ys.to_vec());
                    return false;
                }
            }
            true
        });
        if let Some(ys) = witness {
            return Some(Violation {
                x,
                y: None,
                interferers: ys,
            });
        }
    }
    None
}

/// `true` if `⟨T⟩` satisfies Requirement 1 for degree bound `d`.
pub fn satisfies_requirement1(s: &Schedule, d: usize) -> bool {
    requirement1_violation(s, d).is_none()
}

/// The σ-table: `σ(a, b) = tran(a) ∩ recv(b)` for every ordered pair,
/// cached once per scan (the Requirement-2 sweep reads each entry
/// `Θ(n · C(n−2, d))` times).
fn sigma_table(s: &Schedule) -> Vec<BitSet> {
    let n = s.num_nodes();
    let mut table = Vec::with_capacity(n * n);
    for a in 0..n {
        for b in 0..n {
            table.push(s.sigma(a, b));
        }
    }
    table
}

/// Incremental Requirement-2 scan of one transmitter against a precomputed
/// σ-table.
fn requirement2_scan_x(s: &Schedule, sigma: &[BitSet], dd: usize, x: usize) -> Option<Violation> {
    let n = s.num_nodes();
    let mut scratch = ScanScratch::new(n, s.frame_length());
    for y in 0..n {
        if y == x {
            continue;
        }
        let sigma_xy = &sigma[x * n + y];
        pool_excluding_into(n, &[x, y], &mut scratch.pool);
        if !scratch.mask_and_prune(sigma_xy, dd, |yi| &sigma[yi * n + y]) {
            continue;
        }
        scratch.counter.set_target(sigma_xy);
        let mut witness = None;
        scan_subsets(&mut scratch, dd, |ys, counter| {
            if counter.is_covered() {
                witness = Some(ys.to_vec());
                false
            } else {
                true
            }
        });
        if let Some(ys) = witness {
            return Some(Violation {
                x,
                y: Some(y),
                interferers: ys,
            });
        }
    }
    None
}

/// Checks Requirement 2: returns the first `(x, y, {y_1..y_d})` whose
/// σ-union covers `σ(x, y)`, or `None` if the schedule is
/// topology-transparent for `N_n^D`.
///
/// The requirement quantifies over all `d ≤ D−1`; since the σ-union grows
/// monotonically with the interferer set, it suffices to check the largest
/// admissible `d`, namely `min(D−1, n−2)`.
pub fn requirement2_violation(s: &Schedule, d: usize) -> Option<Violation> {
    assert!(d >= 1, "degree bound must be at least 1");
    let n = s.num_nodes();
    let dd = (d - 1).min(n.saturating_sub(2));
    let sigma = sigma_table(s);
    first_witness_over_x(n, |x| requirement2_scan_x(s, &sigma, dd, x))
}

/// Reference implementation of [`requirement2_violation`]: same enumeration
/// order, serial, σ-sets recomputed and unions rebuilt per subset.
pub fn requirement2_violation_naive(s: &Schedule, d: usize) -> Option<Violation> {
    assert!(d >= 1, "degree bound must be at least 1");
    let n = s.num_nodes();
    let dd = (d - 1).min(n.saturating_sub(2));
    let mut union = BitSet::new(s.frame_length());
    let mut pool = Vec::with_capacity(n);
    for x in 0..n {
        for y in 0..n {
            if x == y {
                continue;
            }
            let sigma_xy = s.sigma(x, y);
            pool_excluding_into(n, &[x, y], &mut pool);
            let mut witness = None;
            for_each_subset_delta(&pool, dd, |ev| {
                if let SubsetEvent::Visit(ys) = ev {
                    union.clear();
                    for &yi in ys {
                        union.union_with(&s.sigma(yi, y));
                    }
                    if sigma_xy.is_subset(&union) {
                        witness = Some(ys.to_vec());
                        return false;
                    }
                }
                true
            });
            if let Some(ys) = witness {
                return Some(Violation {
                    x,
                    y: Some(y),
                    interferers: ys,
                });
            }
        }
    }
    None
}

/// `true` if the schedule satisfies Requirement 2 for degree bound `d`.
pub fn satisfies_requirement2(s: &Schedule, d: usize) -> bool {
    requirement2_violation(s, d).is_none()
}

/// Incremental Requirement-3 scan of one transmitter: maintains
/// `freeSlots(x, Y) = tran(x) − ∪ tran(y)` as the cover counter's residual
/// and tests each `y_k`'s listening set against it.
fn requirement3_scan_x(s: &Schedule, d: usize, x: usize) -> Option<Violation> {
    let n = s.num_nodes();
    let tx = s.tran(x);
    let mut scratch = ScanScratch::new(n, s.frame_length());
    pool_excluding_into(n, &[x], &mut scratch.pool);
    if scratch.pool.len() < d {
        return None;
    }
    // No prune here: Requirement 3 fails on *uncovered-but-unheard* slots,
    // which the coverage bounds say nothing about. Masking still applies.
    scratch.sizes.clear();
    for i in 0..scratch.pool.len() {
        let z = scratch.pool[i];
        scratch.masked[z].clone_from(s.tran(z));
        scratch.masked[z].intersect_with(tx);
    }
    scratch.counter.set_target(tx);
    let mut witness = None;
    scan_subsets(&mut scratch, d, |ys, counter| {
        // freeSlots(x, Y) is exactly the residual target − union.
        let free = counter.uncovered();
        // Condition (2): every y_k must be able to listen in a free slot.
        // (Condition (1), freeSlots ≠ ∅, is implied.)
        for &yk in ys {
            if s.recv(yk).is_disjoint(free) {
                witness = Some(Violation {
                    x,
                    y: Some(yk),
                    interferers: ys.iter().copied().filter(|&v| v != yk).collect(),
                });
                return false;
            }
        }
        true
    });
    witness
}

/// Checks Requirement 3: returns the first `(x, Y, y_k)` with
/// `recv(y_k) ∩ freeSlots(x, Y) = ∅`, or `None` if the schedule is
/// topology-transparent for `N_n^D`.
pub fn requirement3_violation(s: &Schedule, d: usize) -> Option<Violation> {
    assert!(d >= 1, "degree bound must be at least 1");
    first_witness_over_x(s.num_nodes(), |x| requirement3_scan_x(s, d, x))
}

/// Reference implementation of [`requirement3_violation`]: same enumeration
/// order, serial, `freeSlots` rebuilt from scratch per subset.
pub fn requirement3_violation_naive(s: &Schedule, d: usize) -> Option<Violation> {
    assert!(d >= 1, "degree bound must be at least 1");
    let n = s.num_nodes();
    let mut free = BitSet::new(s.frame_length());
    let mut pool = Vec::with_capacity(n);
    for x in 0..n {
        pool_excluding_into(n, &[x], &mut pool);
        let mut witness = None;
        for_each_subset_delta(&pool, d, |ev| {
            if let SubsetEvent::Visit(ys) = ev {
                free.clear();
                free.union_with(s.tran(x));
                for &y in ys {
                    free.difference_with(s.tran(y));
                }
                for &yk in ys {
                    if s.recv(yk).intersection_len(&free) == 0 {
                        witness = Some((yk, ys.to_vec()));
                        return false;
                    }
                }
            }
            true
        });
        if let Some((yk, ys)) = witness {
            return Some(Violation {
                x,
                y: Some(yk),
                interferers: ys.into_iter().filter(|&v| v != yk).collect(),
            });
        }
    }
    None
}

/// `true` if the schedule satisfies Requirement 3 for degree bound `d`.
pub fn satisfies_requirement3(s: &Schedule, d: usize) -> bool {
    requirement3_violation(s, d).is_none()
}

/// The paper's definition of topology transparency for `N_n^D` — an alias
/// for Requirement 3 (Theorem 1 shows it equivalent to Requirement 2).
pub fn is_topology_transparent(s: &Schedule, d: usize) -> bool {
    satisfies_requirement3(s, d)
}

/// Randomized spot check: draws `samples` random `(x, Y)` pairs and tests
/// Requirement 3 on each. Finding a violation proves the schedule is *not*
/// topology-transparent; finding none is only evidence. Deterministic in
/// `seed`; used for large instances where `C(n−1, D)` is out of reach.
pub fn spot_check_topology_transparent(
    s: &Schedule,
    d: usize,
    samples: usize,
    seed: u64,
) -> Option<Violation> {
    let n = s.num_nodes();
    if n < 2 || d + 1 > n {
        return None;
    }
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || splitmix64(&mut state);
    let mut free = BitSet::new(s.frame_length());
    for _ in 0..samples {
        let x = (next() % n as u64) as usize;
        // Floyd's algorithm for a D-subset of V − {x}.
        let mut ys: Vec<usize> = Vec::with_capacity(d);
        while ys.len() < d {
            let c = (next() % n as u64) as usize;
            if c != x && !ys.contains(&c) {
                ys.push(c);
            }
        }
        free.clear();
        free.union_with(s.tran(x));
        for &y in &ys {
            free.difference_with(s.tran(y));
        }
        for &yk in &ys {
            if s.recv(yk).intersection_len(&free) == 0 {
                return Some(Violation {
                    x,
                    y: Some(yk),
                    interferers: ys.iter().copied().filter(|&v| v != yk).collect(),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttdc_combinatorics::CoverFreeFamily;
    use ttdc_util::BitSet;

    fn identity_schedule(n: usize) -> Schedule {
        Schedule::from_cff(&CoverFreeFamily::identity(n))
    }

    fn polynomial_schedule(q: usize, k: u32, n: u64) -> Schedule {
        let gf = ttdc_combinatorics::Gf::new(q).unwrap();
        Schedule::from_cff(&CoverFreeFamily::from_polynomials(&gf, k, n))
    }

    #[test]
    fn identity_satisfies_everything() {
        let s = identity_schedule(6);
        for d in 1..=5 {
            assert!(satisfies_requirement1(&s, d), "req1 d={d}");
            assert!(satisfies_requirement2(&s, d), "req2 d={d}");
            assert!(satisfies_requirement3(&s, d), "req3 d={d}");
            assert!(is_topology_transparent(&s, d));
            assert!(spot_check_topology_transparent(&s, d, 200, 7).is_none());
        }
    }

    #[test]
    fn polynomial_schedule_transparent_up_to_guarantee() {
        // q = 5, k = 1 → guaranteed for D ≤ 4; n = 25 nodes.
        let s = polynomial_schedule(5, 1, 25);
        assert!(satisfies_requirement1(&s, 2));
        assert!(satisfies_requirement3(&s, 2));
        assert!(satisfies_requirement2(&s, 2));
        assert!(satisfies_requirement3(&s, 4));
    }

    #[test]
    fn polynomial_schedule_fails_beyond_guarantee() {
        // q = 3, k = 1, all 9 nodes: guaranteed only for D ≤ 2; D = 3 must
        // produce a concrete violation.
        let s = polynomial_schedule(3, 1, 9);
        assert!(satisfies_requirement3(&s, 2));
        let v = requirement1_violation(&s, 3).expect("D=3 must fail");
        assert_eq!(v.interferers.len(), 3);
        assert!(requirement3_violation(&s, 3).is_some());
        assert!(requirement2_violation(&s, 3).is_some());
        assert!(!is_topology_transparent(&s, 3));
        assert!(
            spot_check_topology_transparent(&s, 3, 5000, 42).is_some(),
            "a dense violation set should be hit by 5000 samples"
        );
    }

    #[test]
    fn incremental_agrees_with_naive_on_structured_cases() {
        let cases: Vec<(Schedule, usize)> = vec![
            (identity_schedule(5), 2),
            (polynomial_schedule(3, 1, 9), 2),
            (polynomial_schedule(3, 1, 9), 3),
            (polynomial_schedule(4, 1, 16), 3),
            (polynomial_schedule(5, 2, 20), 2),
        ];
        for (s, d) in &cases {
            assert_eq!(
                requirement1_violation(s, *d),
                requirement1_violation_naive(s, *d),
                "req1 n={} d={d}",
                s.num_nodes()
            );
            assert_eq!(
                requirement2_violation(s, *d),
                requirement2_violation_naive(s, *d),
                "req2 n={} d={d}",
                s.num_nodes()
            );
            assert_eq!(
                requirement3_violation(s, *d),
                requirement3_violation_naive(s, *d),
                "req3 n={} d={d}",
                s.num_nodes()
            );
        }
    }

    #[test]
    fn sleeping_schedule_can_break_transparency() {
        // Start from the identity schedule on 4 nodes but make node 3 sleep
        // always (remove it from every R): transmissions to 3 can never
        // succeed, so Requirement 3 (and 2) must fail while Requirement 1
        // (which ignores R) still holds.
        let n = 4;
        let t: Vec<BitSet> = (0..n).map(|i| BitSet::from_iter(n, [i])).collect();
        let r: Vec<BitSet> = (0..n)
            .map(|i| BitSet::from_iter(n, (0..n).filter(|&v| v != i && v != 3)))
            .collect();
        let s = Schedule::new(n, t, r);
        assert!(satisfies_requirement1(&s, 2));
        let v3 = requirement3_violation(&s, 2).unwrap();
        assert_eq!(v3.y, Some(3));
        let v2 = requirement2_violation(&s, 2).unwrap();
        assert_eq!(v2.y, Some(3));
    }

    #[test]
    fn req2_and_req3_agree_on_structured_cases() {
        // Theorem 1 (equivalence), exercised on a mix of transparent and
        // non-transparent schedules.
        let cases: Vec<(Schedule, usize)> = vec![
            (identity_schedule(5), 2),
            (identity_schedule(5), 3),
            (polynomial_schedule(3, 1, 9), 2),
            (polynomial_schedule(3, 1, 9), 3),
            (polynomial_schedule(4, 1, 16), 3),
            (polynomial_schedule(5, 2, 20), 2),
        ];
        for (s, d) in &cases {
            assert_eq!(
                satisfies_requirement2(s, *d),
                satisfies_requirement3(s, *d),
                "n={} d={d}",
                s.num_nodes()
            );
        }
    }

    #[test]
    fn requirement2_catches_empty_sigma() {
        // Node 1 never listens while 0 transmits: σ(0,1) = ∅, so even a
        // single interferer's (empty or not) σ-union covers it.
        let t = vec![
            BitSet::from_iter(3, [0]),
            BitSet::from_iter(3, [1]),
            BitSet::from_iter(3, [2]),
        ];
        let r = vec![
            BitSet::from_iter(3, [2]), // 1 does not listen to 0
            BitSet::from_iter(3, [0, 2]),
            BitSet::from_iter(3, [0, 1]),
        ];
        let s = Schedule::new(3, t, r);
        let v = requirement2_violation(&s, 2).unwrap();
        assert_eq!((v.x, v.y), (0, Some(1)));
    }

    #[test]
    fn small_universe_edge_cases() {
        // n = 2, D = 1: round-robin pair is transparent.
        let t = vec![BitSet::from_iter(2, [0]), BitSet::from_iter(2, [1])];
        let s = Schedule::non_sleeping(2, t);
        assert!(satisfies_requirement1(&s, 1));
        assert!(satisfies_requirement2(&s, 1));
        assert!(satisfies_requirement3(&s, 1));
        // D larger than n−1: vacuous (no D-subset of other nodes exists).
        assert!(satisfies_requirement3(&s, 5));
        assert!(spot_check_topology_transparent(&s, 5, 10, 1).is_none());
    }

    #[test]
    fn spot_check_is_deterministic_in_seed() {
        let s = polynomial_schedule(3, 1, 9);
        let a = spot_check_topology_transparent(&s, 3, 100, 123);
        let b = spot_check_topology_transparent(&s, 3, 100, 123);
        assert_eq!(a, b);
    }
}
