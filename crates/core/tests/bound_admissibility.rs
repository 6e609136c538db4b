//! Admissibility oracles for the search's lower bounds.
//!
//! Two properties keep the branch-and-bound exact:
//!
//! 1. both bounds (ceiling, LP dual-ascent) are true lower bounds on the
//!    *residual* optimum — checked against an independent brute-force
//!    set-cover solver on randomly covered sub-instances;
//! 2. the pruned search returns the *identical* `(len, lex)` winner as the
//!    prune-free [`exhaustive_cover`], at 1 and at 4 worker threads, here
//!    and at every point of the `bench_all` `synth` sweep.

use proptest::proptest;
use ttdc_core::synth::demands::{CandidateSpace, DemandSpace};
use ttdc_core::synth::search::{
    ceiling_bound, exhaustive_cover, lp_bound, minimum_cover, SearchOptions,
};
use ttdc_util::{BitSet, DualAscent};

/// Parameter points small enough for the brute-force reference.
const POINTS: &[(usize, usize, usize, usize)] = &[
    (4, 1, 1, 1),
    (4, 1, 1, 2),
    (4, 2, 2, 2),
    (5, 1, 1, 2),
    (5, 1, 2, 2),
];

/// The `bench_all` `synth` sweep points not already in [`POINTS`].
const SWEEP_POINTS: &[(usize, usize, usize, usize)] = &[(5, 2, 1, 2), (5, 3, 1, 2), (5, 2, 2, 2)];

/// Independent exact minimum cover of `unc` by candidate coverages:
/// branch on the first uncovered demand, try each of its suppliers.
/// Shares no bound or pruning code with the search under test (the only
/// cut is the trivial "already no shorter than the best found").
fn brute_force_optimum(cands: &CandidateSpace, unc: &BitSet) -> usize {
    fn dfs(cands: &CandidateSpace, unc: &BitSet, depth: usize, best: &mut usize) {
        if unc.is_empty() {
            *best = (*best).min(depth);
            return;
        }
        if depth + 1 >= *best {
            return;
        }
        let e = unc.iter().next().expect("nonempty");
        for &c in &cands.suppliers[e] {
            let mut next = unc.clone();
            next.difference_with(&cands.cands[c as usize].coverage);
            dfs(cands, &next, depth + 1, best);
        }
    }
    let mut best = usize::MAX / 2;
    dfs(cands, unc, 0, &mut best);
    best
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]

    /// Both bounds are admissible on residual instances.
    #[test]
    fn bounds_are_admissible_on_residual_instances(
        point_idx in 0usize..5,
        cover_seed in 0u64..1u64 << 48,
    ) {
        let (n, d, at, ar) = POINTS[point_idx];
        let space = DemandSpace::new(n, d);
        let cands = CandidateSpace::new(&space, at, ar);

        // A pseudo-random partial cover: every third-or-so candidate is
        // "already chosen", leaving a nontrivial residual instance.
        let mut unc = BitSet::from_iter(space.len(), 0..space.len());
        let mut state = cover_seed | 1;
        for c in &cands.cands {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state >> 61 == 0 {
                unc.difference_with(&c.coverage);
            }
        }
        let optimum = brute_force_optimum(&cands, &unc);

        let ceiling = ceiling_bound(unc.len(), cands.max_gain);
        let banned = vec![false; cands.cands.len()];
        let mut lp = DualAscent::new(cands.cands.len());
        let lp_val = lp_bound(&cands, &unc, &banned, &mut lp);

        assert!(
            ceiling <= optimum,
            "({n},{d},{at},{ar}): ceiling {ceiling} > optimum {optimum}"
        );
        assert!(
            lp_val <= optimum,
            "({n},{d},{at},{ar}): lp {lp_val} > optimum {optimum}"
        );
    }
}

/// The pruned search and the prune-free enumeration agree on the exact
/// `(len, lex)` winner — the slot list, not just the length — at 1 and 4
/// worker threads.
#[test]
fn pruned_search_preserves_the_exhaustive_winner() {
    for &(n, d, at, ar) in POINTS.iter().chain(SWEEP_POINTS) {
        let space = DemandSpace::new(n, d);
        let cands = CandidateSpace::new(&space, at, ar);
        let (reference, _) = exhaustive_cover(&space, &cands);
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (pruned, stats) =
                pool.install(|| minimum_cover(&space, &cands, &SearchOptions::default()));
            assert!(stats.exact);
            assert_eq!(
                pruned.slots, reference.slots,
                "({n},{d},{at},{ar}) at {threads} thread(s): winner drifted"
            );
        }
    }
}
