//! Pinned search effort at the benchmark's design points.
//!
//! The synthesizer's speed work must not change *what* it searches: the
//! node count, the pruned count, exactness and the winning schedule's
//! fingerprint are pinned here for three points, at 1 and at 2 worker
//! threads. The points and options mirror the benchmark's `design`
//! workload: two exact re-proofs seeded at their optimum (so the shared
//! incumbent never tightens and node counts are timing-independent) and
//! one budgeted search finished by the polish.

use rayon::ThreadPoolBuilder;
use ttdc_core::synth::search::SearchOptions;
use ttdc_core::synth::{synthesize, SynthOptions, SynthProblem};

/// `(problem, incumbent seed, node budget, pinned (nodes, pruned, exact,
/// fingerprint))`.
type Pin = (
    (usize, usize, usize, usize),
    Option<usize>,
    Option<u64>,
    (u64, u64, bool, u64),
);

const PINS: &[Pin] = &[
    (
        (6, 2, 1, 3),
        Some(12),
        None,
        (1_044, 766, true, 15_199_936_569_106_689_498),
    ),
    (
        (8, 1, 1, 2),
        None,
        Some(3_000),
        (3_001, 2_007, false, 3_599_809_128_679_481_851),
    ),
    (
        (10, 1, 1, 3),
        Some(30),
        None,
        (449, 421, true, 17_410_935_594_502_508_165),
    ),
];

fn effort(threads: usize, pin: &Pin) -> (u64, u64, bool, u64) {
    let &((n, d, at, ar), incumbent_len, max_nodes, _) = pin;
    let opts = SynthOptions {
        search: SearchOptions {
            incumbent_len,
            max_nodes,
        },
        ..SynthOptions::default()
    };
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail");
    let out = pool.install(|| synthesize(&SynthProblem::new(n, d, at, ar), &opts));
    (
        out.stats.nodes,
        out.stats.pruned,
        out.stats.exact,
        out.fingerprint,
    )
}

#[test]
fn design_points_expand_the_pinned_trees_at_one_and_two_threads() {
    for pin in PINS {
        for threads in [1, 2] {
            assert_eq!(
                effort(threads, pin),
                pin.3,
                "{:?} at {threads} thread(s): (nodes, pruned, exact, fingerprint)",
                pin.0
            );
        }
    }
}
