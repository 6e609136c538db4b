//! Branch-and-bound synthesizer trajectory: a bound/pruning ablation
//! ladder (ceiling-only → +matching → +dominance → full default search)
//! against the same search with everything disabled (depth-bounded
//! exhaustive enumeration), at small parameter points where the
//! exhaustive run is still checkable. Every rung of the ladder is
//! asserted to return the *identical* `(len, lex)` winner — not just the
//! same optimum length — and the full-search winner additionally passes
//! the naive Requirement-3 oracle. Each row reports nodes/sec, prune
//! rate, the pruned-vs-exhaustive speedup, and the node-count reduction
//! of the full search relative to the ceiling-only baseline (the PR 9
//! search).
//!
//! A second set of rows, `reproof`, times the default search on a 1-thread
//! pool at the benchmark's design points (two exact re-proofs seeded at
//! their optimum, one budgeted search) plus the larger (6,1,1,2) re-proof.
//! Every row asserts its pinned node count and `(len, lex)` winner, and
//! reports its median against the `baseline_median_ms` recorded for the
//! search before its per-node residual-gain pass.

use crate::{measure, pool, Timing};
use serde_json::{json, Value};
use ttdc_core::requirements::requirement3_violation_naive;
use ttdc_core::synth::demands::{CandidateSpace, DemandSpace};
use ttdc_core::synth::search::{minimum_cover, BoundKind, SearchOptions, SearchStats};
use ttdc_core::synth::SynthProblem;

/// Small exhaustively-checkable parameter points.
const POINTS: &[(usize, usize, usize, usize)] = &[
    (5, 1, 1, 2),
    (5, 2, 1, 2),
    (5, 1, 2, 2),
    (5, 3, 1, 2),
    (5, 2, 2, 2),
];

/// One re-proof row: a parameter point, the search's incumbent seed and
/// node budget, and what the row pins.
struct Reproof {
    point: (usize, usize, usize, usize),
    incumbent_len: Option<usize>,
    max_nodes: Option<u64>,
    /// Nodes the search expands; any change to it fails the row.
    nodes: u64,
    /// The `(len, lex)` winner's candidate ids.
    winner: &'static [u32],
    /// Median wall time (ms) of this row before the per-node residual-gain
    /// pass: the median of three full runs of this harness on the 2-vCPU
    /// host that recorded `BENCH_synth.json`.
    baseline_median_ms: f64,
}

const REPROOFS: &[Reproof] = &[
    Reproof {
        point: (6, 2, 1, 3),
        incumbent_len: Some(12),
        max_nodes: None,
        nodes: 1_044,
        winner: &[0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55],
        baseline_median_ms: 10.70,
    },
    Reproof {
        point: (8, 1, 1, 2),
        incumbent_len: None,
        max_nodes: Some(3_000),
        nodes: 3_001,
        winner: &[
            0, 5, 11, 18, 21, 26, 32, 39, 42, 47, 53, 60, 63, 68, 74, 81, 84, 89, 95, 102, 105,
            110, 116, 123, 126, 131, 137, 144, 147, 152, 158, 165,
        ],
        baseline_median_ms: 27.83,
    },
    Reproof {
        point: (10, 1, 1, 3),
        incumbent_len: Some(30),
        max_nodes: None,
        nodes: 449,
        winner: &[
            0, 64, 83, 84, 148, 167, 168, 232, 251, 252, 316, 335, 336, 400, 419, 420, 484, 503,
            504, 568, 587, 588, 652, 671, 672, 736, 755, 756, 820, 839,
        ],
        baseline_median_ms: 25.21,
    },
    Reproof {
        point: (6, 1, 1, 2),
        incumbent_len: Some(18),
        max_nodes: None,
        nodes: 69_538,
        winner: &[
            0, 1, 9, 10, 11, 19, 20, 21, 29, 30, 31, 39, 40, 41, 49, 50, 51, 59,
        ],
        baseline_median_ms: 125.2,
    },
];

/// The ablation ladder, weakest first. The first rung reproduces the
/// PR 9 search (ceiling bound, no dominance, no lex pruning); the last
/// is `SearchOptions::default()`.
fn ladder() -> Vec<(&'static str, SearchOptions)> {
    let ceiling = SearchOptions {
        bound: BoundKind::Ceiling,
        dominance: false,
        lex_prune: false,
        ..SearchOptions::default()
    };
    vec![
        ("ceiling", ceiling),
        (
            "+matching",
            SearchOptions {
                bound: BoundKind::Matching,
                ..ceiling
            },
        ),
        (
            "+dominance",
            SearchOptions {
                bound: BoundKind::Matching,
                dominance: true,
                ..ceiling
            },
        ),
        ("full", SearchOptions::default()),
    ]
}

fn run_point(n: usize, d: usize, at: usize, ar: usize, iters: usize) -> Value {
    let name = format!("synth/n{n}_d{d}_at{at}_ar{ar}");
    eprintln!("sweep {name}:");
    let p = SynthProblem::new(n, d, at, ar);
    let space = DemandSpace::new(p.n, p.d);
    let cands = CandidateSpace::new(&space, p.alpha_t, p.alpha_r);
    let exhaustive_opts = SearchOptions {
        prune: false,
        dominance: false,
        lex_prune: false,
        symmetry: false,
        ..SearchOptions::default()
    };
    // A 1-thread pool isolates the algorithmic win from parallel fan-out.
    let pool = pool(1);
    let run = |opts: &SearchOptions| pool.install(|| minimum_cover(&space, &cands, opts));

    let (exhaustive_t, (exhaustive_sol, exhaustive_stats)) =
        measure(iters, || run(&exhaustive_opts));
    assert!(
        exhaustive_stats.exact,
        "{name}: exhaustive search must run to completion"
    );

    let mut ablation: Vec<Value> = Vec::new();
    let mut ceiling_nodes = 0u64;
    let mut full: Option<(Timing, SearchStats)> = None;
    for (label, opts) in ladder() {
        let (t, (sol, stats)) = measure(iters, || run(&opts));
        assert!(stats.exact, "{name}/{label}: search must run to completion");
        assert_eq!(
            sol.slots, exhaustive_sol.slots,
            "{name}/{label}: winner differs from the exhaustive search"
        );
        if label == "ceiling" {
            ceiling_nodes = stats.nodes;
        }
        eprintln!(
            "  {label:<10} {:>9} nodes / {:>9.3} ms  ({})",
            stats.nodes,
            t.median_ms,
            opts.config_string(),
        );
        ablation.push(json!({
            "config": label,
            "search": opts.config_string(),
            "nodes": stats.nodes,
            "pruned": stats.pruned,
            "wall_ms": t.json(),
            "results_identical": true,
            "node_reduction_vs_ceiling": ceiling_nodes as f64 / stats.nodes as f64,
        }));
        if label == "full" {
            full = Some((t, stats));
        }
    }
    let (pruned_t, pruned_stats) = full.expect("ladder ends with the full search");
    let (pruned_ms, exhaustive_ms) = (pruned_t.median_ms, exhaustive_t.median_ms);

    let schedule = cands.schedule(p.n, &exhaustive_sol.slots);
    assert!(
        requirement3_violation_naive(&schedule, p.d).is_none(),
        "{name}: optimum fails the naive Requirement-3 oracle"
    );
    let speedup_time = exhaustive_ms / pruned_ms;
    let speedup_nodes = exhaustive_stats.nodes as f64 / pruned_stats.nodes as f64;
    let prune_rate = pruned_stats.pruned as f64 / pruned_stats.nodes as f64;
    let nodes_per_sec = pruned_stats.nodes as f64 / (pruned_ms / 1e3);
    let reduction = ceiling_nodes as f64 / pruned_stats.nodes as f64;
    eprintln!(
        "  optimum L={}: full {} nodes / {pruned_ms:.3} ms, exhaustive {} nodes / \
         {exhaustive_ms:.3} ms  ({speedup_time:.1}x time, {speedup_nodes:.1}x nodes, \
         {reduction:.1}x vs ceiling)",
        exhaustive_sol.slots.len(),
        pruned_stats.nodes,
        exhaustive_stats.nodes,
    );
    json!({
        "name": name,
        "iterations": iters,
        "optimum_frame_length": exhaustive_sol.slots.len() as u64,
        "results_identical": true,
        "pruned_nodes": pruned_stats.nodes,
        "exhaustive_nodes": exhaustive_stats.nodes,
        "pruned_ms": pruned_t.json(),
        "exhaustive_ms": exhaustive_t.json(),
        "prune_rate": prune_rate,
        "nodes_per_sec": nodes_per_sec,
        "speedup_single_thread": speedup_time,
        "speedup_nodes": speedup_nodes,
        "node_reduction_vs_ceiling": reduction,
        "root_branches_after_symmetry": pruned_stats.root_branches,
        "root_branches_total": pruned_stats.root_branches_total,
        "ablation": ablation,
    })
}

fn run_reproof(r: &Reproof, iters: usize) -> Value {
    let (n, d, at, ar) = r.point;
    let name = format!("reproof/n{n}_d{d}_at{at}_ar{ar}");
    let space = DemandSpace::new(n, d);
    let cands = CandidateSpace::new(&space, at, ar);
    let opts = SearchOptions {
        incumbent_len: r.incumbent_len,
        max_nodes: r.max_nodes,
        ..SearchOptions::default()
    };
    let pool = pool(1);
    let (t, (sol, stats)) = measure(iters, || {
        pool.install(|| minimum_cover(&space, &cands, &opts))
    });
    let ms = t.median_ms;
    eprintln!(
        "{name}: {} nodes, L={} {:?}",
        stats.nodes,
        sol.slots.len(),
        sol.slots
    );
    assert_eq!(stats.nodes, r.nodes, "{name}: node count moved");
    assert_eq!(sol.slots, r.winner, "{name}: (len, lex) winner moved");
    assert_eq!(
        stats.exact,
        r.max_nodes.is_none(),
        "{name}: exactness moved"
    );
    let schedule = cands.schedule(n, &sol.slots);
    assert!(
        requirement3_violation_naive(&schedule, d).is_none(),
        "{name}: winner fails the naive Requirement-3 oracle"
    );
    eprintln!(
        "  {ms:>9.3} ms median (baseline {:.3} ms, {:.2}x)",
        r.baseline_median_ms,
        r.baseline_median_ms / ms
    );
    json!({
        "name": name,
        "threads": 1,
        "incumbent_len": r.incumbent_len.map_or(Value::Null, |l| Value::from(l as u64)),
        "max_nodes": r.max_nodes.map_or(Value::Null, Value::from),
        "iterations": iters,
        "nodes": stats.nodes,
        "pruned": stats.pruned,
        "exact": stats.exact,
        "frame_length": sol.slots.len() as u64,
        "results_identical": true,
        "wall_ms": t.json(),
        "baseline_median_ms": r.baseline_median_ms,
        "speedup_vs_baseline": r.baseline_median_ms / ms,
        "nodes_per_sec": stats.nodes as f64 / (ms / 1e3),
    })
}

/// The `synth` family: the ablation ladder at every point, then the
/// pinned re-proof rows.
pub fn run(smoke: bool) -> Value {
    let iters = if smoke { 1 } else { 7 };

    let sweeps: Vec<Value> = POINTS
        .iter()
        .map(|&(n, d, at, ar)| run_point(n, d, at, ar, iters))
        .collect();
    let reproofs: Vec<Value> = REPROOFS
        .iter()
        .map(|r| run_reproof(r, if smoke { 1 } else { 3 * iters }))
        .collect();

    let min_reduction = sweeps
        .iter()
        .filter_map(|s| s.get("node_reduction_vs_ceiling")?.as_f64())
        .fold(f64::INFINITY, f64::min);
    eprintln!("minimum full-vs-ceiling node reduction across points: {min_reduction:.1}x");

    json!({
        "description": "branch-and-bound schedule synthesis: bound/pruning ablation ladder (ceiling -> +matching -> +dominance -> full) vs depth-bounded exhaustive enumeration, by (n, D, alpha_T, alpha_R)",
        "note": "all searches run on a 1-thread pool; every ladder rung is asserted to return the identical (len, lex) winner as the exhaustive search, which is re-verified by the naive Requirement-3 oracle",
        "sweeps": sweeps,
        "reproof_note": "default search (SearchOptions::default() plus the row's incumbent seed / node budget) on a 1-thread pool; node count and (len, lex) winner asserted against pinned values; baseline_median_ms is the same row measured before the per-node residual-gain pass, in separate runs; this shared host's speed drifts by up to 2x over minutes, so speedup_vs_baseline is indicative only and alternating runs of both searches are what CHANGES.md reports",
        "reproof": reproofs,
    })
}
