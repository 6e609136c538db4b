//! Verifier-engine speedup trajectory: times the naive from-scratch
//! Requirement-1 scan against the incremental subset engine
//! (revolving-door deltas + `CoverCounter` + witness-safe pruning) over the
//! `(n, D)` sweep points the experiments exercise, asserts that naive and
//! incremental agree on **every** benchmarked case — verdict and witness —
//! and that the incremental verifier returns the identical answer at 1, 2,
//! and 4 pool threads (the deterministic-witness rule). The greedy-CFF
//! rows time the engine-backed greedy against its from-scratch reference
//! and assert identical blocks.

use crate::{measure, thread_rows};
use serde_json::{json, Value};
use ttdc_combinatorics::{greedy_cff, greedy_cff_reference, GreedyConfig};
use ttdc_core::requirements::{requirement1_violation, requirement1_violation_naive};
use ttdc_core::tsma::build_polynomial;
use ttdc_core::Schedule;

/// `(n, D)` sweep points, each on the polynomial schedule built for
/// `(n, 2)`: the seed-era experiment grid (largest point `n = 36, D = 2`)
/// plus `D = 3` beyond that guarantee — a real violation, so the identity
/// check compares concrete witnesses, not just `None`s.
const POINTS: [(usize, usize); 4] = [(16, 2), (25, 2), (36, 2), (9, 3)];

fn run_sweep(name: &str, s: &Schedule, d: usize, iters: usize) -> Value {
    eprintln!("sweep {name}:");
    let (naive_t, naive) = measure(iters, || requirement1_violation_naive(s, d));
    eprintln!("  naive: {:.3} ms", naive_t.median_ms);
    let violation_found = naive.is_some();
    let expected = Some((naive_t.median_ms, naive));
    let runs = thread_rows(name, iters, expected, &|| requirement1_violation(s, d));
    json!({
        "name": name,
        "iterations": iters,
        "violation_found": violation_found,
        "verdicts_and_witnesses_identical": true,
        "results_identical_across_thread_counts": true,
        "naive_ms": naive_t.json(),
        "speedup_single_thread": runs[0].get("speedup").cloned().expect("rows carry speedup"),
        "runs": runs,
    })
}

/// Times the whole greedy-CFF run with the engine-backed acceptance test
/// against the from-scratch reference, asserting the families produced are
/// bit-identical (single-threaded on both sides — the greedy is sequential).
fn run_greedy_sweep(ground: usize, n: usize, d: usize, iters: usize) -> Value {
    let name = format!("greedy_cff/g{ground}_n{n}_d{d}");
    eprintln!("sweep {name}:");
    let cfg = GreedyConfig::new(ground, n, d);
    let (ref_t, reference) = measure(iters, || greedy_cff_reference(&cfg));
    let (eng_t, engine) = measure(iters, || greedy_cff(&cfg));
    let (reference, engine) = (
        reference.expect("reference greedy must succeed at sweep points"),
        engine.expect("engine greedy must succeed at sweep points"),
    );
    assert_eq!(
        reference.blocks(),
        engine.blocks(),
        "{name}: engine-backed greedy diverged from reference"
    );
    let speedup = ref_t.median_ms / eng_t.median_ms;
    eprintln!(
        "  engine: {:.3} ms  ({speedup:.2}x vs reference {:.3} ms)",
        eng_t.median_ms, ref_t.median_ms
    );
    json!({
        "name": name,
        "iterations": iters,
        "blocks_identical": true,
        "reference_ms": ref_t.json(),
        "engine_ms": eng_t.json(),
        "speedup_single_thread": speedup,
    })
}

/// The `verify` family: every requirement-1 and greedy-CFF sweep point.
pub fn run(smoke: bool) -> Value {
    let iters = if smoke { 1 } else { 7 };
    let mut sweeps: Vec<Value> = POINTS
        .iter()
        .map(|&(n, d)| {
            let suffix = if d > 2 { "_violating" } else { "" };
            let name = format!("requirement1/n{n}_d{d}{suffix}");
            run_sweep(&name, &build_polynomial(n, 2).schedule, d, iters)
        })
        .collect();
    for (ground, n, d) in [(40usize, 12usize, 3usize), (60, 20, 4), (130, 24, 4)] {
        sweeps.push(run_greedy_sweep(ground, n, d, iters));
    }
    json!({
        "description": "naive-vs-incremental verifier trajectory: from-scratch union rebuilds vs the revolving-door subset engine (CoverCounter + witness-safe pruning), by (n, D)",
        "note": "each run's speedup is against the naive scan; speedup_single_thread isolates the per-subset algorithmic win on a 1-thread pool, and multi-thread rows add the deterministic parallel outer loop on top; a row with more threads than host.available_parallelism is marked oversubscribed",
        "sweeps": sweeps,
    })
}
