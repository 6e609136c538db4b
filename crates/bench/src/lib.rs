//! One benchmark harness for the ttdc workspace.
//!
//! Each module is one benchmark family: it times a fast engine against its
//! reference, asserts that both give the identical answer before any
//! timing is trusted, and returns its record as a JSON object.
//!
//! * [`verify`] — naive vs incremental Requirement-1 verifier, greedy CFF;
//! * [`parallel`] — the vendored rayon pool at 1/2/4 threads;
//! * [`sim_scale`] — simulator roster sources and the time-skipping engine;
//! * [`synth`] — the synthesizer against exhaustive enumeration, and pinned
//!   re-proofs.
//!
//! `cargo run --release -p ttdc-bench --bin bench_all -- [--smoke] [family…]`
//! runs the named families (all of them by default) and writes each
//! record to `BENCH_<family>.json` at the repository root, stamped by
//! [`write_record`] with the host that produced it. `--smoke` runs one
//! timing iteration on the smaller points: every identity assertion still
//! runs in full, and no record is written.

use serde_json::{json, to_string_pretty, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod parallel;
pub mod sim_scale;
pub mod synth;
pub mod verify;

/// A benchmark family: takes the smoke flag, returns the family's record.
pub type Family = fn(bool) -> Value;

/// Every family as `(name, runner)`, in the order `bench_all` runs them.
pub const FAMILIES: &[(&str, Family)] = &[
    ("verify", verify::run),
    ("parallel", parallel::run),
    ("sim_scale", sim_scale::run),
    ("synth", synth::run),
];

/// Pool widths the thread-scaling rows run at.
pub(crate) const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Fastest, median (the upper one for an even count) and slowest wall
/// time of the timed calls of one [`measure`], in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Timing {
    pub(crate) min_ms: f64,
    pub(crate) median_ms: f64,
    pub(crate) max_ms: f64,
}

impl Timing {
    /// The timing as a `{min_ms, median_ms, max_ms}` record field.
    pub(crate) fn json(&self) -> Value {
        json!({
            "min_ms": self.min_ms,
            "median_ms": self.median_ms,
            "max_ms": self.max_ms,
        })
    }
}

/// Calls `work` once untimed as a warm-up, then `iters` times timed.
/// Returns the spread of the timed calls and the warm-up's result, which
/// the caller checks for identity against its reference.
pub(crate) fn measure<D>(iters: usize, mut work: impl FnMut() -> D) -> (Timing, D) {
    assert!(iters > 0, "measure needs at least one timed call");
    let result = work();
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(work());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let timing = Timing {
        min_ms: times[0],
        median_ms: times[iters / 2],
        max_ms: times[iters - 1],
    };
    (timing, result)
}

/// Times `work` on a pool of each width in [`THREAD_COUNTS`] and asserts
/// every width returns the `expected` result or, without one, the result
/// of the first width. Each row's `speedup` is against the time paired
/// with `expected`, or the first width's.
pub(crate) fn thread_rows<D: PartialEq + std::fmt::Debug>(
    name: &str,
    iters: usize,
    mut expected: Option<(f64, D)>,
    work: &(dyn Fn() -> D + Sync),
) -> Vec<Value> {
    let mut rows = Vec::new();
    for threads in THREAD_COUNTS {
        let pool = pool(threads);
        let (t, result) = measure(iters, || pool.install(work));
        match &expected {
            Some((_, want)) => {
                assert_eq!(&result, want, "{name}: wrong result at {threads} threads")
            }
            None => expected = Some((t.median_ms, result)),
        }
        let speedup = expected
            .as_ref()
            .map_or(1.0, |(base_ms, _)| base_ms / t.median_ms);
        eprintln!("  threads={threads}: {:.3} ms ({speedup:.2}x)", t.median_ms);
        rows.push(json!({
            "threads": threads,
            "oversubscribed": threads > available_parallelism(),
            "wall_ms": t.json(),
            "speedup": speedup,
        }));
    }
    rows
}

/// A pool of exactly `threads` workers.
pub(crate) fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail")
}

/// Hardware threads this host offers (0 when unknown). A row timed on a
/// wider pool is oversubscribed and shows no parallel speed-up.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, |p| p.get())
}

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// What a command prints, trimmed, or `null` when it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> Value {
    std::process::Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or(Value::Null, |s| Value::from(s.trim()))
}

/// The revision a record names: `head`, marked `-dirty` when `porcelain`
/// (the `git status --porcelain` listing) shows uncommitted changes, so a
/// record made from a modified tree never passes for its parent's.
fn revision_string(head: &str, porcelain: &str) -> String {
    if porcelain.trim().is_empty() {
        head.to_string()
    } else {
        format!("{head}-dirty")
    }
}

/// The checked-out revision, or `null` outside a git checkout. The
/// `BENCH_*.json` records themselves do not count as changes: an earlier
/// family of the same run may just have rewritten one.
fn git_revision() -> Value {
    let head = command_output("git", &["rev-parse", "HEAD"]);
    let status = command_output(
        "git",
        &["status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json"],
    );
    match (head.as_str(), status.as_str()) {
        (Some(head), Some(porcelain)) => Value::from(revision_string(head, porcelain)),
        _ => Value::Null,
    }
}

/// Writes `record` (a JSON object) to `BENCH_<family>.json` at the
/// repository root with a `host` field naming the hardware parallelism,
/// the `rustc` on the path and the checked-out git revision (marked
/// `-dirty` when the tree has uncommitted changes).
pub fn write_record(family: &str, record: Value) -> std::io::Result<PathBuf> {
    let Value::Object(mut fields) = record else {
        panic!("{family}: a family record is a JSON object");
    };
    let host = json!({
        "available_parallelism": available_parallelism() as u64,
        "rustc": command_output("rustc", &["-V"]),
        "git_revision": git_revision(),
    });
    fields.insert("host".to_string(), host);
    let body = to_string_pretty(&Value::Object(fields)).expect("serialization cannot fail");
    let path = repo_root().join(format!("BENCH_{family}.json"));
    ttdc_util::write_atomic(&path, (body + "\n").as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_times_iters_calls_after_one_warm_up() {
        for iters in [1, 2, 5] {
            let mut calls = 0;
            let (timing, first) = measure(iters, || {
                calls += 1;
                calls
            });
            assert_eq!(calls, iters + 1);
            assert_eq!(first, 1, "the warm-up call's result is returned");
            assert!(timing.min_ms <= timing.median_ms && timing.median_ms <= timing.max_ms);
        }
    }

    #[test]
    fn revision_is_marked_dirty_only_with_uncommitted_changes() {
        assert_eq!(revision_string("82666c4", ""), "82666c4");
        assert_eq!(revision_string("82666c4", "\n"), "82666c4");
        assert_eq!(
            revision_string("82666c4", " M crates/sim/src/engine.rs\n"),
            "82666c4-dirty"
        );
        assert_eq!(revision_string("82666c4", "?? new.rs"), "82666c4-dirty");
    }
}
