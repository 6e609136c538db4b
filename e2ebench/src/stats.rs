//! Order statistics over op latencies and per-run summaries.

use std::collections::BTreeMap;

/// Nearest-rank percentile `p` (0–100] of an ascending slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail percentiles a workload may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The latency tail: the workload's `target` percentile when at least
/// [`TAIL_BEYOND`] samples lie beyond it, else the next lower rung of the
/// ladder that has them (the maximum for tiny samples). A fixed target
/// keeps the figure comparable between commits that complete different
/// op counts. Returns `(percentile, value)`.
pub fn tail(sorted: &[f64], target: f64) -> (f64, f64) {
    let n = sorted.len();
    for &p in TAIL_LADDER.iter().filter(|&&p| p <= target) {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return (p, sorted[rank - 1]);
        }
    }
    (100.0, sorted[n - 1])
}

/// Latencies and counts of one measurement window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Per-op latency in seconds, completed ops only.
    pub latencies_s: Vec<f64>,
    /// The input of each latency: ops of one input do the same work.
    pub inputs: Vec<usize>,
    /// Wall time from the window's start to its last completion.
    pub wall_s: f64,
    /// Process CPU time spent inside the window.
    pub cpu_s: f64,
    /// Ops started.
    pub attempted: u64,
    /// Ops that panicked, returned an error or failed their output check.
    pub failed: u64,
}

/// End-to-end figures of one window.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Mean over op inputs of each input's fastest op.
    pub best_ms: f64,
    pub p50_ms: f64,
    pub tail_pct: f64,
    pub tail_ms: f64,
    pub ops_per_s: f64,
    pub samples: usize,
}

impl Window {
    /// Records one completed op of input `input`.
    pub fn push(&mut self, input: usize, latency_s: f64) {
        self.latencies_s.push(latency_s);
        self.inputs.push(input);
    }

    /// Appends a later window of the same run.
    pub fn merge(&mut self, later: Window) {
        self.latencies_s.extend(later.latencies_s);
        self.inputs.extend(later.inputs);
        self.wall_s += later.wall_s;
        self.cpu_s += later.cpu_s;
        self.attempted += later.attempted;
        self.failed += later.failed;
    }

    /// The fastest op of each input, averaged over the inputs, in
    /// seconds. Every op of an input does the same work, so its fastest
    /// repeat is the time the work takes when the host does not slow it.
    /// The host this benchmark was tuned on alternates between a fast
    /// and a slow state for seconds to minutes, and the median and tail
    /// depend on how much of a run falls in the slow state; the fastest
    /// repeat does not, as long as some of the run is fast.
    pub fn best_s(&self) -> f64 {
        let mut best: BTreeMap<usize, f64> = BTreeMap::new();
        for (&i, &l) in self.inputs.iter().zip(&self.latencies_s) {
            let b = best.entry(i).or_insert(l);
            *b = b.min(l);
        }
        mean(&best.into_values().collect::<Vec<_>>())
    }

    /// Summarises the window; `None` when no op completed.
    pub fn summary(&self, tail_target: f64) -> Option<Summary> {
        if self.latencies_s.is_empty() {
            return None;
        }
        let mut v = self.latencies_s.clone();
        v.sort_by(f64::total_cmp);
        let (tail_pct, tail_s) = tail(&v, tail_target);
        Some(Summary {
            best_ms: self.best_s() * 1e3,
            p50_ms: nearest_rank(&v, 50.0) * 1e3,
            tail_pct,
            tail_ms: tail_s * 1e3,
            ops_per_s: v.len() as f64 / self.wall_s.max(f64::MIN_POSITIVE),
            samples: v.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 95.0), (90.0, 90.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 95.0), (95.0, 190.0));
        assert_eq!(tail(&v[..5], 95.0), (100.0, 5.0));
    }

    #[test]
    fn best_is_the_fastest_repeat_per_input() {
        let mut w = Window::default();
        for i in 1..=10 {
            w.push(0, f64::from(11 - i));
            w.push(1, f64::from(100 * i));
        }
        assert_eq!(w.best_s(), 50.5);
    }

    #[test]
    fn merge_appends_a_later_window() {
        let mut a = Window::default();
        a.push(0, 2.0);
        a.wall_s = 1.0;
        a.attempted = 1;
        let mut b = Window::default();
        b.push(0, 1.0);
        b.push(1, 3.0);
        b.wall_s = 2.0;
        b.attempted = 3;
        b.failed = 1;
        a.merge(b);
        assert_eq!(a.latencies_s, [2.0, 1.0, 3.0]);
        assert_eq!(a.best_s(), 2.0);
        assert_eq!((a.wall_s, a.attempted, a.failed), (3.0, 4, 1));
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
    }
}
