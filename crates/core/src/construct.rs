//! The paper's construction of topology-transparent `(α_T, α_R)`-schedules
//! (§6, Figure 2).
//!
//! Given a topology-transparent non-sleeping schedule `⟨T⟩`, each slot `i`
//! is expanded into a grid of `⌈|T[i]|/α_T*⌉ × ⌈|R[i]|/α_R⌉` new slots: the
//! transmitters of slot `i` are divided into subsets of size
//! `min(α_T*, |T[i]|)`, the receivers (`V − T[i]`) into subsets of size
//! `min(α_R, |R[i]|)`, and every (transmitter-subset, receiver-subset) pair
//! gets one slot. Receiver subsets smaller than `α_R` are padded with other
//! non-transmitting nodes (line 8 of Figure 2). Lemma 5/Theorem 6 prove the
//! result topology-transparent; Theorems 7–9 quantify frame length and
//! throughput — their formulas live in [`crate::analysis`].
//!
//! The paper notes that *how* the sets are divided does not affect
//! correctness, frame length, or average throughput; it does affect
//! per-node energy balance, so the division is pluggable
//! ([`PartitionStrategy`]) and experiment E11 measures the difference.

use crate::bounds::alpha_bound;
use crate::schedule::Schedule;
use ttdc_util::{splitmix64, BitSet};

/// How a slot's transmitter/receiver set is divided into fixed-size,
/// covering (but not necessarily disjoint) subsets — lines 3–4 of Figure 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Subset `j` takes elements `[j·s, j·s + s)`; the final subset is
    /// shifted back so it fits, re-using a few earlier elements. Simple and
    /// cache-friendly, but the overlap always lands on the same nodes.
    Contiguous,
    /// Subset `j` takes `s` consecutive elements starting at `j·s mod m`,
    /// wrapping around. Every element appears in `⌊k·s/m⌋` or `⌈k·s/m⌉`
    /// subsets — the balanced division of §7's energy-balance remark.
    RoundRobin,
    /// Like `RoundRobin` but over a seeded shuffle of the elements, so the
    /// extra appearances land on random nodes each slot.
    Randomized {
        /// Shuffle seed (deterministic construction).
        seed: u64,
    },
}

/// The output of the construction, with provenance kept for the analysis
/// of Theorems 8–9 and for debugging.
#[derive(Clone, Debug)]
pub struct Construction {
    /// The constructed `(α_T, α_R)`-schedule `⟨T̄, R̄⟩`.
    pub schedule: Schedule,
    /// The `α_T*` actually used for the transmitter subsets.
    pub alpha_t_star: usize,
    /// For each constructed slot, the original slot it was expanded from.
    pub slot_origin: Vec<usize>,
}

/// The Main Program of Figure 2: computes the optimal `α_T*` per Theorem 4
/// and calls [`construct_exact`] with it.
///
/// Requires `n ≥ D ≥ 1`, `α_T, α_R ≥ 1`, `α_T + α_R ≤ n`, and `⟨T⟩`
/// non-sleeping (the topology-transparency of `⟨T⟩` is the caller's
/// precondition, as in the paper; it is what Theorem 6's guarantee rests
/// on, but the expansion itself never inspects it).
pub fn construct(
    non_sleeping: &Schedule,
    d: usize,
    alpha_t: usize,
    alpha_r: usize,
    strategy: PartitionStrategy,
) -> Construction {
    let n = non_sleeping.num_nodes();
    let bound = alpha_bound(n, d, alpha_t, alpha_r);
    construct_exact(non_sleeping, bound.alpha_t_star, alpha_r, strategy)
}

/// Function `Construct(α_T*, α_R, ⟨T⟩)` of Figure 2, with the transmitter
/// subset size given explicitly.
///
/// As the paper notes after Theorem 6, this also serves to build schedules
/// with *exactly* `α_T'` transmitters and `α_R'` receivers per slot for any
/// `α_T' + α_R' ≤ n`, provided `|T[i]| ≥ α_T'` — useful for the
/// equality cases of Theorems 3 and 4.
pub fn construct_exact(
    non_sleeping: &Schedule,
    alpha_t_star: usize,
    alpha_r: usize,
    strategy: PartitionStrategy,
) -> Construction {
    let n = non_sleeping.num_nodes();
    assert!(
        non_sleeping.is_non_sleeping(),
        "the input schedule must be non-sleeping"
    );
    assert!(alpha_t_star >= 1 && alpha_r >= 1, "need α_T*, α_R ≥ 1");
    assert!(
        alpha_t_star + alpha_r <= n,
        "need α_T* + α_R ≤ n (α_T* = {alpha_t_star}, α_R = {alpha_r}, n = {n})"
    );
    let l = non_sleeping.frame_length();
    let mut t_bar: Vec<BitSet> = Vec::new();
    let mut r_bar: Vec<BitSet> = Vec::new();
    let mut slot_origin = Vec::new();
    let mut rng_state = match strategy {
        PartitionStrategy::Randomized { seed } => seed,
        _ => 0,
    };
    for i in 0..l {
        let t_elems: Vec<usize> = non_sleeping.transmitters(i).iter().collect();
        let r_elems: Vec<usize> = non_sleeping.receivers(i).iter().collect();
        // Line 3: divide T[i] into ⌈|T[i]|/α_T*⌉ subsets of size
        // min(α_T*, |T[i]|). Line 4: likewise for R[i] = V − T[i] with α_R.
        let t_subsets = partition(&t_elems, alpha_t_star, strategy, &mut rng_state);
        let r_subsets = partition(&r_elems, alpha_r, strategy, &mut rng_state);
        // Lines 5–10: the cross product of subsets, padding receivers.
        for ts in &t_subsets {
            let t_set = BitSet::from_iter(n, ts.iter().copied());
            for rs in &r_subsets {
                let mut r_set = BitSet::from_iter(n, rs.iter().copied());
                // Line 8: pad to exactly α_R receivers with nodes from
                // V_n − T̄[k] (choosing the smallest indices not yet used).
                if r_set.len() < alpha_r {
                    for v in 0..n {
                        if r_set.len() >= alpha_r {
                            break;
                        }
                        if !t_set.contains(v) && !r_set.contains(v) {
                            r_set.insert(v);
                        }
                    }
                }
                debug_assert_eq!(r_set.len(), alpha_r);
                t_bar.push(t_set.clone());
                r_bar.push(r_set);
                slot_origin.push(i);
            }
        }
    }
    Construction {
        schedule: Schedule::new(n, t_bar, r_bar),
        alpha_t_star,
        slot_origin,
    }
}

/// Divides `elements` into `⌈m/s⌉` covering subsets of size `min(s, m)`.
///
/// Subsets may overlap (the paper permits non-disjoint divisions); every
/// element appears in at least one subset, and every subset has the exact
/// size `min(s, m)` so that the constructed slots meet the Theorem-4
/// equality condition.
pub fn partition(
    elements: &[usize],
    s: usize,
    strategy: PartitionStrategy,
    rng_state: &mut u64,
) -> Vec<Vec<usize>> {
    assert!(s >= 1, "subset size must be positive");
    let m = elements.len();
    if m == 0 {
        return Vec::new();
    }
    let size = s.min(m);
    let k = m.div_ceil(size);
    let order: Vec<usize> = match strategy {
        PartitionStrategy::RoundRobin => {
            // Rotate the starting element a little further on every call so
            // the wraparound overlap (the elements that appear twice when
            // size ∤ m) lands on different nodes in different slots — this
            // is what makes the division balanced *across* the frame, not
            // just within one slot (§7's energy-balance remark).
            let mut v = elements.to_vec();
            v.rotate_left((*rng_state % m as u64) as usize);
            *rng_state = rng_state.wrapping_add(1 + size as u64);
            v
        }
        PartitionStrategy::Randomized { .. } => {
            let mut v = elements.to_vec();
            // Fisher-Yates with splitmix64 steps.
            for i in (1..v.len()).rev() {
                let z = splitmix64(rng_state);
                v.swap(i, (z % (i as u64 + 1)) as usize);
            }
            v
        }
        _ => elements.to_vec(),
    };
    (0..k)
        .map(|j| match strategy {
            PartitionStrategy::Contiguous => {
                let start = (j * size).min(m - size);
                order[start..start + size].to_vec()
            }
            PartitionStrategy::RoundRobin | PartitionStrategy::Randomized { .. } => {
                (0..size).map(|o| order[(j * size + o) % m]).collect()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::is_topology_transparent;
    use crate::throughput::{average_throughput, min_throughput};
    use ttdc_combinatorics::CoverFreeFamily;

    fn polynomial_schedule(q: usize, k: u32, n: u64) -> Schedule {
        let gf = ttdc_combinatorics::Gf::new(q).unwrap();
        Schedule::from_cff(&CoverFreeFamily::from_polynomials(&gf, k, n))
    }

    const STRATEGIES: [PartitionStrategy; 3] = [
        PartitionStrategy::Contiguous,
        PartitionStrategy::RoundRobin,
        PartitionStrategy::Randomized { seed: 42 },
    ];

    #[test]
    fn partition_sizes_and_coverage() {
        let elems: Vec<usize> = vec![3, 5, 8, 9, 12, 20, 21];
        for strat in STRATEGIES {
            let mut st = 7u64;
            for s in 1..=8usize {
                let parts = partition(&elems, s, strat, &mut st);
                let size = s.min(elems.len());
                assert_eq!(parts.len(), elems.len().div_ceil(size), "s={s}");
                for p in &parts {
                    assert_eq!(p.len(), size, "exact subset size, s={s} {strat:?}");
                    assert!(p.iter().all(|e| elems.contains(e)));
                    // No element repeated inside one subset.
                    let mut q = p.clone();
                    q.sort_unstable();
                    q.dedup();
                    assert_eq!(q.len(), p.len(), "duplicates in subset, {strat:?}");
                }
                // Coverage.
                for e in &elems {
                    assert!(
                        parts.iter().any(|p| p.contains(e)),
                        "element {e} dropped (s={s}, {strat:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_round_robin_is_balanced() {
        let elems: Vec<usize> = (0..10).collect();
        let mut st = 0u64;
        let parts = partition(&elems, 4, PartitionStrategy::RoundRobin, &mut st);
        // k = 3 subsets of size 4 → 12 appearances over 10 elements: each
        // element appears once or twice.
        let mut counts = vec![0usize; 10];
        for p in &parts {
            for &e in p {
                counts[e] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 1 || c == 2), "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 12);
    }

    #[test]
    fn partition_empty_input() {
        let mut st = 0;
        assert!(partition(&[], 3, PartitionStrategy::Contiguous, &mut st).is_empty());
    }

    #[test]
    fn partition_randomized_deterministic_in_seed() {
        let elems: Vec<usize> = (0..9).collect();
        let (mut s1, mut s2) = (5u64, 5u64);
        let a = partition(
            &elems,
            4,
            PartitionStrategy::Randomized { seed: 5 },
            &mut s1,
        );
        let b = partition(
            &elems,
            4,
            PartitionStrategy::Randomized { seed: 5 },
            &mut s2,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn theorem6_constructed_schedule_is_topology_transparent() {
        // q = 5, k = 1 schedule: transparent for D ≤ 4, 25 nodes.
        let ns = polynomial_schedule(5, 1, 25);
        for d in [2usize, 3] {
            assert!(is_topology_transparent(&ns, d), "precondition");
            for (at, ar) in [(2usize, 3usize), (3, 5), (1, 1), (5, 20)] {
                for strat in STRATEGIES {
                    let c = construct(&ns, d, at, ar, strat);
                    assert!(
                        c.schedule.is_alpha_schedule(at, ar),
                        "α-constraint d={d} at={at} ar={ar} {strat:?}"
                    );
                    assert!(
                        is_topology_transparent(&c.schedule, d),
                        "transparency d={d} at={at} ar={ar} {strat:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn constructed_slots_have_exact_receiver_count() {
        let ns = polynomial_schedule(5, 1, 25);
        let c = construct(&ns, 2, 3, 4, PartitionStrategy::RoundRobin);
        for i in 0..c.schedule.frame_length() {
            assert_eq!(c.schedule.receivers(i).len(), 4, "slot {i}");
            assert!(c.schedule.transmitters(i).len() <= c.alpha_t_star);
        }
    }

    #[test]
    fn theorem7_frame_length_formula() {
        let ns = polynomial_schedule(5, 1, 25);
        let at_star = 2usize;
        let ar = 3usize;
        let c = construct_exact(&ns, at_star, ar, PartitionStrategy::Contiguous);
        let expected: usize = ns
            .t_sizes()
            .iter()
            .map(|&ti| ti.div_ceil(at_star) * (25 - ti).div_ceil(ar))
            .sum();
        assert_eq!(c.schedule.frame_length(), expected);
        assert_eq!(c.slot_origin.len(), expected);
    }

    #[test]
    fn slot_origin_is_monotone_and_in_range() {
        let ns = polynomial_schedule(3, 1, 9);
        let c = construct_exact(&ns, 1, 2, PartitionStrategy::Contiguous);
        assert!(c.slot_origin.windows(2).all(|w| w[0] <= w[1]));
        assert!(c.slot_origin.iter().all(|&o| o < ns.frame_length()));
    }

    #[test]
    fn min_throughput_slots_preserved_per_frame() {
        // Theorem 9's core step: per frame, the constructed schedule has at
        // least as many guaranteed slots per (x, y, S) as the original.
        let ns = polynomial_schedule(4, 1, 16);
        let d = 3;
        let c = construct(&ns, d, 2, 4, PartitionStrategy::RoundRobin);
        let orig = min_throughput(&ns, d) * ns.frame_length() as f64;
        let new = min_throughput(&c.schedule, d) * c.schedule.frame_length() as f64;
        assert!(
            new >= orig - 1e-9,
            "guaranteed slots per frame dropped: {new} < {orig}"
        );
    }

    #[test]
    fn average_throughput_independent_of_strategy() {
        // §6: the division choice does not affect the average throughput.
        let ns = polynomial_schedule(5, 1, 25);
        let d = 2;
        let thr: Vec<f64> = STRATEGIES
            .iter()
            .map(|&s| average_throughput(&construct(&ns, d, 3, 4, s).schedule, d))
            .collect();
        assert!((thr[0] - thr[1]).abs() < 1e-12);
        assert!((thr[0] - thr[2]).abs() < 1e-12);
    }

    #[test]
    fn construct_exact_gives_exact_transmitter_count_when_feasible() {
        // |T[i]| = 5 for the full q=5 polynomial schedule; α_T' = 5 divides
        // exactly, so every constructed slot has exactly 5 transmitters.
        let ns = polynomial_schedule(5, 1, 25);
        let c = construct_exact(&ns, 5, 10, PartitionStrategy::Contiguous);
        for i in 0..c.schedule.frame_length() {
            assert_eq!(c.schedule.transmitters(i).len(), 5);
            assert_eq!(c.schedule.receivers(i).len(), 10);
        }
    }

    #[test]
    #[should_panic(expected = "non-sleeping")]
    fn sleeping_input_rejected() {
        let t = vec![BitSet::from_iter(4, [0])];
        let r = vec![BitSet::from_iter(4, [1])];
        let s = Schedule::new(4, t, r);
        construct_exact(&s, 1, 1, PartitionStrategy::Contiguous);
    }

    #[test]
    #[should_panic(expected = "α_T* + α_R ≤ n")]
    fn oversubscribed_alphas_rejected() {
        let ns = polynomial_schedule(3, 1, 9);
        construct_exact(&ns, 5, 5, PartitionStrategy::Contiguous);
    }
}
