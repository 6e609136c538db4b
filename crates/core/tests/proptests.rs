//! Property tests for the paper's theorems on randomly generated schedules.
//!
//! These are the strongest checks in the workspace: each proptest encodes a
//! theorem's statement directly and fires it at arbitrary schedules, not
//! just the structured ones the unit tests use.

use proptest::prelude::*;
use ttdc_core::analysis::{constructed_frame_length, optimality_ratio_via_r, r_ratio};
use ttdc_core::bounds::{alpha_bound, general_bound};
use ttdc_core::construct::{construct_exact, PartitionStrategy};
use ttdc_core::requirements::{satisfies_requirement2, satisfies_requirement3};
use ttdc_core::throughput::{
    average_throughput, average_throughput_bruteforce, guaranteed_slots, min_throughput,
};
use ttdc_core::{io, Schedule};
use ttdc_util::{splitmix64, BitSet};

/// A random schedule over `n ∈ [4, 8]` nodes with `L ∈ [1, 6]` slots.
/// Each slot gets a random non-empty transmitter set and a random receiver
/// subset of its complement.
fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (4usize..=8)
        .prop_flat_map(|n| {
            let slot = (1u32..(1 << n), prop::bits::u32::masked((1 << n) - 1));
            (Just(n), prop::collection::vec(slot, 1..=6))
        })
        .prop_map(|(n, slots)| {
            let mut t = Vec::new();
            let mut r = Vec::new();
            for (tm, rm) in slots {
                let tset = BitSet::from_iter(n, (0..n).filter(|&i| tm >> i & 1 == 1));
                let rset =
                    BitSet::from_iter(n, (0..n).filter(|&i| rm >> i & 1 == 1 && tm >> i & 1 == 0));
                t.push(tset);
                r.push(rset);
            }
            Schedule::new(n, t, r)
        })
}

/// A random *non-sleeping* schedule (R = complement of T).
fn arb_non_sleeping() -> impl Strategy<Value = Schedule> {
    (4usize..=8)
        .prop_flat_map(|n| {
            // T[i] non-empty and proper, so receivers exist.
            (Just(n), prop::collection::vec(1u32..((1 << n) - 1), 1..=6))
        })
        .prop_map(|(n, masks)| {
            let t = masks
                .iter()
                .map(|&tm| BitSet::from_iter(n, (0..n).filter(|&i| tm >> i & 1 == 1)))
                .collect();
            Schedule::non_sleeping(n, t)
        })
}

/// A seed-deterministic permutation of `0..n` (Fisher–Yates over splitmix).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

proptest! {
    /// Theorem 1: Requirements 2 and 3 accept and reject exactly the same
    /// schedules, for every degree bound.
    #[test]
    fn theorem1_req2_iff_req3(s in arb_schedule(), d in 1usize..4) {
        prop_assume!(d < s.num_nodes());
        prop_assert_eq!(
            satisfies_requirement2(&s, d),
            satisfies_requirement3(&s, d),
            "n={} L={} d={}", s.num_nodes(), s.frame_length(), d
        );
    }

    /// Theorem 2: the closed-form average throughput equals the brute-force
    /// enumeration of Definition 2.
    #[test]
    fn theorem2_closed_form_equals_enumeration(s in arb_schedule(), d in 1usize..4) {
        prop_assume!(d < s.num_nodes());
        let closed = average_throughput(&s, d);
        let brute = average_throughput_bruteforce(&s, d);
        prop_assert!((closed - brute).abs() < 1e-12, "closed {} vs brute {}", closed, brute);
    }

    /// Theorem 3: no schedule exceeds the general upper bound.
    #[test]
    fn theorem3_bound_dominates(s in arb_schedule(), d in 1usize..4) {
        prop_assume!(d < s.num_nodes());
        let b = general_bound(s.num_nodes(), d);
        prop_assert!(average_throughput(&s, d) <= b.thr_star + 1e-12);
        prop_assert!(b.thr_star <= b.loose + 1e-12);
    }

    /// Theorem 4: no (α_T, α_R)-schedule exceeds its bound, taking the
    /// actual per-slot maxima as the α's.
    #[test]
    fn theorem4_bound_dominates(s in arb_schedule(), d in 1usize..4) {
        let n = s.num_nodes();
        prop_assume!(d < n);
        let at = s.t_sizes().into_iter().max().unwrap().max(1);
        let ar = s.r_sizes().into_iter().max().unwrap().max(1);
        prop_assume!(at + ar <= n);
        let b = alpha_bound(n, d, at, ar);
        prop_assert!(average_throughput(&s, d) <= b.thr_star + 1e-12);
    }

    /// `Thr_min > 0` iff topology-transparent (§5 remark after Def. 2).
    #[test]
    fn min_throughput_positive_iff_transparent(s in arb_schedule(), d in 1usize..3) {
        prop_assume!(d < s.num_nodes());
        let thr = min_throughput(&s, d);
        prop_assert_eq!(thr > 0.0, satisfies_requirement3(&s, d));
    }

    /// Lemma-5 core (used by Theorem 9): the construction never loses
    /// guaranteed slots per frame, for any (x, y, S) — even when the input
    /// schedule is not topology-transparent.
    #[test]
    fn construction_preserves_guaranteed_slots(
        ns in arb_non_sleeping(),
        at in 1usize..3,
        ar in 1usize..3,
        pick in 0usize..1000,
    ) {
        let n = ns.num_nodes();
        prop_assume!(at + ar <= n);
        let c = construct_exact(&ns, at, ar, PartitionStrategy::RoundRobin);
        // Derive a pseudo-random (x, y, S) with |S| ≤ 2 from `pick`.
        let x = pick % n;
        let y = (pick / n) % n;
        prop_assume!(x != y);
        let s1 = (pick / (n * n)) % n;
        let others: Vec<usize> = [s1]
            .into_iter()
            .filter(|&z| z != x && z != y)
            .collect();
        let before = guaranteed_slots(&ns, x, y, &others).len();
        let after = guaranteed_slots(&c.schedule, x, y, &others).len();
        prop_assert!(after >= before, "(x={}, y={}, S={:?}): {} -> {}", x, y, others, before, after);
    }

    /// Theorem 7: the constructed frame length matches the formula exactly,
    /// for arbitrary non-sleeping inputs and partition strategies.
    #[test]
    fn theorem7_frame_length(ns in arb_non_sleeping(), at in 1usize..4, ar in 1usize..4, strat in 0usize..3) {
        let n = ns.num_nodes();
        prop_assume!(at + ar <= n);
        let strategy = [
            PartitionStrategy::Contiguous,
            PartitionStrategy::RoundRobin,
            PartitionStrategy::Randomized { seed: 9 },
        ][strat];
        let c = construct_exact(&ns, at, ar, strategy);
        prop_assert_eq!(
            c.schedule.frame_length(),
            constructed_frame_length(&ns.t_sizes(), n, at, ar)
        );
        prop_assert!(c.schedule.is_alpha_schedule(at, ar));
        // Every constructed slot has exactly α_R receivers (line 8 padding).
        for i in 0..c.schedule.frame_length() {
            prop_assert_eq!(c.schedule.receivers(i).len(), ar);
        }
    }

    /// §7 identity: Thr_ave/Thr* = (1/L̄)·Σ r(|T̄[i]|) whenever every
    /// constructed slot has α_R receivers — equivalently, the measured
    /// ratio via Theorem 2 equals the r-sum.
    #[test]
    fn theorem8_r_identity(ns in arb_non_sleeping(), d in 1usize..3) {
        let n = ns.num_nodes();
        prop_assume!(d < n);
        let b = alpha_bound(n, d, n / 2, n - n / 2 - 1 + 1);
        prop_assume!(b.alpha_t_star < n);
        // r(x) must be defined: n − (D−1) − α_T* > 0 holds by construction.
        let ar = n - b.alpha_t_star.max(1);
        let ar = ar.clamp(1, 3);
        prop_assume!(b.alpha_t_star + ar <= n);
        let c = construct_exact(&ns, b.alpha_t_star, ar, PartitionStrategy::Contiguous);
        let thr = average_throughput(&c.schedule, d);
        let thr_star = alpha_bound(n, d, b.alpha_t_star, ar).thr_star;
        let via_r = optimality_ratio_via_r(&c.schedule, d, b.alpha_t_star);
        prop_assert!((thr / thr_star - via_r).abs() < 1e-9,
            "direct {} vs r-identity {}", thr / thr_star, via_r);
        // And Theorem 8's equality case: if every |T[i]| ≥ α_T*, ratio = 1.
        if ns.t_sizes().iter().all(|&t| t >= b.alpha_t_star) {
            prop_assert!((thr / thr_star - 1.0).abs() < 1e-9);
        }
    }

    /// Serialization: any schedule survives the text round trip intact.
    #[test]
    fn io_round_trip(s in arb_schedule()) {
        let text = io::to_text(&s);
        let back = io::from_text(&text).unwrap();
        prop_assert_eq!(s, back);
    }

    /// Canonical fingerprints are invariant under node and slot
    /// relabeling: every permuted copy of a schedule hashes identically.
    #[test]
    fn fingerprint_invariant_under_relabeling(
        s in arb_schedule(),
        pseed in any::<u64>(),
        qseed in any::<u64>(),
    ) {
        let n = s.num_nodes();
        let l = s.frame_length();
        let p = shuffled(n, pseed);
        let q = shuffled(l, qseed);
        let mut t = vec![BitSet::new(n); l];
        let mut r = vec![BitSet::new(n); l];
        for i in 0..l {
            for x in s.transmitters(i).iter() {
                t[q[i]].insert(p[x]);
            }
            for x in s.receivers(i).iter() {
                r[q[i]].insert(p[x]);
            }
        }
        let relabeled = Schedule::new(n, t, r);
        prop_assert_eq!(s.canonical_fingerprint(), relabeled.canonical_fingerprint());
    }

    /// Structurally distinct schedules get distinct fingerprints: mutating
    /// one slot's transmitter set into a different valid set changes the
    /// hash (WL refinement plus 64-bit mixing; a collision here would mean
    /// either WL-indistinguishability or a hash clash, neither of which
    /// random irregular schedules should exhibit).
    #[test]
    fn fingerprint_separates_mutated_schedules(
        s in arb_schedule(),
        slot_pick in any::<u64>(),
        node_pick in any::<u64>(),
    ) {
        let n = s.num_nodes();
        let l = s.frame_length();
        let i = (slot_pick % l as u64) as usize;
        let x = (node_pick % n as u64) as usize;
        let mut t: Vec<BitSet> = (0..l).map(|j| s.transmitters(j).clone()).collect();
        let mut r: Vec<BitSet> = (0..l).map(|j| s.receivers(j).clone()).collect();
        // Toggle node x's transmit role in slot i (dropping it from R to
        // keep T ∩ R empty); skip degenerate outcomes (empty T).
        if t[i].contains(x) {
            t[i].remove(x);
        } else {
            t[i].insert(x);
            r[i].remove(x);
        }
        prop_assume!(!t[i].is_empty());
        let mutated = Schedule::new(n, t, r);
        // The mutation can land on a relabel-equivalent schedule (toggling
        // between symmetric positions), where colliding is *correct*. Only
        // assert when the sorted per-slot (|T|, |R|) sequences differ — a
        // sufficient condition for genuine non-equivalence.
        let degs = |sch: &Schedule| {
            let mut v: Vec<(usize, usize)> = (0..sch.frame_length())
                .map(|j| (sch.transmitters(j).len(), sch.receivers(j).len()))
                .collect();
            v.sort_unstable();
            v
        };
        prop_assume!(degs(&mutated) != degs(&s));
        prop_assert_ne!(s.canonical_fingerprint(), mutated.canonical_fingerprint());
    }

    /// r(x) sanity: r(α_T*) = 1 and r is non-negative on [0, α_T*].
    #[test]
    fn r_ratio_properties(n in 5usize..30, d in 1usize..4, a in 1usize..5) {
        prop_assume!(d < n);
        prop_assume!(n as isize - (d as isize - 1) - a as isize > 0);
        prop_assert!((r_ratio(n, d, a, a) - 1.0).abs() < 1e-12);
        for x in 0..=a {
            prop_assert!(r_ratio(n, d, a, x) >= -1e-12);
        }
    }
}
