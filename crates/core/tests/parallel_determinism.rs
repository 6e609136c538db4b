//! Parallel execution must be observationally identical to sequential.
//!
//! The vendored rayon combines chunk results in index order, so every
//! analysis in this crate — exhaustive throughput enumeration, requirement
//! checks, access-delay scans — must return **bit-for-bit** the same answer
//! on a 4-thread pool as on a forced-sequential (`num_threads = 1`) pool.
//! These proptests fire that claim at arbitrary schedules.

use proptest::prelude::*;
use rayon::ThreadPool;
use std::sync::OnceLock;
use ttdc_core::latency::{average_access_delay, worst_case_access_delay};
use ttdc_core::requirements::is_topology_transparent;
use ttdc_core::throughput::{average_throughput_bruteforce, min_throughput};
use ttdc_core::Schedule;
use ttdc_util::BitSet;

fn sequential_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
    })
}

fn parallel_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
    })
}

/// A random schedule over `n ∈ [4, 8]` nodes with `L ∈ [1, 6]` slots (same
/// generator as the theorem proptests).
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

proptest! {
    /// Definition-2 brute force: the parallel u128 accumulation is exact,
    /// so the final f64 must match to the bit.
    #[test]
    fn bruteforce_throughput_matches_sequential(s in arb_schedule(), d in 1usize..4) {
        prop_assume!(d < s.num_nodes());
        let seq = sequential_pool().install(|| average_throughput_bruteforce(&s, d));
        let par = parallel_pool().install(|| average_throughput_bruteforce(&s, d));
        prop_assert_eq!(seq.to_bits(), par.to_bits(), "seq {} vs par {}", seq, par);
    }

    /// Definition-1 minimum throughput: min over chunks equals the global min.
    #[test]
    fn min_throughput_matches_sequential(s in arb_schedule(), d in 1usize..3) {
        prop_assume!(d < s.num_nodes());
        let seq = sequential_pool().install(|| min_throughput(&s, d));
        let par = parallel_pool().install(|| min_throughput(&s, d));
        prop_assert_eq!(seq.to_bits(), par.to_bits());
    }

    /// The parallel Requirement-3 verdict agrees at any thread count.
    #[test]
    fn requirement_check_matches_sequential(s in arb_schedule(), d in 1usize..4) {
        prop_assume!(d < s.num_nodes());
        let seq = sequential_pool().install(|| is_topology_transparent(&s, d));
        let par = parallel_pool().install(|| is_topology_transparent(&s, d));
        prop_assert_eq!(seq, par);
    }

    /// Access-delay scans (`try_reduce` max and the collected mean) agree.
    #[test]
    fn access_delay_matches_sequential(s in arb_schedule(), d in 1usize..3) {
        prop_assume!(d < s.num_nodes());
        let seq_worst = sequential_pool().install(|| worst_case_access_delay(&s, d));
        let par_worst = parallel_pool().install(|| worst_case_access_delay(&s, d));
        prop_assert_eq!(seq_worst, par_worst);
        let seq_mean = sequential_pool().install(|| average_access_delay(&s, d));
        let par_mean = parallel_pool().install(|| average_access_delay(&s, d));
        prop_assert_eq!(seq_mean.map(f64::to_bits), par_mean.map(f64::to_bits));
    }
}
