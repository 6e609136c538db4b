//! Monte-Carlo replication must not depend on the thread count.
//!
//! `run_replications` collects per-seed reports in index order, so a
//! 4-thread pool must produce exactly the replication vector a forced
//! sequential run produces — and therefore identical [`McSummary`]
//! statistics, since `summarize` folds the reports in order.

use proptest::prelude::*;
use rayon::ThreadPool;
use std::sync::OnceLock;
use ttdc_core::Schedule;
use ttdc_sim::{
    run_replications, summarize, ScheduleMac, SimReport, SimulatorBuilder, Topology, TrafficPattern,
};
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

fn scenario(n: usize, rate: f64, slots: u64) -> impl Fn(u64) -> SimReport + Sync {
    move |seed| {
        let t = (0..n).map(|i| BitSet::from_iter(n, [i])).collect();
        let mac = ScheduleMac::new("rr", Schedule::non_sleeping(n, t));
        let mut sim =
            SimulatorBuilder::new(Topology::ring(n), TrafficPattern::PoissonUnicast { rate })
                .seed(seed)
                .build()
                .unwrap();
        sim.run(&mac, slots);
        sim.report()
    }
}

/// The observable digest of a replication run (every deterministic counter
/// plus the bit patterns of the floating-point aggregates).
fn digest(r: &SimReport) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.generated,
        r.delivered,
        r.hop_deliveries,
        r.collisions,
        r.backlog,
        r.latency.mean().to_bits(),
        r.energy.mean_mj().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replication reports are identical, seed by seed, at 1 vs 4 threads.
    #[test]
    fn run_replications_matches_sequential(
        n in 3usize..6,
        reps in 1u64..12,
        base_seed in 0u64..1000,
    ) {
        let rate = 0.1;
        let slots = 300;
        let seq = sequential_pool().install(|| run_replications(reps, base_seed, scenario(n, rate, slots)));
        let par = parallel_pool().install(|| run_replications(reps, base_seed, scenario(n, rate, slots)));
        prop_assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(digest(a), digest(b));
        }
        // And the order-dependent summary statistics agree to the bit.
        let ss = summarize(&seq);
        let sp = summarize(&par);
        prop_assert_eq!(ss.delivery_ratio.mean().to_bits(), sp.delivery_ratio.mean().to_bits());
        prop_assert_eq!(ss.latency_mean.stddev().to_bits(), sp.latency_mean.stddev().to_bits());
        prop_assert_eq!(ss.energy_fairness.mean().to_bits(), sp.energy_fairness.mean().to_bits());
    }
}
