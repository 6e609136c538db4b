//! Parallel-runtime speedup trajectory: times the three workloads the
//! vendored rayon pool targets (Monte-Carlo replication, the Definition-2
//! brute-force throughput enumeration, the exhaustive Requirement-3 scan)
//! at 1, 2, and 4 pool threads and checks the answers are bit-identical
//! at every thread count. Speedup tracks hardware threads: a pool wider
//! than the host is marked oversubscribed.

use crate::thread_rows;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use ttdc_core::requirements::is_topology_transparent_par;
use ttdc_core::throughput::average_throughput_bruteforce;
use ttdc_core::tsma::build_polynomial;
use ttdc_protocols::TsmaMac;
use ttdc_sim::{
    run_replications, GeometricNetwork, SimConfig, Simulator, Topology, TrafficPattern,
};

fn topo() -> Topology {
    let mut rng = SmallRng::seed_from_u64(3);
    GeometricNetwork::random(50, 0.25, 4, &mut rng).topology()
}

fn run_workload<D: PartialEq + std::fmt::Debug>(
    name: &str,
    iters: usize,
    work: &(dyn Fn() -> D + Sync),
) -> Value {
    eprintln!("workload {name}:");
    json!({
        "name": name,
        "iterations": iters,
        "results_identical_across_thread_counts": true,
        "runs": thread_rows(name, iters, None, work),
    })
}

/// The `parallel` family: replication, brute-force throughput and the
/// exhaustive Requirement-3 scan at every pool width.
pub fn run(smoke: bool) -> Value {
    let iters = if smoke { 1 } else { 5 };
    let ns20 = build_polynomial(20, 3);
    let ns36 = build_polynomial(36, 2);

    let workloads = vec![
        run_workload("sim/run_replications_x16_n50_2k_slots", iters, &|| {
            let reports = run_replications(16, 7, |seed| {
                let mac = TsmaMac::new(50, 4);
                let mut sim = Simulator::new(
                    topo(),
                    TrafficPattern::PoissonUnicast { rate: 0.002 },
                    SimConfig {
                        seed,
                        ..Default::default()
                    },
                );
                sim.run(&mac, 2_000);
                sim.report()
            });
            reports
                .iter()
                .map(|r| (r.delivered, r.collisions, r.latency.mean().to_bits()))
                .collect::<Vec<_>>()
        }),
        run_workload("throughput/bruteforce_n20_d3", iters, &|| {
            average_throughput_bruteforce(&ns20.schedule, 3).to_bits()
        }),
        run_workload("requirements/exhaustive_n36_d2", iters, &|| {
            is_topology_transparent_par(&ns36.schedule, 2)
        }),
    ];
    json!({
        "description": "wall-clock trajectory of the vendored rayon runtime at 1/2/4 pool threads",
        "note": "each run's speedup is against the same workload on 1 thread (every run's result is asserted identical to it); speedup tracks hardware threads, and rows with more threads than host.available_parallelism are marked oversubscribed and time-share the host's threads",
        "workloads": workloads,
    })
}
