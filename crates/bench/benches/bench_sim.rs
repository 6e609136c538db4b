//! Simulator benchmarks: slot rate per MAC protocol on a 50-node geometric
//! network — how much wall-clock one simulated second costs — plus a
//! parallel-vs-serial replication sweep. The steady-state allocation audit
//! of the step loop is an integration test (`tests/alloc_audit.rs`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc_core::construct::PartitionStrategy;
use ttdc_protocols::{SlottedAlohaMac, TsmaMac, TtdcMac};
use ttdc_sim::{
    run_replications, GeometricNetwork, MacProtocol, SimulatorBuilder, Topology, TrafficPattern,
};

const N: usize = 50;
const D: usize = 4;
const SLOTS: u64 = 5_000;

fn topo() -> Topology {
    let mut rng = SmallRng::seed_from_u64(3);
    GeometricNetwork::random(N, 0.25, D, &mut rng).topology()
}

fn bench_protocol_slot_rate(c: &mut Criterion) {
    let protos: Vec<(&str, Box<dyn MacProtocol>)> = vec![
        (
            "ttdc",
            Box::new(TtdcMac::new(N, D, 2, 4, PartitionStrategy::RoundRobin)),
        ),
        ("tsma", Box::new(TsmaMac::new(N, D))),
        ("aloha", Box::new(SlottedAlohaMac::new(0.1))),
    ];
    let mut g = c.benchmark_group("sim/5k_slots_n50");
    g.sample_size(10);
    for (name, mac) in &protos {
        g.bench_with_input(BenchmarkId::from_parameter(name), mac, |b, mac| {
            b.iter(|| {
                let mut sim =
                    SimulatorBuilder::new(topo(), TrafficPattern::PoissonUnicast { rate: 0.01 })
                        .build()
                        .unwrap();
                sim.run(black_box(mac.as_ref()), SLOTS);
                sim.report().delivered
            });
        });
    }
    g.finish();
}

fn bench_saturated_mode(c: &mut Criterion) {
    let mac = TsmaMac::new(N, D);
    let mut g = c.benchmark_group("sim/saturated_n50");
    g.sample_size(10);
    g.bench_function("5k_slots", |b| {
        b.iter(|| {
            let mut sim = SimulatorBuilder::new(topo(), TrafficPattern::SaturatedBroadcast)
                .build()
                .unwrap();
            sim.run(black_box(&mac), SLOTS);
            sim.report().collisions
        });
    });
    g.finish();
}

/// Monte-Carlo replications at 1 vs 4 pool threads — the workload the
/// parallel runtime upgrade targets (speedup scales with physical cores).
fn bench_replications_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/replications_x16");
    g.sample_size(10);
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        g.bench_with_input(BenchmarkId::new("threads", threads), &pool, |b, pool| {
            b.iter(|| {
                pool.install(|| {
                    run_replications(16, 7, |seed| {
                        let mac = TsmaMac::new(N, D);
                        let mut sim = SimulatorBuilder::new(
                            topo(),
                            TrafficPattern::PoissonUnicast { rate: 0.01 },
                        )
                        .seed(seed)
                        .build()
                        .unwrap();
                        sim.run(&mac, 500);
                        sim.report()
                    })
                    .len()
                })
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_protocol_slot_rate,
    bench_saturated_mode,
    bench_replications_parallel
);
criterion_main!(benches);
