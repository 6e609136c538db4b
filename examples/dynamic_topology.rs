//! Topology transparency under mobility: nodes move (random waypoint), the
//! link graph keeps changing, and the schedule never needs recomputation —
//! contrast with a colouring TDMA that was optimal for the initial graph
//! and silently rots as the nodes drift.
//!
//! ```sh
//! cargo run --release --example dynamic_topology
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc::core::construct::PartitionStrategy;
use ttdc::protocols::{ColoringTdmaMac, TtdcMac};
use ttdc::sim::{GeometricNetwork, MacProtocol, SimulatorBuilder, TrafficPattern};

const N: usize = 25;
const D: usize = 4;
const EPOCHS: usize = 20;
const SLOTS_PER_EPOCH: u64 = 2_000;

fn main() {
    let mut rng = SmallRng::seed_from_u64(11);
    let field = GeometricNetwork::random(N, 0.35, D, &mut rng);
    let initial = field.topology();
    println!(
        "initial deployment: {} links, max degree {}\n",
        initial.num_edges(),
        initial.max_degree()
    );

    let ttdc = TtdcMac::new(N, D, 2, 4, PartitionStrategy::RoundRobin);
    let tdma = ColoringTdmaMac::new(&initial); // computed ONCE, like real TDMA

    let run = |mac: &dyn MacProtocol, name: &str| {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut field = field.clone();
        let mut sim = SimulatorBuilder::new(
            field.topology(),
            TrafficPattern::PoissonUnicast { rate: 0.002 },
        )
        .seed(5)
        .build()
        .expect("valid configuration");
        println!("— {name} —");
        let mut last_delivered = 0u64;
        let mut last_generated = 0u64;
        for epoch in 0..EPOCHS {
            sim.run(mac, SLOTS_PER_EPOCH);
            // Nodes drift; links change; (n, D) envelope preserved.
            for _ in 0..40 {
                field.step(0.01, &mut rng);
            }
            sim.set_topology(field.topology());
            let r = sim.report();
            let ratio = (r.delivered - last_delivered) as f64
                / (r.generated - last_generated).max(1) as f64;
            if epoch % 5 == 4 {
                println!(
                    "  epochs {:>2}-{:>2}: delivery {:.2}, collisions so far {}",
                    epoch - 4,
                    epoch,
                    ratio,
                    r.collisions
                );
            }
            last_delivered = r.delivered;
            last_generated = r.generated;
        }
        let r = sim.report();
        println!(
            "  TOTAL: delivery ratio {:.3}, collisions {}\n",
            r.delivery_ratio(),
            r.collisions
        );
        r
    };

    let r_ttdc = run(&ttdc, "ttdc (topology-transparent)");
    let r_tdma = run(
        &tdma,
        "coloring-tdma (topology-dependent, computed for epoch 0)",
    );

    println!(
        "ttdc delivery {:.3} vs stale tdma {:.3} — the schedule that never \
         looked at the topology is the one still working after it changed.",
        r_ttdc.delivery_ratio(),
        r_tdma.delivery_ratio()
    );
}
