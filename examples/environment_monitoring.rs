//! Environment monitoring: the canonical WSN workload from the paper's
//! introduction. Sensors scattered over a field periodically report
//! readings to a sink over multiple hops; traffic is light, so idle
//! listening — not transmission — dominates the energy bill. Compare the
//! non-sleeping topology-transparent schedule against the paper's
//! duty-cycled construction on the same deployment.
//!
//! ```sh
//! cargo run --release --example environment_monitoring
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc::core::construct::PartitionStrategy;
use ttdc::protocols::{TsmaMac, TtdcMac};
use ttdc::sim::{GeometricNetwork, MacProtocol, SimReport, SimulatorBuilder, TrafficPattern};

const N: usize = 30;
const D: usize = 4;
const SLOTS: u64 = 60_000;

fn field_deployment(seed: u64) -> ttdc::sim::Topology {
    GeometricNetwork::connected(N, 0.3, D, &mut SmallRng::seed_from_u64(seed))
}

fn monitor(mac: &dyn MacProtocol, topo: ttdc::sim::Topology) -> SimReport {
    // Light traffic: each sensor reports every ~3000 slots — the regime
    // the paper targets ("networks where the traffic load is light most of
    // the time", §1).
    let mut sim = SimulatorBuilder::new(
        topo,
        TrafficPattern::Convergecast {
            sink: 0,
            rate: 0.0003,
        },
    )
    .seed(7)
    .build()
    .expect("valid configuration");
    sim.run(mac, SLOTS);
    sim.report()
}

fn main() {
    let topo = field_deployment(42);
    println!(
        "field deployment: {N} sensors, {} links, max degree {}, sink = node 0\n",
        topo.num_edges(),
        topo.max_degree()
    );

    let ttdc = TtdcMac::new(N, D, 2, 4, PartitionStrategy::RoundRobin);
    let tsma = TsmaMac::new(N, D);

    println!(
        "{:<12} {:>9} {:>9} {:>12} {:>14} {:>12} {:>10}",
        "protocol", "delivered", "ratio", "latency", "energy/node", "mJ/packet", "duty"
    );
    for (name, mac) in [("ttdc", &ttdc as &dyn MacProtocol), ("tsma", &tsma)] {
        let r = monitor(mac, topo.clone());
        println!(
            "{:<12} {:>9} {:>9.3} {:>9.1} sl {:>11.1} mJ {:>9.2} {:>10.3}",
            name,
            r.delivered,
            r.delivery_ratio(),
            r.latency.mean(),
            r.energy.mean_mj(),
            r.energy_per_delivery_mj(),
            r.mean_duty_cycle(),
        );
    }
    println!(
        "\nSame reports collected; the duty-cycled schedule pays latency \
         (longer frame) to cut the per-node energy bill — that is the \
         paper's trade in one table."
    );
}
