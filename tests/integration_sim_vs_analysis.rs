//! The strongest cross-check in the workspace: the simulator's saturated
//! worst-case runs must agree **exactly** with the analytic `𝒯(x, y, S)`
//! machinery — two independent implementations of the paper's collision
//! model meeting in the middle.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc::core::construct::{construct, PartitionStrategy};
use ttdc::core::throughput::topology_link_throughput;
use ttdc::core::tsma::build_polynomial;
use ttdc::core::Schedule;
use ttdc::sim::{ScheduleMac, SimulatorBuilder, Topology, TrafficPattern};

/// Runs the saturated-broadcast sim for `frames` frames and checks that
/// every directed link's success count equals `frames ×` the analytic
/// per-frame guarantee.
fn assert_sim_matches_analysis(s: &Schedule, topo: &Topology, frames: u64) {
    let analytic = topology_link_throughput(s, topo.adjacency());
    let mac = ScheduleMac::new("sched", s.clone());
    let mut sim = SimulatorBuilder::new(topo.clone(), TrafficPattern::SaturatedBroadcast)
        .build()
        .unwrap();
    sim.run(&mac, frames * s.frame_length() as u64);
    let report = sim.report();
    for (x, y, per_frame) in analytic {
        let simulated = *report.link_success.get(&(x, y)).unwrap_or(&0);
        assert_eq!(
            simulated,
            frames * per_frame as u64,
            "link {x}->{y}: sim {simulated} vs analytic {per_frame}/frame"
        );
    }
    assert_eq!(report.collisions % frames, 0, "collisions are periodic too");
}

#[test]
fn non_sleeping_schedule_matches_on_fixed_topologies() {
    let ns = build_polynomial(12, 3).schedule;
    for topo in [Topology::ring(12), Topology::line(12), Topology::star(12)] {
        assert_sim_matches_analysis(&ns, &topo, 7);
    }
}

#[test]
fn constructed_schedule_matches_on_random_geometric_topologies() {
    let ns = build_polynomial(16, 3).schedule;
    let c = construct(&ns, 3, 2, 4, PartitionStrategy::RoundRobin);
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = ttdc::sim::GeometricNetwork::random(16, 0.4, 3, &mut rng).topology();
        assert_sim_matches_analysis(&c.schedule, &topo, 3);
    }
}

#[test]
fn every_link_gets_through_when_degree_within_bound() {
    // Topology transparency, observed end-to-end: on ANY topology with
    // max degree ≤ D, every directed link must see at least one success
    // per frame in the simulator.
    let d = 3;
    let ns = build_polynomial(14, d).schedule;
    let c = construct(&ns, d, 2, 3, PartitionStrategy::Contiguous);
    let mac = ScheduleMac::new("ttdc", c.schedule.clone());
    for seed in 0..5u64 {
        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let topo = Topology::random_gnp_capped(14, 0.25, d, &mut rng);
        let mut sim = SimulatorBuilder::new(topo.clone(), TrafficPattern::SaturatedBroadcast)
            .build()
            .unwrap();
        sim.run(&mac, c.schedule.frame_length() as u64);
        let report = sim.report();
        for (a, b) in topo.edges() {
            for (x, y) in [(a, b), (b, a)] {
                assert!(
                    report.link_success.get(&(x, y)).copied().unwrap_or(0) >= 1,
                    "seed {seed}: link {x}->{y} starved in one frame"
                );
            }
        }
    }
}

#[test]
fn degree_violation_can_starve_links() {
    // The guarantee is for N_n^D only: exceed D and some link may get no
    // guaranteed slot. Build a star of degree 8 under a D=2 schedule and
    // check the analysis (sim agreement still holds either way).
    let ns = build_polynomial(9, 2).schedule;
    let topo = Topology::star(9);
    let links = topology_link_throughput(&ns, topo.adjacency());
    let starving = links.iter().filter(|&&(_, y, c)| y == 0 && c == 0).count();
    assert!(
        starving > 0,
        "a degree-8 hub under a D=2 schedule should starve somewhere"
    );
    assert_sim_matches_analysis(&ns, &topo, 3);
}
