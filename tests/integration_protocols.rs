//! Protocol-level integration: every MAC delivers traffic through the real
//! engine, and the qualitative contrasts the paper draws (collision-free
//! vs contention, transparent vs topology-bound) show up in the metrics.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc::core::construct::PartitionStrategy;
use ttdc::protocols::{
    ColoringTdmaMac, NaiveDutyCycleMac, SlottedAlohaMac, SmacLikeMac, TsmaMac, TtdcMac,
};
use ttdc::sim::{churn, MacProtocol, SimReport, SimulatorBuilder, Topology, TrafficPattern};

const N: usize = 16;
const D: usize = 3;

fn run(mac: &dyn MacProtocol, topo: Topology, slots: u64, seed: u64) -> SimReport {
    let mut sim = SimulatorBuilder::new(topo, TrafficPattern::PoissonUnicast { rate: 0.003 })
        .seed(seed)
        .build()
        .unwrap();
    sim.run(mac, slots);
    sim.report()
}

fn ring() -> Topology {
    Topology::ring(N)
}

#[test]
fn every_protocol_delivers_on_a_ring() {
    let tdma = ColoringTdmaMac::new(&ring());
    let protocols: Vec<(&str, Box<dyn MacProtocol>)> = vec![
        (
            "ttdc",
            Box::new(TtdcMac::new(N, D, 2, 3, PartitionStrategy::RoundRobin)),
        ),
        ("tsma", Box::new(TsmaMac::new(N, D))),
        ("naive", Box::new(NaiveDutyCycleMac::new(4))),
        ("aloha", Box::new(SlottedAlohaMac::new(0.1))),
        ("smac", Box::new(SmacLikeMac::new(4, 2, 0.3))),
        ("tdma", Box::new(tdma)),
    ];
    for (name, mac) in protocols {
        let r = run(mac.as_ref(), ring(), 20_000, 1);
        assert!(r.generated > 300, "{name}: {}", r.generated);
        assert!(
            r.delivery_ratio() > 0.5,
            "{name} should move most traffic on an easy ring: {}",
            r.delivery_ratio()
        );
    }
}

#[test]
fn schedule_based_protocols_are_collision_free_on_light_ring_traffic() {
    // TTDC with schedule-aware senders may rarely collide (two senders
    // sharing a guaranteed slot for different receivers), but TDMA on its
    // own topology must be perfectly collision-free, and TSMA too under
    // unique-transmitter slots... TDMA is the hard guarantee:
    let tdma = ColoringTdmaMac::new(&ring());
    let r = run(&tdma, ring(), 20_000, 2);
    assert_eq!(r.collisions, 0, "distance-2 colouring cannot collide");
}

#[test]
fn contention_protocols_collide_under_load() {
    let aloha = SlottedAlohaMac::new(0.5);
    let mut sim = SimulatorBuilder::new(
        Topology::star(8),
        TrafficPattern::PoissonUnicast { rate: 0.2 },
    )
    .seed(3)
    .build()
    .unwrap();
    sim.run(&aloha, 5_000);
    assert!(sim.report().collisions > 100, "{}", sim.report().collisions);
}

#[test]
fn ttdc_beats_naive_duty_cycling_on_collisions() {
    let ttdc = TtdcMac::new(N, D, 2, 3, PartitionStrategy::RoundRobin);
    let k = (1.0 / ttdc.schedule().average_duty_cycle()).round() as u64;
    let naive = NaiveDutyCycleMac::new(k.max(2));
    let mut rng = SmallRng::seed_from_u64(8);
    let topo = Topology::random_gnp_capped(N, 0.3, D, &mut rng);
    let r_ttdc = run(&ttdc, topo.clone(), 30_000, 4);
    let r_naive = run(&naive, topo, 30_000, 4);
    assert!(
        r_ttdc.collisions < r_naive.collisions,
        "ttdc {} vs naive {}",
        r_ttdc.collisions,
        r_naive.collisions
    );
    assert!(r_ttdc.delivery_ratio() >= r_naive.delivery_ratio());
}

#[test]
fn tdma_degrades_under_churn_while_ttdc_does_not() {
    let initial = ring();
    let tdma = ColoringTdmaMac::new(&initial);
    let ttdc = TtdcMac::new(N, D, 2, 3, PartitionStrategy::RoundRobin);

    let churn_run = |mac: &dyn MacProtocol, seed: u64| {
        let mut sim = SimulatorBuilder::new(
            initial.clone(),
            TrafficPattern::PoissonUnicast { rate: 0.003 },
        )
        .seed(seed)
        .build()
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed + 1000);
        for _ in 0..20 {
            sim.run(mac, 1500);
            let mut t = sim.topology().clone();
            churn(&mut t, 2, 2, D, &mut rng);
            sim.set_topology(t);
        }
        sim.report()
    };

    let r_ttdc = churn_run(&ttdc, 5);
    let r_tdma = churn_run(&tdma, 5);
    assert!(
        r_ttdc.delivery_ratio() > r_tdma.delivery_ratio(),
        "transparent {} vs stale tdma {}",
        r_ttdc.delivery_ratio(),
        r_tdma.delivery_ratio()
    );
    assert!(
        r_ttdc.delivery_ratio() > 0.8,
        "ttdc guarantees survive churn by design: {}",
        r_ttdc.delivery_ratio()
    );
}

#[test]
fn duty_cycling_saves_energy_at_equal_workload() {
    let ttdc = TtdcMac::new(N, D, 2, 3, PartitionStrategy::RoundRobin);
    let tsma = TsmaMac::new(N, D);
    let r_ttdc = run(&ttdc, ring(), 20_000, 6);
    let r_tsma = run(&tsma, ring(), 20_000, 6);
    assert!(
        r_ttdc.energy.mean_mj() < 0.5 * r_tsma.energy.mean_mj(),
        "duty cycling must cut the energy bill: {} vs {}",
        r_ttdc.energy.mean_mj(),
        r_tsma.energy.mean_mj()
    );
}
