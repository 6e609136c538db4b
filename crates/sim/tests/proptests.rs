//! Property tests for the simulation engine: conservation laws and metric
//! sanity over random topologies, workloads, and protocol shapes.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc_core::Schedule;
use ttdc_sim::{
    CrashModel, FaultPlan, GilbertElliott, ScheduleMac, SimulatorBuilder, Topology, TrafficPattern,
};
use ttdc_util::BitSet;

/// A randomized [`FaultPlan`] spanning all fault axes, including the noop
/// corner (all knobs zero) and plans with several axes active at once.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        prop_oneof![Just(0.0f64), 0.0f64..0.9],
        prop::option::of((0.001f64..0.5, 0.001f64..0.5)),
        prop::option::of((0.0f64..0.05, 0.0f64..0.5, any::<bool>())),
        prop_oneof![Just(0.0f64), 0.0f64..0.4],
        prop::option::of(0u32..6),
    )
        .prop_map(|(per, burst, crash, drift, max_retries)| {
            let mut plan = FaultPlan::none().with_per(per).with_drift(drift);
            if let Some(m) = max_retries {
                plan = plan.with_max_retries(m);
            }
            if let Some((gb, bg)) = burst {
                plan = plan.with_burst(GilbertElliott::bursty(gb, bg));
            }
            if let Some((c, r, persist)) = crash {
                let mut model = CrashModel::new(c, r);
                model.persist_queue = persist;
                plan = plan.with_crash(model);
            }
            plan
        })
}

/// A random degree-capped topology together with a random periodic
/// schedule MAC over the same node count.
fn arb_scenario() -> impl Strategy<Value = (Topology, ScheduleMac)> {
    (3usize..10).prop_flat_map(|n| {
        let topo = (0u64..1000, 2usize..5).prop_map(move |(seed, dcap)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Topology::random_gnp_capped(n, 0.4, dcap, &mut rng)
        });
        let mac = prop::collection::vec(
            (1u32..(1 << n), prop::bits::u32::masked((1 << n) - 1)),
            1..5,
        )
        .prop_map(move |slots| {
            let mut t = Vec::new();
            let mut r = Vec::new();
            for (tm, rm) in slots {
                t.push(BitSet::from_iter(n, (0..n).filter(|&i| tm >> i & 1 == 1)));
                r.push(BitSet::from_iter(
                    n,
                    (0..n).filter(|&i| rm >> i & 1 == 1 && tm >> i & 1 == 0),
                ));
            }
            ScheduleMac::new("prop", Schedule::new(n, t, r))
        });
        (topo, mac)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-hop unicast conservation: every generated packet is exactly
    /// one of delivered / undeliverable / still queued.
    #[test]
    fn unicast_conservation(
        (topo, mac) in arb_scenario(),
        seed in 0u64..500,
        rate in 0.01f64..0.3,
        slots in 50u64..400,
    ) {
        let mut sim = SimulatorBuilder::new(topo, TrafficPattern::PoissonUnicast { rate })
            .seed(seed)
            .build()
            .unwrap();
        sim.run(&mac, slots);
        let r = sim.report();
        prop_assert_eq!(r.generated, r.delivered + r.undeliverable + r.backlog);
        prop_assert_eq!(r.delivered, r.hop_deliveries, "single-hop: one hop each");
        prop_assert_eq!(r.slots, slots);
    }

    /// Convergecast conservation: hop deliveries ≥ end-to-end deliveries,
    /// and generated = delivered + undeliverable + in-flight.
    #[test]
    fn convergecast_conservation(
        (topo, mac) in arb_scenario(),
        seed in 0u64..500,
        slots in 50u64..400,
    ) {
        let mut sim = SimulatorBuilder::new(
            topo,
            TrafficPattern::Convergecast { sink: 0, rate: 0.05 },
        )
        .seed(seed)
        .build()
        .unwrap();
        sim.run(&mac, slots);
        let r = sim.report();
        prop_assert!(r.hop_deliveries >= r.delivered);
        prop_assert_eq!(r.generated, r.delivered + r.undeliverable + r.backlog);
    }

    /// Energy sanity: per-node slot counts always sum to the horizon (until
    /// death), duty cycles live in [0,1], consumption is non-negative.
    #[test]
    fn energy_accounting_is_total(
        (topo, mac) in arb_scenario(),
        seed in 0u64..200,
        slots in 20u64..200,
    ) {
        let n = topo.num_nodes();
        let mut sim = SimulatorBuilder::new(topo, TrafficPattern::SaturatedBroadcast)
            .seed(seed)
            .build()
            .unwrap();
        sim.run(&mac, slots);
        let r = sim.report();
        for v in 0..n {
            let total = r.energy.tx_slots[v] + r.energy.listen_slots[v] + r.energy.sleep_slots[v];
            prop_assert_eq!(total, slots, "node {} slot accounting", v);
            let d = r.energy.duty_cycle(v);
            prop_assert!((0.0..=1.0).contains(&d));
            prop_assert!(r.energy.consumed_mj[v] >= 0.0);
        }
        let (_, mean) = r.link_success_summary();
        prop_assert!(mean >= 0.0);
    }

    /// Battery exhaustion: deaths are monotone with horizon, first death is
    /// consistent with the death count, and dead nodes stop consuming.
    #[test]
    fn battery_invariants(
        (topo, mac) in arb_scenario(),
        seed in 0u64..200,
        capacity in 1.0f64..50.0,
    ) {
        let n = topo.num_nodes();
        let mut sim = SimulatorBuilder::new(topo, TrafficPattern::SaturatedBroadcast)
            .seed(seed)
            .battery_capacity_mj(capacity)
            .build()
            .unwrap();
        sim.run(&mac, 300);
        let r = sim.report();
        prop_assert_eq!(r.deaths as usize, sim.dead_count());
        if r.deaths > 0 {
            prop_assert!(r.first_death_slot.is_some());
            prop_assert!(r.first_death_slot.unwrap() < 300);
        }
        for v in 0..n {
            // A dead node's consumption is capped at capacity + one slot's
            // worth of the most expensive state.
            prop_assert!(
                r.energy.consumed_mj[v] <= capacity + sim.energy_model().slot_energy_mj(ttdc_sim::RadioState::Transmit) + 1e-9
            );
        }
    }

    /// Determinism: identical configuration ⇒ identical report.
    #[test]
    fn determinism(seed in 0u64..300) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = Topology::random_gnp_capped(6, 0.4, 3, &mut rng);
        let t: Vec<BitSet> = (0..6).map(|i| BitSet::from_iter(6, [i])).collect();
        let mac = ScheduleMac::new("rr", Schedule::non_sleeping(6, t));
        let run = |topo: Topology| {
            let mut sim = SimulatorBuilder::new(topo, TrafficPattern::PoissonUnicast { rate: 0.1 })
                .seed(seed)
                .build()
                .unwrap();
            sim.run(&mac, 200);
            let r = sim.report();
            (r.generated, r.delivered, r.collisions, r.undeliverable, r.backlog)
        };
        prop_assert_eq!(run(topo.clone()), run(topo));
    }

    /// Fault-mode conservation: even under randomized loss, bursts,
    /// crashes, drift, and bounded ARQ, every generated packet is exactly
    /// one of delivered / undeliverable / retry-exhausted / still queued.
    #[test]
    fn faulted_conservation(
        (topo, mac) in arb_scenario(),
        plan in arb_fault_plan(),
        seed in 0u64..500,
        slots in 50u64..400,
    ) {
        let mut sim = SimulatorBuilder::new(
            topo,
            TrafficPattern::Convergecast { sink: 0, rate: 0.05 },
        )
        .seed(seed)
        .faults(plan)
        .build()
        .unwrap();
        sim.run(&mac, slots);
        let r = sim.report();
        prop_assert_eq!(
            r.generated,
            r.delivered + r.undeliverable + r.retry_exhausted + r.backlog,
            "gen {} = del {} + undel {} + exhausted {} + backlog {}",
            r.generated, r.delivered, r.undeliverable, r.retry_exhausted, r.backlog
        );
        // Crash-dropped packets are a subset of the undeliverable ones.
        prop_assert!(r.crash_dropped <= r.undeliverable);
        // Recoveries never outnumber crashes.
        prop_assert!(r.recoveries <= r.crashes);
        // Without a retry budget nothing can be retry-exhausted.
        if plan.max_retries.is_none() {
            prop_assert_eq!(r.retry_exhausted, 0);
        }
        prop_assert_eq!(r.slots, slots);
    }

    /// A noop fault plan is bit-for-bit the default engine: same seed ⇒
    /// identical report, faulted counters all zero.
    #[test]
    fn noop_fault_plan_matches_default(
        (topo, mac) in arb_scenario(),
        seed in 0u64..300,
        slots in 50u64..300,
    ) {
        let run = |faults: FaultPlan| {
            let mut sim = SimulatorBuilder::new(
                topo.clone(),
                TrafficPattern::PoissonUnicast { rate: 0.1 },
            )
            .seed(seed)
            .faults(faults)
            .build()
            .unwrap();
            sim.run(&mac, slots);
            let r = sim.report();
            (r.generated, r.delivered, r.collisions, r.undeliverable, r.backlog,
             r.link_drops, r.crashes, r.retry_exhausted)
        };
        let noop = run(FaultPlan::none());
        let default = run(FaultPlan::default());
        prop_assert_eq!(noop, default);
        prop_assert_eq!((noop.5, noop.6, noop.7), (0, 0, 0), "no fault events");
    }

    /// Faulted runs are deterministic in the seed too.
    #[test]
    fn faulted_determinism(
        plan in arb_fault_plan(),
        seed in 0u64..300,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = Topology::random_gnp_capped(6, 0.4, 3, &mut rng);
        let t: Vec<BitSet> = (0..6).map(|i| BitSet::from_iter(6, [i])).collect();
        let mac = ScheduleMac::new("rr", Schedule::non_sleeping(6, t));
        let run = |topo: Topology| {
            let mut sim = SimulatorBuilder::new(
                topo,
                TrafficPattern::Convergecast { sink: 0, rate: 0.08 },
            )
            .seed(seed)
            .faults(plan)
            .build()
            .unwrap();
            sim.run(&mac, 200);
            let r = sim.report();
            (r.generated, r.delivered, r.link_drops, r.crashes, r.recoveries,
             r.retry_exhausted, r.crash_dropped, r.backlog)
        };
        prop_assert_eq!(run(topo.clone()), run(topo));
    }
}
