//! Behavioural tests of the engine pipeline, exercised through the public
//! API (moved out of `engine.rs` when the step loop was split into
//! `phases/` modules).

use ttdc_core::Schedule;
use ttdc_sim::{
    CaptureModel, CrashModel, FaultPlan, GilbertElliott, RadioState, ScheduleMac, SimError,
    SimulatorBuilder, Topology, TraceEvent, TrafficPattern,
};
use ttdc_util::BitSet;

fn rr_mac(n: usize) -> ScheduleMac {
    let t = (0..n).map(|i| BitSet::from_iter(n, [i])).collect();
    ScheduleMac::new("rr", Schedule::non_sleeping(n, t))
}

#[test]
fn saturated_two_nodes_alternate_perfectly() {
    // 2 nodes, round-robin: every slot is a guaranteed success on the
    // single link, alternating direction.
    let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .build()
        .unwrap();
    let mac = rr_mac(2);
    sim.run(&mac, 10);
    let r = sim.report();
    assert_eq!(r.slots, 10);
    assert_eq!(r.collisions, 0);
    assert_eq!(r.link_success[&(0, 1)], 5);
    assert_eq!(r.link_success[&(1, 0)], 5);
}

#[test]
fn saturated_star_collides_under_all_transmit() {
    // Non-sleeping "everyone transmits every slot" schedule on a star:
    // the hub always sees ≥ 2 transmitters → collisions, no successes.
    let n = 4;
    let t = vec![BitSet::from_iter(n, 1..n)]; // leaves transmit
    let r = vec![BitSet::from_iter(n, [0])]; // hub listens
    let mac = ScheduleMac::new("all-leaves", Schedule::new(n, t, r));
    let mut sim = SimulatorBuilder::new(Topology::star(n), TrafficPattern::SaturatedBroadcast)
        .build()
        .unwrap();
    sim.run(&mac, 8);
    let rep = sim.report();
    assert_eq!(rep.collisions, 8, "hub collides every slot");
    assert!(rep.link_success.is_empty());
}

#[test]
fn unicast_delivery_on_pair() {
    let mut sim =
        SimulatorBuilder::new(Topology::line(2), TrafficPattern::CbrUnicast { period: 4 })
            .seed(1)
            .build()
            .unwrap();
    let mac = rr_mac(2);
    sim.run(&mac, 40);
    let r = sim.report();
    assert!(r.generated >= 18, "CBR generates steadily: {}", r.generated);
    assert_eq!(r.collisions, 0);
    assert!(r.delivered + r.backlog + r.undeliverable >= r.generated - 2);
    assert!(r.delivered > 0);
    assert!(r.delivery_ratio() > 0.5, "{}", r.delivery_ratio());
    assert!(r.latency.mean() >= 0.0);
}

#[test]
fn energy_accounting_splits_states() {
    // Round-robin on 2 nodes: each node transmits half the slots
    // (saturated), listens the other half → no sleep.
    let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .build()
        .unwrap();
    sim.run(&rr_mac(2), 10);
    let r = sim.report();
    for v in 0..2 {
        assert_eq!(r.energy.tx_slots[v], 5);
        assert_eq!(r.energy.listen_slots[v], 5);
        assert_eq!(r.energy.sleep_slots[v], 0);
        assert_eq!(r.energy.duty_cycle(v), 1.0);
    }
    let energy = sim.energy_model();
    let expect = 5.0 * energy.slot_energy_mj(RadioState::Transmit)
        + 5.0 * energy.slot_energy_mj(RadioState::Listen);
    assert!((r.energy.consumed_mj[0] - expect).abs() < 1e-9);
}

#[test]
fn missed_listen_slots_are_charged_as_sleep() {
    // With a sync-miss probability, a node that rolls a miss on its listen
    // slot never turns the radio on — the energy phase must charge Sleep
    // for those slots, not Listen. Invariant: listen slots plus missed
    // (slept) listen slots account for every scheduled listen.
    let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .seed(3)
        .miss_probability(0.4)
        .build()
        .unwrap();
    sim.run(&rr_mac(2), 2000);
    let r = sim.report();
    for v in 0..2 {
        // Round-robin: 1000 transmit opportunities and 1000 listen slots
        // per node. Misses shift slots from tx/listen into sleep.
        assert_eq!(
            r.energy.tx_slots[v] + r.energy.listen_slots[v] + r.energy.sleep_slots[v],
            2000
        );
        assert!(
            r.energy.sleep_slots[v] > 500,
            "~40% of 2000 scheduled slots should be missed and slept: {}",
            r.energy.sleep_slots[v]
        );
        assert!(r.energy.listen_slots[v] < 1000, "misses reduce listening");
    }
}

#[test]
fn sleeping_nodes_save_energy() {
    // Duty-cycled pair inside a 4-node line: nodes 2,3 always sleep.
    let n = 4;
    let t = vec![BitSet::from_iter(n, [0]), BitSet::from_iter(n, [1])];
    let r = vec![BitSet::from_iter(n, [1]), BitSet::from_iter(n, [0])];
    let mac = ScheduleMac::new("pair", Schedule::new(n, t, r));
    let mut sim = SimulatorBuilder::new(Topology::line(n), TrafficPattern::SaturatedBroadcast)
        .build()
        .unwrap();
    sim.run(&mac, 20);
    let rep = sim.report();
    assert_eq!(rep.energy.sleep_slots[2], 20);
    assert_eq!(rep.energy.sleep_slots[3], 20);
    assert!(rep.energy.consumed_mj[2] < rep.energy.consumed_mj[0] / 100.0);
    assert_eq!(rep.link_success[&(0, 1)], 10);
}

#[test]
fn convergecast_reaches_sink_over_multiple_hops() {
    // Line 0-1-2, sink 0; node 2's packets need two hops.
    let n = 3;
    let mut sim = SimulatorBuilder::new(
        Topology::line(n),
        TrafficPattern::Convergecast {
            sink: 0,
            rate: 0.05,
        },
    )
    .seed(42)
    .build()
    .unwrap();
    let mac = rr_mac(n);
    sim.run(&mac, 3000);
    let r = sim.report();
    assert!(r.generated > 100);
    assert!(r.delivery_ratio() > 0.8, "ratio {}", r.delivery_ratio());
    assert!(
        r.hop_deliveries > r.delivered,
        "multi-hop forwarding must show up: {} hops vs {} deliveries",
        r.hop_deliveries,
        r.delivered
    );
    assert!(r.latency.mean() > 0.0);
}

#[test]
fn disconnected_generator_counts_undeliverable() {
    // Node 2 is isolated; unicast generation there is undeliverable.
    let mut topo = Topology::empty(3);
    topo.add_edge(0, 1);
    let mut sim = SimulatorBuilder::new(topo, TrafficPattern::CbrUnicast { period: 2 })
        .build()
        .unwrap();
    sim.run(&rr_mac(3), 20);
    let r = sim.report();
    assert!(r.undeliverable > 0);
    // Single-hop conservation: every generated packet is delivered,
    // dropped as undeliverable, or still queued.
    assert_eq!(r.generated, r.delivered + r.undeliverable + r.backlog);
}

#[test]
fn miss_probability_degrades_throughput() {
    let run = |miss: f64| {
        let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .seed(3)
            .miss_probability(miss)
            .build()
            .unwrap();
        sim.run(&rr_mac(2), 2000);
        let r = sim.report();
        r.link_success.values().sum::<u64>()
    };
    let perfect = run(0.0);
    let sloppy = run(0.3);
    assert_eq!(perfect, 2000);
    assert!(sloppy < perfect, "{sloppy} !< {perfect}");
    assert!(
        sloppy > 500,
        "sync jitter should not kill the link: {sloppy}"
    );
}

#[test]
fn topology_swap_reroutes_convergecast() {
    // Start with line 0-1-2 (sink 0). Swap to a topology where 2
    // connects directly to 0: packets should still flow.
    let n = 3;
    let mut sim = SimulatorBuilder::new(
        Topology::line(n),
        TrafficPattern::Convergecast { sink: 0, rate: 0.1 },
    )
    .seed(9)
    .build()
    .unwrap();
    let mac = rr_mac(n);
    sim.run(&mac, 500);
    let mut t2 = Topology::empty(n);
    t2.add_edge(0, 2);
    t2.add_edge(0, 1);
    sim.set_topology(t2);
    sim.run(&mac, 500);
    let r = sim.report();
    assert!(r.delivery_ratio() > 0.7, "ratio {}", r.delivery_ratio());
}

#[test]
fn determinism_in_seed() {
    let run = |seed| {
        let mut sim = SimulatorBuilder::new(
            Topology::ring(5),
            TrafficPattern::PoissonUnicast { rate: 0.2 },
        )
        .seed(seed)
        .build()
        .unwrap();
        sim.run(&rr_mac(5), 300);
        let r = sim.report();
        (r.generated, r.delivered, r.collisions, r.hop_deliveries)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn capture_decodes_the_much_closer_sender() {
    // Star: hub 0 listens; leaves 1 (very close) and 2 (far) transmit
    // simultaneously. Without capture: collision. With capture at
    // ratio 2: leaf 1 wins every slot.
    let n = 3;
    let topo = Topology::star(n);
    let t = vec![BitSet::from_iter(n, [1, 2])];
    let r = vec![BitSet::from_iter(n, [0])];
    let mac = ScheduleMac::new("both", Schedule::new(n, t, r));
    let positions = vec![(0.0, 0.0), (0.05, 0.0), (0.9, 0.0)];

    let mut plain = SimulatorBuilder::new(topo.clone(), TrafficPattern::SaturatedBroadcast)
        .build()
        .unwrap();
    plain.run(&mac, 10);
    let rp = plain.report();
    assert_eq!(rp.collisions, 10);
    assert!(rp.link_success.is_empty());

    let mut cap = SimulatorBuilder::new(topo, TrafficPattern::SaturatedBroadcast)
        .capture(positions, CaptureModel { ratio: 2.0 })
        .build()
        .unwrap();
    cap.run(&mac, 10);
    let rc = cap.report();
    assert_eq!(rc.collisions, 0);
    assert_eq!(rc.link_success[&(1, 0)], 10, "closest sender captures");
    assert!(!rc.link_success.contains_key(&(2, 0)));
}

#[test]
fn capture_below_threshold_still_collides() {
    let n = 3;
    let topo = Topology::star(n);
    let t = vec![BitSet::from_iter(n, [1, 2])];
    let r = vec![BitSet::from_iter(n, [0])];
    let mac = ScheduleMac::new("both", Schedule::new(n, t, r));
    // Nearly equidistant: ratio 1.1 < required 2.0.
    let positions = vec![(0.0, 0.0), (0.50, 0.0), (0.55, 0.0)];
    let mut sim = SimulatorBuilder::new(topo, TrafficPattern::SaturatedBroadcast)
        .capture(positions, CaptureModel { ratio: 2.0 })
        .build()
        .unwrap();
    sim.run(&mac, 10);
    assert_eq!(sim.report().collisions, 10);
}

#[test]
fn battery_exhaustion_kills_nodes_and_sets_lifetime() {
    // Tiny battery: listening costs 0.45 mJ/slot, so a 9 mJ battery
    // lasts exactly 20 always-listening slots.
    let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .battery_capacity_mj(9.0)
        .build()
        .unwrap();
    let mac = rr_mac(2);
    sim.run(&mac, 100);
    let r = sim.report();
    assert_eq!(r.deaths, 2);
    assert!(sim.is_dead(0) && sim.is_dead(1));
    assert_eq!(sim.dead_count(), 2);
    let death = r.first_death_slot.expect("someone must die");
    // tx 0.6 + listen 0.45 alternating: ~17 slots to burn 9 mJ.
    assert!((15..=19).contains(&death), "death at {death}");
    // Dead nodes stop consuming: totals are capped near the capacity.
    assert!(r.energy.consumed_mj[0] <= 9.0 + 0.61);
    // And stop communicating: successes stop after death.
    assert!(r.link_success[&(0, 1)] < 15);
}

#[test]
fn dead_nodes_generate_nothing() {
    let mut sim =
        SimulatorBuilder::new(Topology::line(2), TrafficPattern::CbrUnicast { period: 1 })
            .battery_capacity_mj(1.0)
            .seed(4)
            .build()
            .unwrap();
    sim.run(&rr_mac(2), 500);
    let r = sim.report();
    assert_eq!(r.deaths, 2);
    // Generation stops shortly after both died (~2-3 slots in).
    assert!(r.generated < 20, "{}", r.generated);
}

#[test]
fn trace_records_lifecycle_events() {
    let mut sim =
        SimulatorBuilder::new(Topology::line(2), TrafficPattern::CbrUnicast { period: 5 })
            .trace_capacity(1000)
            .seed(1)
            .build()
            .unwrap();
    sim.run(&rr_mac(2), 50);
    let r = sim.report();
    let has = |f: &dyn Fn(&TraceEvent) -> bool| r.trace.events().any(|(_, e)| f(e));
    assert!(has(&|e| matches!(e, TraceEvent::Generated { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Transmitted { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::HopDelivered { .. })));
    assert!(!has(&|e| matches!(e, TraceEvent::Collision { .. })));
    // Trace slots are monotone.
    let slots: Vec<u64> = r.trace.events().map(|&(s, _)| s).collect();
    assert!(slots.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn trace_disabled_by_default() {
    let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .build()
        .unwrap();
    sim.run(&rr_mac(2), 10);
    assert!(sim.report().trace.is_empty());
}

#[test]
#[should_panic(expected = "sink out of range")]
fn bad_sink_rejected() {
    SimulatorBuilder::new(
        Topology::line(2),
        TrafficPattern::Convergecast { sink: 5, rate: 0.1 },
    )
    .build()
    .unwrap_or_else(|e| panic!("{e}"));
}

// ---- fault injection ----

#[test]
fn fault_counters_stay_zero_without_faults() {
    let mut sim = SimulatorBuilder::new(
        Topology::ring(5),
        TrafficPattern::PoissonUnicast { rate: 0.2 },
    )
    .seed(7)
    .build()
    .unwrap();
    sim.run(&rr_mac(5), 300);
    let r = sim.report();
    assert_eq!(
        (
            r.link_drops,
            r.crashes,
            r.recoveries,
            r.retry_exhausted,
            r.crash_dropped
        ),
        (0, 0, 0, 0, 0)
    );
    assert_eq!(r.fault_drops(), 0);
    assert_eq!(r.link_drop_rate(), 0.0);
}

#[test]
fn unbounded_arq_budget_matches_legacy_behaviour() {
    // A huge retry budget enables the ARQ pass but never drops, so the
    // observable report matches the no-fault run with the same seed —
    // the pre-ARQ engine was exactly "retry forever".
    let run = |faults: FaultPlan| {
        let mut sim = SimulatorBuilder::new(
            Topology::line(4),
            TrafficPattern::Convergecast { sink: 0, rate: 0.1 },
        )
        .seed(21)
        .faults(faults)
        .build()
        .unwrap();
        sim.run(&rr_mac(4), 1500);
        let r = sim.report();
        (
            r.generated,
            r.delivered,
            r.hop_deliveries,
            r.collisions,
            r.undeliverable,
            r.backlog,
            format!("{:?}", r.latency.mean()),
        )
    };
    assert_eq!(
        run(FaultPlan::none()),
        run(FaultPlan::none().with_max_retries(u32::MAX))
    );
}

#[test]
fn uniform_link_loss_erases_saturated_receptions() {
    let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .seed(2)
        .faults(FaultPlan::lossy(0.3))
        .build()
        .unwrap();
    sim.run(&rr_mac(2), 2000);
    let r = sim.report();
    let successes: u64 = r.link_success.values().sum();
    // Every slot is decoded by exactly one listener; loss erases ~30%.
    assert_eq!(successes + r.link_drops, 2000);
    assert!(r.link_drops > 450, "{}", r.link_drops);
    assert!(
        (r.link_drop_rate() - 0.3).abs() < 0.05,
        "{}",
        r.link_drop_rate()
    );
}

#[test]
fn bursty_channel_hits_its_stationary_loss() {
    // A Gilbert–Elliott channel with 50% stationary bad time and a
    // lossless good state drops roughly per_bad × π_bad of receptions.
    let ge = GilbertElliott {
        p_good_to_bad: 0.02,
        p_bad_to_good: 0.02,
        per_good: 0.0,
        per_bad: 1.0,
    };
    let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .seed(8)
        .faults(FaultPlan::default().with_burst(ge))
        .build()
        .unwrap();
    sim.run(&rr_mac(2), 4000);
    let r = sim.report();
    let drop_rate = r.link_drop_rate();
    assert!(
        (drop_rate - 0.5).abs() < 0.15,
        "stationary loss ~50%, got {drop_rate}"
    );
}

#[test]
fn arq_exhaustion_is_observable_in_report_and_trace() {
    // Total link loss + a 3-retry budget: every packet is abandoned
    // after 4 failed transmissions; nothing is ever delivered.
    let mut sim =
        SimulatorBuilder::new(Topology::line(2), TrafficPattern::CbrUnicast { period: 10 })
            .seed(5)
            .trace_capacity(4096)
            .faults(FaultPlan::lossy(1.0).with_max_retries(3))
            .build()
            .unwrap();
    sim.run(&rr_mac(2), 400);
    let r = sim.report();
    assert_eq!(r.delivered, 0);
    assert!(r.retry_exhausted > 0);
    assert!(r.link_drops >= 4 * r.retry_exhausted);
    assert_eq!(
        r.generated,
        r.delivered + r.undeliverable + r.retry_exhausted + r.backlog,
        "conservation: {r:?}"
    );
    let has = |f: &dyn Fn(&TraceEvent) -> bool| r.trace.events().any(|(_, e)| f(e));
    assert!(has(&|e| matches!(e, TraceEvent::RetryExhausted { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::LinkDropped { .. })));
}

#[test]
fn crashes_recover_and_lose_queues() {
    let mut sim = SimulatorBuilder::new(
        Topology::line(4),
        TrafficPattern::Convergecast { sink: 0, rate: 0.2 },
    )
    .seed(13)
    .trace_capacity(1 << 16)
    .faults(FaultPlan::default().with_crash(CrashModel::new(0.02, 0.25)))
    .build()
    .unwrap();
    sim.run(&rr_mac(4), 3000);
    let r = sim.report();
    assert!(r.crashes > 10, "{}", r.crashes);
    assert!(r.recoveries > 10, "{}", r.recoveries);
    assert!(
        r.crash_dropped > 0,
        "a busy relay should crash with a queue"
    );
    assert!(r.crash_dropped <= r.undeliverable);
    assert_eq!(r.generated, r.delivered + r.undeliverable + r.backlog);
    assert!(r.delivered > 0, "the network still works between crashes");
    let has = |f: &dyn Fn(&TraceEvent) -> bool| r.trace.events().any(|(_, e)| f(e));
    assert!(has(&|e| matches!(e, TraceEvent::NodeCrashed { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::NodeRecovered { .. })));
}

#[test]
fn persistent_queues_survive_crashes() {
    let crash = CrashModel {
        crash_probability: 0.02,
        recovery_probability: 0.25,
        persist_queue: true,
    };
    let mut sim = SimulatorBuilder::new(
        Topology::line(4),
        TrafficPattern::Convergecast { sink: 0, rate: 0.2 },
    )
    .seed(13)
    .faults(FaultPlan::default().with_crash(crash))
    .build()
    .unwrap();
    sim.run(&rr_mac(4), 3000);
    let r = sim.report();
    assert!(r.crashes > 10);
    assert_eq!(r.crash_dropped, 0, "persisted queues drop nothing");
    assert_eq!(r.generated, r.delivered + r.undeliverable + r.backlog);
}

#[test]
fn permanently_crashed_network_goes_silent() {
    let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .seed(1)
        .faults(FaultPlan::default().with_crash(CrashModel::new(1.0, 0.0)))
        .build()
        .unwrap();
    sim.run(&rr_mac(2), 50);
    let r = sim.report();
    assert!(r.link_success.is_empty(), "crashed nodes never transmit");
    assert_eq!(sim.crashed_count(), 2);
    assert!(sim.is_crashed(0) && sim.is_crashed(1));
    assert_eq!(sim.dead_count(), 0, "crash is not battery death");
    // Radios are off: only the sleep floor is consumed.
    let sleep_only = 50.0 * sim.energy_model().slot_energy_mj(RadioState::Sleep);
    assert!((r.energy.consumed_mj[0] - sleep_only).abs() < 1e-9);
}

#[test]
fn clock_drift_breaks_schedule_agreement() {
    let run = |drift: f64| {
        let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .seed(5)
            .faults(FaultPlan::default().with_drift(drift))
            .build()
            .unwrap();
        sim.run(&rr_mac(2), 2000);
        sim.report().link_success.values().sum::<u64>()
    };
    let perfect = run(0.0);
    let drifted = run(0.2);
    assert_eq!(perfect, 2000);
    assert!(drifted < 1900, "relative skew must cost slots: {drifted}");
    assert!(
        drifted > 100,
        "drifted clocks still agree sometimes: {drifted}"
    );
}

#[test]
fn faulted_runs_are_deterministic_in_seed() {
    let plan = FaultPlan::lossy(0.1)
        .with_burst(GilbertElliott::bursty(0.01, 0.2))
        .with_crash(CrashModel::new(0.005, 0.1))
        .with_drift(0.01)
        .with_max_retries(5);
    let run = |seed| {
        let mut sim = SimulatorBuilder::new(
            Topology::ring(6),
            TrafficPattern::Convergecast {
                sink: 0,
                rate: 0.15,
            },
        )
        .seed(seed)
        .faults(plan)
        .build()
        .unwrap();
        sim.run(&rr_mac(6), 800);
        let r = sim.report();
        (
            r.generated,
            r.delivered,
            r.link_drops,
            r.crashes,
            r.recoveries,
            r.retry_exhausted,
            r.crash_dropped,
            r.backlog,
        )
    };
    assert_eq!(run(31), run(31));
    assert_ne!(run(31), run(32));
}

#[test]
fn try_new_reports_typed_errors() {
    let err = SimulatorBuilder::new(
        Topology::line(2),
        TrafficPattern::Convergecast { sink: 5, rate: 0.1 },
    )
    .build()
    .unwrap_err();
    assert_eq!(err, SimError::SinkOutOfRange { sink: 5, nodes: 2 });

    let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .miss_probability(1.5)
        .build()
        .unwrap_err();
    assert_eq!(err, SimError::InvalidMissProbability { value: 1.5 });

    let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .faults(FaultPlan::lossy(2.0))
        .build()
        .unwrap_err();
    assert!(matches!(err, SimError::InvalidProbability { .. }));
}

#[test]
fn try_new_rejects_nan_miss_probability() {
    // NaN fails every range comparison, so `!(0.0..=1.0).contains(&p)`
    // must reject it — silently accepting NaN would poison every
    // `gen_bool(miss)` draw downstream.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.01] {
        let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .miss_probability(bad)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidMissProbability { .. }),
            "{bad} must be rejected, got {err:?}"
        );
    }
}

#[test]
#[should_panic(expected = "per-link error rate must be in [0, 1]")]
fn invalid_fault_plan_panics_in_new() {
    SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
        .faults(FaultPlan::lossy(-0.5))
        .build()
        .unwrap_or_else(|e| panic!("{e}"));
}

/// A MAC whose p-persistence is deliberately out of range, to pin the
/// clamp-at-call-site behaviour (release builds sanitize; debug builds
/// flag the protocol bug with a `debug_assert!`).
#[cfg(debug_assertions)]
struct BadProbabilityMac(f64);

#[cfg(debug_assertions)]
impl ttdc_sim::MacProtocol for BadProbabilityMac {
    fn name(&self) -> &str {
        "bad-probability"
    }
    fn frame_length(&self) -> usize {
        1
    }
    fn may_transmit(&self, _node: usize, _slot: u64) -> bool {
        true
    }
    fn may_receive(&self, _node: usize, _slot: u64) -> bool {
        true
    }
    fn transmit_probability(&self, _node: usize, _slot: u64) -> f64 {
        self.0
    }
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "transmit_probability must be in [0, 1]")]
fn out_of_range_transmit_probability_is_flagged_in_debug() {
    let mut sim =
        SimulatorBuilder::new(Topology::line(2), TrafficPattern::CbrUnicast { period: 1 })
            .schedule_aware_senders(false)
            .build()
            .unwrap();
    sim.run(&BadProbabilityMac(f64::NAN), 5);
}
