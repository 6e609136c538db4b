//! Property tests for the MAC protocols: periodicity, duty-cycle
//! accounting, and the structural contrasts the experiments rely on.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc_core::construct::PartitionStrategy;
use ttdc_protocols::{
    ColoringTdmaMac, NaiveDutyCycleMac, RandomWakeupMac, SlottedAlohaMac, SmacLikeMac, TsmaMac,
    TtdcMac,
};
use ttdc_sim::{FaultPlan, MacProtocol, SimPath, SimulatorBuilder, Topology, TrafficPattern};
use ttdc_util::BitSet;

fn receive_duty(mac: &dyn MacProtocol, node: usize, horizon: u64) -> f64 {
    (0..horizon).filter(|&s| mac.may_receive(node, s)).count() as f64 / horizon as f64
}

/// Checks `frame_slot_masks` at every frame slot against the per-node
/// `may_transmit`/`may_receive` answers over `n` nodes. The masks start
/// full, so a method that fails to overwrite them shows up too.
fn masks_match_probes(mac: &dyn MacProtocol, n: usize) -> Result<(), TestCaseError> {
    prop_assert!(mac.frame_periodic());
    let (mut tx, mut rx) = (BitSet::full(n), BitSet::full(n));
    for i in 0..mac.frame_length() {
        mac.frame_slot_masks(n, i, &mut tx, &mut rx);
        let slot = i as u64;
        let want_tx = BitSet::from_iter(n, (0..n).filter(|&v| mac.may_transmit(v, slot)));
        let want_rx = BitSet::from_iter(n, (0..n).filter(|&v| mac.may_receive(v, slot)));
        prop_assert_eq!(&tx, &want_tx, "{} slot {} over {} nodes", mac.name(), i, n);
        prop_assert_eq!(&rx, &want_rx, "{} slot {} over {} nodes", mac.name(), i, n);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every frame-periodic MAC's slot masks equal its own probes. The
    /// ones that copy bit-mask words are also checked over fewer nodes
    /// than they were built for, and the schedule-backed ones over more.
    #[test]
    fn frame_slot_masks_match_probes(
        n in 8usize..24,
        d in 2usize..4,
        side in 2usize..6,
        period in 1u64..12,
        p in 0.05f64..1.0,
    ) {
        let ttdc = TtdcMac::new(n, d, 2, 3, PartitionStrategy::RoundRobin);
        let tsma = TsmaMac::new(n, d);
        for mac in [&ttdc as &dyn MacProtocol, &tsma] {
            for sim_n in [n, n + 65, n / 2] {
                masks_match_probes(mac, sim_n)?;
            }
        }
        let tdma = ColoringTdmaMac::new(&Topology::grid(side, side + 1));
        for sim_n in [side * (side + 1), side] {
            masks_match_probes(&tdma, sim_n)?;
        }
        let active = (period / 2).max(1);
        masks_match_probes(&SmacLikeMac::new(period, active, p), n)?;
        masks_match_probes(&SlottedAlohaMac::new(p), n)?;
        masks_match_probes(&NaiveDutyCycleMac::new(period), n)?;
    }

    /// Schedule-based protocols are exactly periodic in their frame.
    #[test]
    fn schedule_protocols_are_periodic(n in 8usize..20, d in 2usize..4, node in 0usize..8) {
        prop_assume!(node < n);
        let ttdc = TtdcMac::new(n, d, 2, 3, PartitionStrategy::RoundRobin);
        let tsma = TsmaMac::new(n, d);
        let naive = NaiveDutyCycleMac::new(n as u64);
        for mac in [&ttdc as &dyn MacProtocol, &tsma, &naive] {
            let l = mac.frame_length() as u64;
            prop_assert!(l >= 1);
            for s in 0..l.min(64) {
                prop_assert_eq!(mac.may_transmit(node, s), mac.may_transmit(node, s + l));
                prop_assert_eq!(mac.may_receive(node, s), mac.may_receive(node, s + l));
            }
        }
    }

    /// TTDC's per-slot transmitter/receiver counts respect the budget in
    /// every slot, for arbitrary feasible (n, D, α_T, α_R).
    #[test]
    fn ttdc_budget_holds_everywhere(
        n in 9usize..24,
        d in 2usize..4,
        at in 1usize..4,
        ar in 1usize..5,
    ) {
        prop_assume!(at + ar <= n);
        let mac = TtdcMac::new(n, d, at, ar, PartitionStrategy::Contiguous);
        for s in 0..mac.frame_length() as u64 {
            let tx = (0..n).filter(|&v| mac.may_transmit(v, s)).count();
            let rx = (0..n).filter(|&v| mac.may_receive(v, s)).count();
            prop_assert!(tx <= at, "slot {}: {} > {}", s, tx, at);
            prop_assert_eq!(rx, ar, "slot {}", s);
        }
    }

    /// The naive scheme wakes each node exactly once per period, whatever
    /// the period and node id.
    #[test]
    fn naive_wakes_once_per_period(k in 2u64..40, node in 0usize..100) {
        let mac = NaiveDutyCycleMac::new(k);
        let wakes = (0..k).filter(|&s| mac.may_receive(node, s)).count();
        prop_assert_eq!(wakes, 1);
        prop_assert!(mac.may_transmit(node, 0), "naive senders never sleep to send");
    }

    /// The naive MAC steps on slot plans: under Poisson traffic `run`
    /// takes the plan and under clock drift the skew groups, and each
    /// full report, trace included, equals the per-slot scan's.
    #[test]
    fn naive_runs_on_plan_and_skew_like_the_scan(
        k in 1u64..12,
        n in 8usize..40,
        drift in 0.001f64..0.2,
        seed in 0u64..1000,
    ) {
        let mac = NaiveDutyCycleMac::new(k);
        let topo = Topology::random_gnp_capped(n, 0.2, 4, &mut SmallRng::seed_from_u64(seed));
        let pattern = TrafficPattern::PoissonUnicast { rate: 0.05 };
        for (faults, path) in [
            (FaultPlan::none(), SimPath::Plan),
            (FaultPlan::none().with_drift(drift), SimPath::Skew),
        ] {
            let build = || {
                SimulatorBuilder::new(topo.clone(), pattern)
                    .seed(seed)
                    .faults(faults)
                    .trace_capacity(256)
                    .build()
                    .unwrap()
            };
            let mut via_run = build();
            prop_assert_eq!(via_run.run(&mac, 300), path);
            let mut via_scan = build();
            via_scan.run_on(SimPath::Scan, &mac, 300);
            prop_assert_eq!(via_run.report(), via_scan.report());
        }
    }

    /// Random wakeup's empirical duty tracks its configured duty for any
    /// node and seed.
    #[test]
    fn random_wakeup_duty_tracks_config(
        duty_pct in 5u32..95,
        seed in 0u64..1000,
        node in 0usize..50,
    ) {
        let duty = duty_pct as f64 / 100.0;
        let mac = RandomWakeupMac::new(duty, seed);
        let measured = receive_duty(&mac, node, 20_000);
        prop_assert!((measured - duty).abs() < 0.03, "{} vs {}", measured, duty);
    }

    /// S-MAC's window arithmetic: duty equals active/period exactly.
    #[test]
    fn smac_duty_exact(period in 2u64..50, active_frac in 1u64..100) {
        let active = (active_frac * period / 100).max(1);
        let mac = SmacLikeMac::new(period, active, 0.5);
        let measured = receive_duty(&mac, 0, period * 100);
        prop_assert!((measured - active as f64 / period as f64).abs() < 1e-12);
    }

    /// ALOHA is always-on with the configured persistence.
    #[test]
    fn aloha_always_on(p in 0.01f64..1.0, slot in 0u64..10_000) {
        let mac = SlottedAlohaMac::new(p);
        prop_assert!(mac.may_transmit(0, slot));
        prop_assert!(mac.may_receive(1, slot));
        prop_assert_eq!(mac.transmit_probability(0, slot), p);
    }
}
