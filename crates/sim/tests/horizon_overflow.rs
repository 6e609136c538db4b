//! Slot arithmetic must survive horizons past `u32::MAX` (~4.3 × 10⁹).
//!
//! The time-skipping engine makes such horizons affordable, which also
//! makes them reachable — so a silent `as u32` anywhere on the slot,
//! latency, or per-node slot-count paths would now corrupt results
//! instead of merely being unreachable dead weight. This test runs a
//! two-node scenario for more than 2³² slots in a few hundred thousand
//! actual pipeline steps and pins every quantity that crosses the 32-bit
//! line: the slot counter, end-to-end latencies, and the per-node
//! tx/listen/sleep ledgers (whose sum must equal the horizon exactly —
//! any truncation or double-count breaks the identity).

use ttdc_core::Schedule;
use ttdc_sim::{ScheduleMac, SimulatorBuilder, Topology, TrafficPattern};
use ttdc_util::BitSet;

/// Frame with no transmit or receive opportunities at all: every slot is
/// skippable, so the engine's calendar holds only CBR generation slots
/// and billions of slots cost only their bulk sleep-charge folds.
fn silent_mac(frame: usize) -> ScheduleMac {
    let empty = vec![BitSet::new(2); frame];
    ScheduleMac::new("silent", Schedule::new(2, empty.clone(), empty))
}

/// Frame of two slots: node 0 transmits to listening node 1, then the
/// reverse. Drains one packet per slot once queues are backlogged.
fn drain_mac() -> ScheduleMac {
    let t = vec![BitSet::from_iter(2, [0]), BitSet::from_iter(2, [1])];
    let r = vec![BitSet::from_iter(2, [1]), BitSet::from_iter(2, [0])];
    ScheduleMac::new("drain", Schedule::new(2, t, r))
}

#[test]
fn slot_accounting_survives_a_horizon_past_u32() {
    const PERIOD: u64 = 65_536;
    // Phase 1: 1.5 × 2³² slots of pure accumulation — each node queues a
    // packet every PERIOD slots and never gets a transmit opportunity.
    const PHASE1: u64 = (1 << 32) + (1 << 31);
    // Phase 2: enough transmit slots to drain everything queued above
    // (one delivery per slot) plus the trickle generated while draining.
    const PHASE2: u64 = 2 * (PHASE1 / PERIOD) + 4_096;

    let mut topo = Topology::empty(2);
    topo.add_edge(0, 1);
    let mut sim = SimulatorBuilder::new(topo, TrafficPattern::CbrUnicast { period: PERIOD })
        .seed(7)
        .build()
        .unwrap();

    sim.run(&silent_mac(PERIOD as usize), PHASE1);
    assert_eq!(sim.report().slots, PHASE1);
    assert!(sim.report().backlog >= 2 * (PHASE1 / PERIOD) - 2);

    sim.run(&drain_mac(), PHASE2);
    let r = sim.report();

    let total = PHASE1 + PHASE2;
    assert!(total > u32::MAX as u64);
    assert_eq!(r.slots, total);
    assert_eq!(r.backlog, 0, "drain phase must clear the queues");
    assert_eq!(r.delivered, r.generated);
    assert!(r.generated >= 2 * (PHASE1 / PERIOD));
    assert_eq!(r.collisions, 0);

    // The oldest packet waited out nearly all of phase 1: its end-to-end
    // latency alone exceeds u32::MAX. Both latency sinks must agree.
    assert!(r.latency.max() > u32::MAX as f64);
    assert!(r.latency_hist.max() > u32::MAX as u64);
    assert!(r.latency.min() >= 1.0);

    // Exact per-node slot conservation at 6.4 × 10⁹ slots: every slot is
    // spent in exactly one radio state, with sleep well past 2³².
    for v in 0..2 {
        let e = &r.energy;
        assert_eq!(
            e.tx_slots[v] + e.listen_slots[v] + e.sleep_slots[v],
            total,
            "node {v}: radio-state slots must partition the horizon"
        );
        assert!(e.sleep_slots[v] > u32::MAX as u64);
        assert!(e.consumed_mj[v].is_finite() && e.consumed_mj[v] > 0.0);
    }
}
