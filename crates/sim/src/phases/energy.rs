//! Phase 7: energy accounting and battery depletion.
//!
//! Charges each live node for the radio state it actually occupied —
//! transmit beats listen beats sleep, using the masks the election and
//! channel phases stored — and kills nodes whose cumulative draw reaches
//! the battery capacity. A crashed node's radio is off: it pays only the
//! sleep floor while down, as does a node that *missed* its listen slot
//! (the sync-miss roll already decided it never turned the radio on).
//!
//! A node off the awake roster is not charged per slot: every uncharged
//! slot of a live node is *debt*, counted from its mark in
//! `Simulator::settled` and settled bit-exactly by one function,
//! [`settle`], when the node next wakes or when its path's battery window
//! ends. The debt rule is the same on every path: idle listening at the
//! run's listen slots, sleep at every other slot
//! (`EnergyLedger::charge_debt`). The skip engine steps only interesting
//! slots, so its listen slots are each node's scheduled ones
//! ([`ActiveSlots::rx_slots_of`]) and a skipped slot costs nothing. The
//! plan, skew and scan paths pass none: every scheduled listener sits on
//! its slot's awake roster there, so the debt never spans a listen slot.
//! Per node the resulting `f64` addition sequence is exactly one
//! `+= slot_energy` per slot, in slot order, on every path.

use crate::energy::RadioState;
use crate::engine::Simulator;
use crate::observer::SlotEvent;
use crate::plan::ActiveSlots;

/// The radio state `v` occupied this slot, from the election and channel
/// masks. A node on the awake roster can still have slept: crashed,
/// missed sync, or lost the p-persistence roll.
#[inline]
fn radio_state(sim: &Simulator, v: usize) -> RadioState {
    if sim.tx_mask.contains(v) {
        RadioState::Transmit
    } else if sim.rx_mask.contains(v) {
        RadioState::Listen
    } else {
        RadioState::Sleep
    }
}

/// Charges `v`'s debt up to (not including) slot `to` — idle listening
/// at its slots in `listens`, sleep at every other — and moves its mark
/// there. Always inlined with its ledger charge, so that the `None` arm
/// compiles to the stepped paths' sleep charge: one `iterate_add` call
/// and a sleep count.
#[inline(always)]
fn settle(sim: &mut Simulator, listens: Option<&ActiveSlots>, v: usize, to: u64) {
    let from = sim.settled[v];
    if to > from {
        let model = &sim.config.energy;
        match listens {
            Some(a) => {
                let rx = a.rx_slots_of(v);
                sim.energy.charge_debt(model, v, rx, a.frame_len, from, to)
            }
            None => sim.energy.charge_debt(model, v, &[], 1, from, to),
        }
        sim.settled[v] = to;
    }
}

/// The energy pass of a stepped slot. Each live node of the `awake`
/// roster settles its debt, then records this slot's radio state; nodes
/// off the roster are left to their debt. With `bury` (a battery window
/// in which a depletion is imminent) every live node is then settled
/// through this slot and checked against the capacity in ascending order,
/// so `NodeDied` events land on their exact slot in node order. Without
/// it nobody can deplete: the battery-window loop bounds the window by
/// the minimum headroom.
pub(crate) fn run(sim: &mut Simulator, listens: Option<&ActiveSlots>, awake: &[u32], bury: bool) {
    let slot = sim.slot;
    for &a in awake {
        let a = a as usize;
        if sim.dead[a] {
            continue;
        }
        settle(sim, listens, a, slot);
        let state = radio_state(sim, a);
        sim.energy.record(&sim.config.energy, a, state);
        sim.settled[a] = slot + 1;
    }
    let Some(cap) = sim.config.battery_capacity_mj.filter(|_| bury) else {
        return;
    };
    for v in 0..sim.topo.num_nodes() {
        if sim.dead[v] {
            continue;
        }
        settle(sim, listens, v, slot + 1);
        if sim.energy.consumed_mj[v] >= cap {
            sim.dead[v] = true;
            sim.emit(SlotEvent::NodeDied { node: v });
        }
    }
}

/// Settles every live node's debt up to `sim.slot` and re-anchors every
/// mark there. Each path's battery window ends with it, so depletion
/// headroom is computed on real numbers and the ledger reads settled
/// between runs.
pub(crate) fn flush_all(sim: &mut Simulator, listens: Option<&ActiveSlots>) {
    let now = sim.slot;
    for v in 0..sim.settled.len() {
        if !sim.dead[v] {
            settle(sim, listens, v, now);
        }
        sim.settled[v] = now;
    }
}
