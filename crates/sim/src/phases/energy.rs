//! Phase 7: energy accounting and battery depletion.
//!
//! Charges each live node for the radio state it actually occupied —
//! transmit beats listen beats sleep, using the masks the election and
//! channel phases stored — and kills nodes whose cumulative draw reaches
//! the battery capacity. A crashed node's radio is off: it pays only the
//! sleep floor while down, as does a node that *missed* its listen slot
//! (the sync-miss roll already decided it never turned the radio on).
//!
//! A node off the awake roster is guaranteed asleep, so it is not charged
//! per slot: every uncharged slot of a live node is *debt*, counted from
//! its mark in `Simulator::settled` and settled bit-exactly in one call
//! when the node next wakes or when the engine's battery-window loop
//! flushes everyone. On the plan, skew and scan paths the debt holds only
//! sleep, because every scheduled listener sits on its slot's awake
//! roster (`EnergyLedger::charge_sleep_slots`). The skip engine steps only
//! interesting slots, so its debt also holds the idle listening of the
//! skipped slots at the node's scheduled listen slots; it settles the
//! awake roster before each stepped slot and every live node at the end
//! of each window (`EnergyLedger::charge_idle_slots`), and a skipped slot
//! costs nothing. Per node the resulting `f64` addition sequence is
//! exactly one `+= slot_energy` per slot, in slot order, on every path.

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

/// Charges `v`'s sleep debt up to (not including) slot `to` and moves its
/// mark there.
#[inline]
fn settle(sim: &mut Simulator, v: usize, to: u64) {
    let debt = to - sim.settled[v];
    if debt > 0 {
        let sleep_mj = sim.config.energy.slot_energy_mj(RadioState::Sleep);
        sim.energy.charge_sleep_slots(sleep_mj, v, debt);
        sim.settled[v] = to;
    }
}

/// The energy pass of a stepped slot. Each live node of the `awake`
/// roster settles its debt, then records this slot's radio state; sleeping
/// nodes off the roster are left to their debt. With `bury` (a battery
/// window in which a depletion is imminent) every live node is then
/// settled through this slot and checked against the capacity in
/// ascending order, so `NodeDied` events land on their exact slot in node
/// order. Without it nobody can deplete: the battery-window loop bounds
/// the window by the minimum headroom.
pub(crate) fn run(sim: &mut Simulator, awake: &[u32], bury: bool) {
    let slot = sim.slot;
    for &a in awake {
        let a = a as usize;
        if sim.dead[a] {
            continue;
        }
        settle(sim, a, slot);
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
        settle(sim, v, slot + 1);
        if sim.energy.consumed_mj[v] >= cap {
            sim.dead[v] = true;
            sim.emit(SlotEvent::NodeDied { node: v });
        }
    }
}

/// Skip-path settle: charges `v`'s debt up to (not including) slot `to`
/// — idle listening at its scheduled listen slots, sleep at every other —
/// and moves its mark there.
#[inline]
fn settle_idle(sim: &mut Simulator, active: &ActiveSlots, v: usize, to: u64) {
    let from = sim.settled[v];
    if to > from {
        let rx = active.rx_slots_of(v);
        let model = &sim.config.energy;
        sim.energy
            .charge_idle_slots(model, v, rx, active.frame_len, from, to);
        sim.settled[v] = to;
    }
}

/// Settles the debt of the live members of `awake` up to `sim.slot`, which
/// the skip engine is about to step on that roster; its energy pass then
/// finds no debt left to charge.
pub(crate) fn settle_roster(sim: &mut Simulator, active: &ActiveSlots, awake: &[u32]) {
    let slot = sim.slot;
    for &a in awake {
        let a = a as usize;
        if !sim.dead[a] {
            settle_idle(sim, active, a, slot);
        }
    }
}

/// Settles every live node's debt up to `sim.slot` at the end of a skip
/// window, so [`flush_all`] finds nothing left to charge.
pub(crate) fn settle_all(sim: &mut Simulator, active: &ActiveSlots) {
    let now = sim.slot;
    for v in 0..sim.settled.len() {
        if !sim.dead[v] {
            settle_idle(sim, active, v, now);
        }
    }
}

/// Settles every live node's sleep debt up to `sim.slot` and re-anchors
/// every mark there. The battery-window loop calls it at each window
/// boundary, so depletion headroom is computed on real numbers and the
/// ledger reads settled between runs. A skip window has already settled
/// its idle debt ([`settle_all`]), so this finds none there.
pub(crate) fn flush_all(sim: &mut Simulator) {
    let now = sim.slot;
    for v in 0..sim.settled.len() {
        if !sim.dead[v] {
            settle(sim, v, now);
        }
        sim.settled[v] = now;
    }
}
