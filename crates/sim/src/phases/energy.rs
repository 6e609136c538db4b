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
//! per slot: every uncharged slot of a live node is sleep *debt*, counted
//! from its mark in `Simulator::settled` and settled bit-exactly in one
//! call (`EnergyLedger::charge_sleep_slots`) when the node next wakes,
//! when a skipped span reaches its listen slot, or when the engine's
//! battery-window loop flushes everyone. Per node the resulting `f64`
//! addition sequence is exactly one `+= slot_energy` per slot, in slot
//! order, on every path.

use crate::energy::RadioState;
use crate::engine::Simulator;
use crate::observer::SlotEvent;
use crate::plan::SlotPlan;

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

/// Charges every listener occurrence in the *skipped* span
/// `[sim.slot, to)`: slots there have no transmitters and no traffic (the
/// calendar said so), so scheduled listeners idle-listen and everyone
/// else sleeps. Walks the frame-periodic `rx_busy` occurrence list
/// (frame indices with a nonempty listener roster) across the span; a
/// schedule with no listeners at all makes the whole span O(1). Each
/// listener settles its sleep debt before the listen charge, preserving
/// the per-node chronological addition order the bit-identity contract
/// requires.
// Out of line on purpose: when the optimizer inlined it into
// `Simulator::run_on`'s skip loop, the sim-lowrate benchmark's best op
// ran ~6% slower (median of 9 pairs, 2-vCPU host).
#[inline(never)]
pub(crate) fn advance_span(sim: &mut Simulator, plan: &SlotPlan, rx_busy: &[u32], to: u64) {
    let from = sim.slot;
    debug_assert!(to >= from);
    if rx_busy.is_empty() {
        return;
    }
    let l = plan.frame_length() as u64;
    let mut base = from - from % l;
    let mut idx = rx_busy.partition_point(|&fs| base + (fs as u64) < from);
    loop {
        if idx == rx_busy.len() {
            base += l;
            idx = 0;
        }
        let s = base + rx_busy[idx] as u64;
        if s >= to {
            break;
        }
        for &y in plan.listeners(rx_busy[idx] as usize) {
            let y = y as usize;
            if sim.dead[y] {
                continue;
            }
            settle(sim, y, s);
            sim.energy.record(&sim.config.energy, y, RadioState::Listen);
            sim.settled[y] = s + 1;
        }
        idx += 1;
    }
}

/// Settles every live node's sleep debt up to `sim.slot` and re-anchors
/// every mark there. The battery-window loop calls it at each window
/// boundary, so depletion headroom is computed on real numbers and the
/// ledger reads settled between runs.
pub(crate) fn flush_all(sim: &mut Simulator) {
    let now = sim.slot;
    for v in 0..sim.settled.len() {
        if !sim.dead[v] {
            settle(sim, v, now);
        }
        sim.settled[v] = now;
    }
}
