//! Phase 7: energy accounting and battery depletion.
//!
//! Charges each live node for the radio state it actually occupied this
//! slot — transmit beats listen beats sleep, using the flags the election
//! and channel phases stored — and kills nodes whose cumulative draw
//! reaches the battery capacity. A crashed node's radio is off: it pays
//! only the sleep floor while down, as does a node that *missed* its
//! listen slot (the sync-miss roll already decided it never turned the
//! radio on).

use crate::energy::RadioState;
use crate::engine::Simulator;
use crate::observer::SlotEvent;
use crate::plan::SlotPlan;

/// Depletes `v`'s battery if its cumulative draw just crossed the
/// capacity — the shared tail of every energy charge.
#[inline]
fn charge_battery(sim: &mut Simulator, v: usize) {
    if let Some(cap) = sim.config.battery_capacity_mj {
        if sim.energy.consumed_mj[v] >= cap {
            sim.dead[v] = true;
            sim.emit(SlotEvent::NodeDied { node: v });
        }
    }
}

/// The radio state `v` occupied this slot, from the election and channel
/// flags. A node on the awake roster can still have slept: crashed,
/// missed sync, or lost the p-persistence roll.
#[inline]
fn radio_state(sim: &Simulator, v: usize) -> RadioState {
    if sim.transmitting[v] {
        RadioState::Transmit
    } else if sim.listening[v] {
        RadioState::Listen
    } else {
        RadioState::Sleep
    }
}

/// The per-node radio-state branch only runs for the slot's `awake`
/// roster. The walk advances through the roster and charges every index
/// gap — nodes the schedule guarantees asleep — with the sleep floor
/// directly, no flag reads. Interleaving gaps with roster entries (rather
/// than two separate loops) keeps `NodeDied` emission ascending in the
/// node index. When no battery capacity is configured the gap charges
/// additionally drop the per-node death checks and go through the bulk
/// range sweep (nothing can die, so the checks are statically dead).
pub(crate) fn run(sim: &mut Simulator, awake: &[u32]) {
    let n = sim.topo.num_nodes();
    if sim.config.battery_capacity_mj.is_none() {
        // Without a battery cap no node ever dies (`dead` is set nowhere
        // but the depletion check), so every gap charge reduces to the
        // same two array bumps — take them in bulk per gap instead of a
        // guarded call per node. The per-node f64 work is unchanged (one
        // `+= sleep_mj` per slot, same order), so reports stay
        // bit-identical; this is what makes the energy pass cheap when
        // nearly everyone sleeps.
        let sleep_mj = sim.config.energy.slot_energy_mj(RadioState::Sleep);
        let mut next = 0usize;
        for &a in awake {
            let a = a as usize;
            sim.energy.charge_sleep_range(sleep_mj, next..a);
            next = a + 1;
            let state = radio_state(sim, a);
            sim.energy.record(&sim.config.energy, a, state);
        }
        sim.energy.charge_sleep_range(sleep_mj, next..n);
        return;
    }
    let mut next = 0usize;
    for &a in awake {
        let a = a as usize;
        sleep_gap(sim, next..a);
        next = a + 1;
        if sim.dead[a] {
            continue;
        }
        let state = radio_state(sim, a);
        sim.energy.record(&sim.config.energy, a, state);
        charge_battery(sim, a);
    }
    sleep_gap(sim, next..n);
}

/// Charges the sleep floor to every live node of `gap`, ascending, with
/// the battery check after each.
fn sleep_gap(sim: &mut Simulator, gap: std::ops::Range<usize>) {
    for v in gap {
        if sim.dead[v] {
            continue;
        }
        sim.energy.record(&sim.config.energy, v, RadioState::Sleep);
        charge_battery(sim, v);
    }
}

/// The time-skipping energy pass for a *stepped* slot: touches only the
/// awake roster. Each awake node first settles its unflushed sleep debt —
/// every uncharged slot of a live node in skip mode is a guaranteed sleep
/// — via the bit-exact bulk charge, then records this slot's actual radio
/// state. Per node the resulting `f64` addition sequence is exactly what
/// the slot-by-slot pipeline would have produced, in the same order; sleeping
/// non-roster nodes are left to their debt counters. No battery checks:
/// the engine's epoch bounds guarantee nobody can deplete inside a skip
/// window.
pub(crate) fn run_skip(sim: &mut Simulator, awake: &[u32], last_flush: &mut [u64]) {
    let sleep_mj = sim.config.energy.slot_energy_mj(RadioState::Sleep);
    for &a in awake {
        let a = a as usize;
        if sim.dead[a] {
            continue;
        }
        let debt = sim.slot - last_flush[a];
        if debt > 0 {
            sim.energy.charge_sleep_slots(sleep_mj, a, debt);
        }
        let state = radio_state(sim, a);
        sim.energy.record(&sim.config.energy, a, state);
        last_flush[a] = sim.slot + 1;
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
pub(crate) fn advance_span(
    sim: &mut Simulator,
    plan: &SlotPlan,
    rx_busy: &[u32],
    last_flush: &mut [u64],
    to: u64,
) {
    let from = sim.slot;
    debug_assert!(to >= from);
    if rx_busy.is_empty() {
        return;
    }
    let l = plan.frame_length() as u64;
    let sleep_mj = sim.config.energy.slot_energy_mj(RadioState::Sleep);
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
            let debt = s - last_flush[y];
            if debt > 0 {
                sim.energy.charge_sleep_slots(sleep_mj, y, debt);
            }
            sim.energy.record(&sim.config.energy, y, RadioState::Listen);
            last_flush[y] = s + 1;
        }
        idx += 1;
    }
}

/// Settles every live node's outstanding sleep debt up to `sim.slot` and
/// re-anchors the flush marks there. Called at battery-epoch boundaries
/// (so depletion headroom is computed on real numbers) and at the end of
/// a skipping run (so the ledger matches the slot-by-slot engines
/// exactly).
pub(crate) fn flush_all(sim: &mut Simulator, last_flush: &mut [u64]) {
    let now = sim.slot;
    let sleep_mj = sim.config.energy.slot_energy_mj(RadioState::Sleep);
    for (v, mark) in last_flush.iter_mut().enumerate() {
        if !sim.dead[v] {
            let debt = now - *mark;
            if debt > 0 {
                sim.energy.charge_sleep_slots(sleep_mj, v, debt);
            }
        }
        *mark = now;
    }
}
