//! Phase 4: listen decisions and reception resolution.
//!
//! Each eligible listener makes its listen decision — including the
//! sync-miss roll — exactly once per slot; the energy phase reuses the
//! stored `rx_mask` bit, so a missed listen is charged as sleep, not
//! listening. Concurrent transmissions then resolve through the engine's
//! channel rule (the paper's exactly-one rule, or physical capture), with
//! injected link fading applied to decoded receptions only.

use crate::channel::Reception;
use crate::engine::Simulator;
use crate::observer::SlotEvent;
use rand::Rng;

/// Visits only the slot's listener candidates, ascending: a node off the
/// roster fails the schedule gate before its sync-miss draw, so skipping
/// it consumes no randomness. Receptions resolve against the
/// actual-transmitter word mask (`neighbors(y)` intersected word by
/// word).
pub(crate) fn run(sim: &mut Simulator, listeners: &[u32]) {
    let saturated = sim.pattern.is_saturated();
    let miss = sim.config.miss_probability;
    sim.successes.clear();
    sim.rx_mask.clear();
    for &y in listeners {
        let y = y as usize;
        if sim.dead[y]
            || sim.faults.is_crashed(y)
            || sim.tx_mask.contains(y)
            || (miss > 0.0 && sim.rng.gen_bool(miss))
        {
            continue;
        }
        sim.rx_mask.insert(y);
        let reception = sim
            .channel
            .resolve(y, sim.slot, &sim.topo, &sim.tx_mask, &mut sim.faults);
        match reception {
            Reception::Idle => {}
            Reception::Collision => sim.emit(SlotEvent::Collision { at: y }),
            Reception::Faded { from } => {
                sim.emit(SlotEvent::LinkDropped { from, to: y });
            }
            Reception::Decoded { from: x } => {
                if saturated {
                    sim.emit(SlotEvent::LinkSuccess { from: x, to: y });
                } else {
                    let qi = sim.tx_queue_idx[x];
                    let pkt = sim.queues[x][qi];
                    if sim.next_hop(x, &pkt) == y {
                        sim.successes.push((x, y));
                    }
                }
            }
        }
    }
}
