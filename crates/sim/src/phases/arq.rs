//! Phase 6: the bounded link-layer ARQ pass.
//!
//! A sender whose transmission went unacknowledged (collision, fade, deaf
//! receiver) burns one retry; past the budget the packet is abandoned.
//! Skipped entirely when the plan retries forever (`max_retries: None`) —
//! the pre-ARQ engine behaviour.

use crate::engine::Simulator;
use crate::observer::SlotEvent;

/// Only this slot's actual transmitters can hold an unacknowledged hop
/// (`tx_queue_idx` is set at election and cleared on delivery), so the
/// pass walks the engine's ascending `active_tx` roster, not all `n`
/// nodes. Queue indices left on nodes not elected this slot are never
/// read.
pub(crate) fn run(sim: &mut Simulator) {
    let Some(limit) = sim.faults.plan().max_retries else {
        return;
    };
    for i in 0..sim.active_tx.len() {
        let v = sim.active_tx[i];
        let qi = sim.tx_queue_idx[v];
        if qi == usize::MAX {
            continue; // the hop was acknowledged in delivery
        }
        let pkt = &mut sim.queues[v][qi];
        pkt.retries += 1;
        if pkt.retries > limit {
            sim.queues[v].remove(qi);
            sim.emit(SlotEvent::RetryExhausted { node: v });
        }
    }
}
