//! Phase 3: transmit decisions.
//!
//! Each node consults the schedule at its *perceived* slot (clock drift
//! skews its local clock), though the transmission physically happens in
//! the true slot. A sync-miss roll, the MAC's p-persistence probability,
//! the stale-packet drop, and the schedule-aware packet choice all live
//! here, in the exact order the inlined engine used — every RNG draw sits
//! behind its original gate (see the pipeline's compatibility rule).

use crate::engine::Simulator;
use crate::mac::MacProtocol;
use crate::observer::SlotEvent;
use crate::roster::Roster;
use rand::Rng;

/// Clamps a MAC's p-persistence value into `[0, 1]`, mapping NaN to 0.
///
/// Out-of-range values are a protocol bug — flagged by the
/// `debug_assert!` at the call site — but release builds degrade to the
/// nearest sane probability instead of corrupting the RNG stream: the
/// clamped draw sequence is identical to the historical
/// `p >= 1.0 || gen_bool(p.max(0.0))` for *every* input, NaN included.
pub(crate) fn clamp_transmit_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Visits only the roster's transmitter candidates, ascending. A node off
/// the roster fails the schedule gate before any draw, so skipping it
/// consumes no randomness.
pub(crate) fn run<R: Roster>(sim: &mut Simulator, mac: &dyn MacProtocol, roster: &R) {
    let saturated = sim.pattern.is_saturated();
    let miss = sim.config.miss_probability;
    sim.active_tx.clear();
    sim.tx_mask.clear();
    for &v in roster.transmitters() {
        let v = v as usize;
        sim.tx_queue_idx[v] = usize::MAX;
        if sim.dead[v] || sim.faults.is_crashed(v) {
            continue;
        }
        if miss > 0.0 && sim.rng.gen_bool(miss) {
            continue;
        }
        if saturated {
            elect(sim, v);
            sim.emit(SlotEvent::Transmitted {
                node: v,
                next_hop: usize::MAX,
            });
            continue;
        }
        // Drop stale packets whose next hop left radio range and has no
        // replacement route.
        while let Some(front) = sim.queues[v].front() {
            let nh = sim.next_hop(v, front);
            if nh == usize::MAX || !sim.topo.has_edge(v, nh) {
                sim.queues[v].pop_front();
                sim.emit(SlotEvent::StaleDropped { node: v });
            } else {
                break;
            }
        }
        let pslot = roster.perceived(v);
        let chosen = if sim.config.schedule_aware_senders {
            // The sender predicts the receiver's listen slot with its
            // *own* clock — a drifted sender guesses wrong.
            sim.queues[v].iter().position(|p| {
                let nh = sim.next_hop(v, p);
                nh != usize::MAX && sim.topo.has_edge(v, nh) && roster.listens(mac, nh, pslot)
            })
        } else if sim.queues[v].is_empty() {
            None
        } else {
            Some(0)
        };
        if let Some(qi) = chosen {
            let p = mac.transmit_probability(v, pslot);
            debug_assert!(
                !p.is_nan() && (0.0..=1.0).contains(&p),
                "MacProtocol::transmit_probability must be in [0, 1], got {p} \
                 from {} at node {v} slot {pslot}",
                mac.name()
            );
            let p = clamp_transmit_probability(p);
            if p >= 1.0 || sim.rng.gen_bool(p) {
                elect(sim, v);
                sim.tx_queue_idx[v] = qi;
                let nh = sim.next_hop(v, &sim.queues[v][qi]);
                sim.emit(SlotEvent::Transmitted {
                    node: v,
                    next_hop: nh,
                });
            }
        }
    }
}

/// Marks `v` as this slot's transmitter in both forms the later phases
/// read: the actual-transmitter roster (ascending, like the candidate
/// roster) that ARQ walks, and the word mask the channel and energy phases
/// test against.
#[inline]
fn elect(sim: &mut Simulator, v: usize) {
    sim.active_tx.push(v);
    sim.tx_mask.insert(v);
}

#[cfg(test)]
mod tests {
    use super::clamp_transmit_probability;

    #[test]
    fn clamp_sanitizes_every_pathological_probability() {
        assert_eq!(clamp_transmit_probability(0.5), 0.5);
        assert_eq!(clamp_transmit_probability(0.0), 0.0);
        assert_eq!(clamp_transmit_probability(1.0), 1.0);
        assert_eq!(clamp_transmit_probability(-0.3), 0.0);
        assert_eq!(clamp_transmit_probability(1.7), 1.0);
        assert_eq!(clamp_transmit_probability(f64::INFINITY), 1.0);
        assert_eq!(clamp_transmit_probability(f64::NEG_INFINITY), 0.0);
        // NaN must not survive: `gen_bool(NaN)` would be undefined, and
        // the historical `p.max(0.0)` already mapped NaN to 0.
        assert_eq!(clamp_transmit_probability(f64::NAN), 0.0);
    }
}
