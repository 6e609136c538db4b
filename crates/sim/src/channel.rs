//! Reception resolution: how simultaneous transmissions resolve at a
//! listener.
//!
//! The paper's collision model (§3) — a reception succeeds iff **exactly
//! one** neighbour of the listener transmits — is [`Channel::Ideal`]. The
//! one ablation the reproduction studies is physical power capture
//! ([`Channel::Capture`], configured through
//! [`SimulatorBuilder::capture`](crate::SimulatorBuilder::capture) with a
//! [`CaptureModel`]): the closest sender is still decoded if it is
//! sufficiently closer than the runner-up.
//!
//! Injected link loss (uniform PER and/or Gilbert–Elliott bursts, see
//! [`crate::faults`]) applies *after* decoding, uniformly across both
//! rules: [`Channel::resolve`] subjects a decoded transmission to the
//! fault stream and reports an erased one as [`Reception::Faded`].
//!
//! RNG compatibility rule: fading draws exactly one decision from the
//! dedicated fault stream per *decoded* reception — never for idle or
//! collided slots — so both rules consume randomness only for the
//! transmissions they decode (see `DESIGN.md`).

use crate::faults::FaultState;
use crate::topology::Topology;
use ttdc_util::BitSet;

/// Physical-layer capture: when several neighbours transmit at a listener,
/// the closest one is still decoded if it is sufficiently closer than the
/// runner-up. This is the standard power-capture ablation: the paper's
/// collision model is the conservative `ratio = ∞` special case, so
/// enabling capture can only help a topology-transparent schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CaptureModel {
    /// Minimum ratio `d₂/d₁` of runner-up to winner distance for capture
    /// (≥ 1; with a path-loss exponent γ this is an SIR threshold of
    /// `γ·10·log₁₀(ratio)` dB).
    pub ratio: f64,
}

/// What a listening node heard in one slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reception {
    /// No neighbour transmitted; the listener heard silence.
    Idle,
    /// The listener decoded the transmission from `from`.
    Decoded { from: usize },
    /// Two or more transmissions interfered and none was decoded.
    Collision,
    /// A transmission from `from` was decoded at the physical layer but
    /// erased by injected link loss (fading).
    Faded { from: usize },
}

/// How the engine resolves concurrent transmissions at a listener. Both
/// rules read the slot's transmitters as a word mask (`tx_mask.contains(v)`
/// iff `v` transmits) and visit transmitting neighbours in ascending order.
#[derive(Clone, Debug)]
pub(crate) enum Channel {
    /// The paper's rule: a reception at `y` succeeds iff exactly one
    /// neighbour of `y` transmits; two or more always collide.
    Ideal,
    /// The ideal rule plus physical power capture: among ≥ 2 transmitting
    /// neighbours, the closest still wins if the runner-up is at least
    /// [`CaptureModel::ratio`] times farther away. `positions[v]` is node
    /// `v`'s location; the builder checks one position per node and
    /// `ratio ≥ 1`.
    Capture {
        positions: Vec<(f64, f64)>,
        model: CaptureModel,
    },
}

impl Channel {
    /// Which transmitter, if any, listener `y` decodes. Pure collision
    /// resolution: never reports [`Reception::Faded`].
    pub(crate) fn decode(&self, y: usize, topo: &Topology, tx_mask: &BitSet) -> Reception {
        // The exactly-one rule as a word intersection: AND each block of
        // `neighbors(y)` against the transmitter mask and stop at the
        // second set bit.
        let mut first = usize::MAX;
        let mut collided = false;
        topo.neighbors(y).intersect_for_each(tx_mask, |v| {
            if first == usize::MAX {
                first = v;
                true
            } else {
                collided = true;
                false
            }
        });
        if !collided {
            return if first == usize::MAX {
                Reception::Idle
            } else {
                Reception::Decoded { from: first }
            };
        }
        match self {
            Channel::Ideal => Reception::Collision,
            Channel::Capture { positions, model } => {
                match capture_winner(positions, model.ratio, y, topo, tx_mask) {
                    Some(from) => Reception::Decoded { from },
                    None => Reception::Collision,
                }
            }
        }
    }

    /// Full resolution: [`decode`](Channel::decode), then subject a decoded
    /// transmission `from → y` in `slot` to injected link fading — exactly
    /// one fault-stream decision per decoded reception, none otherwise
    /// (and none at all when the plan has no link loss).
    pub(crate) fn resolve(
        &self,
        y: usize,
        slot: u64,
        topo: &Topology,
        tx_mask: &BitSet,
        faults: &mut FaultState,
    ) -> Reception {
        match self.decode(y, topo, tx_mask) {
            Reception::Decoded { from }
                if faults.plan().has_link_loss() && !faults.link_delivers(from, y, slot) =>
            {
                Reception::Faded { from }
            }
            r => r,
        }
    }
}

/// Among ≥ 2 transmitting neighbours of `y`, the one that captures the
/// channel, if any.
fn capture_winner(
    pos: &[(f64, f64)],
    ratio: f64,
    y: usize,
    topo: &Topology,
    tx_mask: &BitSet,
) -> Option<usize> {
    let (py, mut best, mut second) = (pos[y], None::<(f64, usize)>, f64::INFINITY);
    topo.neighbors(y).intersect_for_each(tx_mask, |v| {
        let d = ((pos[v].0 - py.0).powi(2) + (pos[v].1 - py.1).powi(2)).sqrt();
        match best {
            Some((bd, _)) if d >= bd => second = second.min(d),
            _ => {
                if let Some((bd, _)) = best {
                    second = second.min(bd);
                }
                best = Some((d, v));
            }
        }
        true
    });
    let (bd, bv) = best?;
    if second / bd.max(1e-12) >= ratio {
        Some(bv)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn mask(n: usize, txs: &[usize]) -> BitSet {
        BitSet::from_iter(n, txs.iter().copied())
    }

    fn capture(positions: Vec<(f64, f64)>, ratio: f64) -> Channel {
        Channel::Capture {
            positions,
            model: CaptureModel { ratio },
        }
    }

    #[test]
    fn ideal_channel_implements_the_paper_rule() {
        let topo = Topology::star(4);
        let ch = Channel::Ideal;
        assert_eq!(ch.decode(0, &topo, &mask(4, &[])), Reception::Idle);
        assert_eq!(
            ch.decode(0, &topo, &mask(4, &[2])),
            Reception::Decoded { from: 2 }
        );
        assert_eq!(ch.decode(0, &topo, &mask(4, &[1, 3])), Reception::Collision);
    }

    #[test]
    fn capture_channel_prefers_the_much_closer_sender() {
        let topo = Topology::star(3);
        let ch = capture(vec![(0.0, 0.0), (0.05, 0.0), (0.9, 0.0)], 2.0);
        assert_eq!(
            ch.decode(0, &topo, &mask(3, &[1, 2])),
            Reception::Decoded { from: 1 }
        );
        // Nearly equidistant senders still collide.
        let close = capture(vec![(0.0, 0.0), (0.50, 0.0), (0.55, 0.0)], 2.0);
        assert_eq!(
            close.decode(0, &topo, &mask(3, &[1, 2])),
            Reception::Collision
        );
        // A lone sender is decoded whatever its distance.
        assert_eq!(
            close.decode(0, &topo, &mask(3, &[2])),
            Reception::Decoded { from: 2 }
        );
    }

    #[test]
    fn masked_decode_matches_dense_decode() {
        // A 70-node ring crosses the 64-bit word boundary; exercise idle,
        // decoded, and collided listeners against the per-node rule over
        // transmitter flags.
        let n = 70;
        let topo = Topology::ring(n);
        let positions: Vec<(f64, f64)> = (0..n).map(|v| (v as f64, 0.0)).collect();
        let cap = capture(positions, 1.5);
        for txs in [
            vec![],
            vec![63usize],
            vec![63, 65],
            vec![0, 69],
            vec![1, 2, 3, 64],
        ] {
            let tx = mask(n, &txs);
            for y in 0..n {
                let heard: Vec<usize> = topo
                    .neighbors(y)
                    .iter()
                    .filter(|v| txs.contains(v))
                    .collect();
                let expected = match heard[..] {
                    [] => Reception::Idle,
                    [from] => Reception::Decoded { from },
                    _ => Reception::Collision,
                };
                assert_eq!(
                    Channel::Ideal.decode(y, &topo, &tx),
                    expected,
                    "listener {y}, txs {txs:?}"
                );
                // On a ring both transmitting neighbours of a listener sit
                // at distance 1, so capture never breaks the tie.
                assert_eq!(cap.decode(y, &topo, &tx), expected, "capture, {y}");
            }
        }
    }

    #[test]
    fn resolve_fades_only_decoded_receptions() {
        let topo = Topology::star(3);
        // Total loss: every decoded reception fades; collisions stay
        // collisions (no fade draw is spent on them).
        let mut state = FaultState::new(FaultPlan::lossy(1.0), 3, 1);
        let ch = Channel::Ideal;
        assert_eq!(
            ch.resolve(0, 0, &topo, &mask(3, &[1]), &mut state),
            Reception::Faded { from: 1 }
        );
        assert_eq!(
            ch.resolve(0, 1, &topo, &mask(3, &[1, 2]), &mut state),
            Reception::Collision
        );
        // Without link loss everything passes through untouched.
        let mut state = FaultState::new(FaultPlan::none(), 3, 1);
        assert_eq!(
            ch.resolve(0, 0, &topo, &mask(3, &[1]), &mut state),
            Reception::Decoded { from: 1 }
        );
    }
}
