//! Channel models: how simultaneous transmissions resolve at a listener.
//!
//! The paper's collision model (§3) — a reception succeeds iff **exactly
//! one** neighbour of the listener transmits — is one point in a family of
//! channel models. [`ChannelModel`] is that family's interface: given the
//! set of transmitters in a slot, decide what a listener decodes. The two
//! built-in models are [`IdealChannel`] (the paper's rule) and
//! [`CaptureChannel`] (physical power capture: the closest sender is still
//! decoded if it is sufficiently closer than the runner-up). Richer models
//! — SINR thresholds, distance-dependent PER — are one `impl`, not another
//! branch in the engine.
//!
//! Injected link loss (uniform PER and/or Gilbert–Elliott bursts, see
//! [`crate::faults`]) applies *after* decoding, uniformly across models:
//! the provided [`ChannelModel::resolve`] subjects a decoded transmission
//! to [`LinkFading`] and reports an erased one as [`Reception::Faded`].
//!
//! RNG compatibility rule: fading draws exactly one decision from the
//! dedicated fault stream per *decoded* reception — never for idle or
//! collided slots — so a model that decodes the same transmitter sequence
//! as another consumes the same randomness (see `DESIGN.md`).

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
pub enum Reception {
    /// No neighbour transmitted; the listener heard silence.
    Idle,
    /// The listener decoded the transmission from `from`.
    Decoded {
        /// The decoded transmitter.
        from: usize,
    },
    /// Two or more transmissions interfered and none was decoded.
    Collision,
    /// A transmission from `from` was decoded at the physical layer but
    /// erased by injected link loss (fading).
    Faded {
        /// The transmitter whose packet faded.
        from: usize,
    },
}

/// Access to the injected-link-loss process for channel models.
///
/// Wraps the engine's fault state so a [`ChannelModel`] can ask whether a
/// decoded transmission survives the link without seeing the rest of the
/// fault machinery. When no link-loss knob is active, [`delivers`] returns
/// `true` without consuming any randomness — the RNG-compatibility
/// contract that keeps fault-free runs bit-identical.
///
/// [`delivers`]: LinkFading::delivers
#[derive(Debug)]
pub struct LinkFading<'a> {
    state: &'a mut FaultState,
    active: bool,
}

impl<'a> LinkFading<'a> {
    pub(crate) fn new(state: &'a mut FaultState, active: bool) -> LinkFading<'a> {
        LinkFading { state, active }
    }

    /// Draws whether a decoded transmission `from → to` in `slot` survives
    /// the link. Advances the per-link burst chain; call at most once per
    /// decoded reception.
    pub fn delivers(&mut self, from: usize, to: usize, slot: u64) -> bool {
        if !self.active {
            return true;
        }
        self.state.link_delivers(from, to, slot)
    }
}

/// A physical-layer model resolving concurrent transmissions at a listener.
///
/// Implementations must be deterministic functions of their inputs (any
/// randomness belongs to the engine's streams), and must uphold the fading
/// contract of [`resolve`]: exactly one [`LinkFading::delivers`] draw per
/// decoded reception, none otherwise. The provided `resolve` does this for
/// any [`decode`] (reached through `decode_masked`); override it only for
/// models where erasure interacts with decoding itself.
///
/// [`resolve`]: ChannelModel::resolve
/// [`decode`]: ChannelModel::decode
pub trait ChannelModel: std::fmt::Debug + Send {
    /// Which transmitter, if any, does listener `y` decode given the
    /// per-node `transmitting` flags? Pure collision resolution: never
    /// reports [`Reception::Faded`].
    fn decode(&self, y: usize, topo: &Topology, transmitting: &[bool]) -> Reception;

    /// [`decode`](ChannelModel::decode) with the transmitter set also
    /// available as a word mask (`tx_mask.contains(v) ⟺ transmitting[v]`
    /// — the engine maintains both). The default ignores the mask and
    /// defers to `decode`; models whose resolution is a set intersection
    /// (the ideal collision rule) override it to work word by word
    /// instead of per node. Must decode exactly what `decode` would.
    fn decode_masked(
        &self,
        y: usize,
        topo: &Topology,
        transmitting: &[bool],
        tx_mask: &BitSet,
    ) -> Reception {
        let _ = tx_mask;
        self.decode(y, topo, transmitting)
    }

    /// Full resolution: [`decode_masked`](ChannelModel::decode_masked),
    /// then subject a decoded transmission to injected link fading.
    fn resolve(
        &self,
        y: usize,
        slot: u64,
        topo: &Topology,
        transmitting: &[bool],
        tx_mask: &BitSet,
        fading: &mut LinkFading<'_>,
    ) -> Reception {
        match self.decode_masked(y, topo, transmitting, tx_mask) {
            Reception::Decoded { from } if !fading.delivers(from, y, slot) => {
                Reception::Faded { from }
            }
            r => r,
        }
    }
}

/// The paper's idealized channel: a reception at `y` succeeds iff exactly
/// one neighbour of `y` transmits; two or more always collide.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdealChannel;

impl ChannelModel for IdealChannel {
    fn decode(&self, y: usize, topo: &Topology, transmitting: &[bool]) -> Reception {
        let mut tx = topo.neighbors(y).iter().filter(|&v| transmitting[v]);
        match (tx.next(), tx.next()) {
            (Some(x), None) => Reception::Decoded { from: x },
            (Some(_), Some(_)) => Reception::Collision,
            _ => Reception::Idle,
        }
    }

    /// The exactly-one rule as a word intersection: AND each block of
    /// `neighbors(y)` against the transmitter mask and stop at the second
    /// set bit. Identical outcome to [`decode`](ChannelModel::decode) —
    /// both walk transmitting neighbours in ascending order, so the
    /// decoded `from` is the same node.
    fn decode_masked(
        &self,
        y: usize,
        topo: &Topology,
        _transmitting: &[bool],
        tx_mask: &BitSet,
    ) -> Reception {
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
        if collided {
            Reception::Collision
        } else if first != usize::MAX {
            Reception::Decoded { from: first }
        } else {
            Reception::Idle
        }
    }
}

/// The ideal channel plus physical power capture: among ≥ 2 transmitting
/// neighbours, the closest still wins if the runner-up is at least
/// [`CaptureModel::ratio`] times farther away.
#[derive(Clone, Debug)]
pub struct CaptureChannel {
    positions: Vec<(f64, f64)>,
    model: CaptureModel,
}

impl CaptureChannel {
    /// A capture channel over node coordinates (`positions[v]` is node
    /// `v`'s location, e.g. from [`crate::GeometricNetwork::positions`]).
    ///
    /// Callers validate shape: the engine's builder checks the position
    /// count against the topology and that `ratio ≥ 1`.
    pub fn new(positions: Vec<(f64, f64)>, model: CaptureModel) -> CaptureChannel {
        CaptureChannel { positions, model }
    }

    /// The capture threshold in effect.
    pub fn model(&self) -> CaptureModel {
        self.model
    }

    /// Among ≥ 2 transmitting neighbours of `y`, the one that captures the
    /// channel, if any.
    fn winner(&self, y: usize, topo: &Topology, transmitting: &[bool]) -> Option<usize> {
        let pos = &self.positions;
        let (py, mut best, mut second) = (pos[y], None::<(f64, usize)>, f64::INFINITY);
        for v in topo.neighbors(y) {
            if !transmitting[v] {
                continue;
            }
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
        }
        let (bd, bv) = best?;
        if second / bd.max(1e-12) >= self.model.ratio {
            Some(bv)
        } else {
            None
        }
    }
}

impl ChannelModel for CaptureChannel {
    fn decode(&self, y: usize, topo: &Topology, transmitting: &[bool]) -> Reception {
        let mut tx = topo.neighbors(y).iter().filter(|&v| transmitting[v]);
        match (tx.next(), tx.next()) {
            (Some(x), None) => Reception::Decoded { from: x },
            (Some(_), Some(_)) => match self.winner(y, topo, transmitting) {
                Some(x) => Reception::Decoded { from: x },
                None => Reception::Collision,
            },
            _ => Reception::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn star_flags(n: usize, txs: &[usize]) -> Vec<bool> {
        let mut f = vec![false; n];
        for &v in txs {
            f[v] = true;
        }
        f
    }

    #[test]
    fn ideal_channel_implements_the_paper_rule() {
        let topo = Topology::star(4);
        let ch = IdealChannel;
        assert_eq!(ch.decode(0, &topo, &star_flags(4, &[])), Reception::Idle);
        assert_eq!(
            ch.decode(0, &topo, &star_flags(4, &[2])),
            Reception::Decoded { from: 2 }
        );
        assert_eq!(
            ch.decode(0, &topo, &star_flags(4, &[1, 3])),
            Reception::Collision
        );
    }

    #[test]
    fn capture_channel_prefers_the_much_closer_sender() {
        let topo = Topology::star(3);
        let positions = vec![(0.0, 0.0), (0.05, 0.0), (0.9, 0.0)];
        let ch = CaptureChannel::new(positions, CaptureModel { ratio: 2.0 });
        assert_eq!(
            ch.decode(0, &topo, &star_flags(3, &[1, 2])),
            Reception::Decoded { from: 1 }
        );
        // Nearly equidistant senders still collide.
        let close = CaptureChannel::new(
            vec![(0.0, 0.0), (0.50, 0.0), (0.55, 0.0)],
            CaptureModel { ratio: 2.0 },
        );
        assert_eq!(
            close.decode(0, &topo, &star_flags(3, &[1, 2])),
            Reception::Collision
        );
        assert_eq!(close.model().ratio, 2.0);
    }

    #[test]
    fn masked_decode_matches_dense_decode() {
        // A 70-node ring crosses the 64-bit word boundary; exercise idle,
        // decoded, and collided listeners through both entry points.
        let n = 70;
        let topo = Topology::ring(n);
        let ch = IdealChannel;
        for txs in [
            vec![],
            vec![63usize],
            vec![63, 65],
            vec![0, 69],
            vec![1, 2, 3, 64],
        ] {
            let flags = star_flags(n, &txs);
            let mask = ttdc_util::BitSet::from_iter(n, txs.iter().copied());
            for y in 0..n {
                assert_eq!(
                    ch.decode_masked(y, &topo, &flags, &mask),
                    ch.decode(y, &topo, &flags),
                    "listener {y}, txs {txs:?}"
                );
            }
        }
        // The default (capture) implementation ignores the mask entirely.
        let positions: Vec<(f64, f64)> = (0..3).map(|v| (v as f64, 0.0)).collect();
        let cap = CaptureChannel::new(positions, CaptureModel { ratio: 1.5 });
        let topo3 = Topology::star(3);
        let flags = star_flags(3, &[1, 2]);
        let mask = ttdc_util::BitSet::from_iter(3, [1, 2]);
        assert_eq!(
            cap.decode_masked(0, &topo3, &flags, &mask),
            cap.decode(0, &topo3, &flags)
        );
    }

    #[test]
    fn resolve_fades_only_decoded_receptions() {
        let topo = Topology::star(3);
        let resolve = |ch: &dyn ChannelModel, slot, txs: &[usize], fading: &mut LinkFading| {
            let mask = ttdc_util::BitSet::from_iter(3, txs.iter().copied());
            ch.resolve(0, slot, &topo, &star_flags(3, txs), &mask, fading)
        };
        // Total loss: every decoded reception fades; collisions stay
        // collisions (no fade draw is spent on them).
        let mut state = FaultState::new(FaultPlan::lossy(1.0), 3, 1);
        let mut fading = LinkFading::new(&mut state, true);
        let ch = IdealChannel;
        assert_eq!(
            resolve(&ch, 0, &[1], &mut fading),
            Reception::Faded { from: 1 }
        );
        assert_eq!(resolve(&ch, 1, &[1, 2], &mut fading), Reception::Collision);
        // Inactive fading passes everything through untouched.
        let mut state = FaultState::new(FaultPlan::none(), 3, 1);
        let mut off = LinkFading::new(&mut state, false);
        assert_eq!(
            resolve(&ch, 0, &[1], &mut off),
            Reception::Decoded { from: 1 }
        );
    }
}
