//! p-persistent slotted ALOHA (always-on contention baseline).

use ttdc_sim::MacProtocol;
use ttdc_util::BitSet;

/// Every node may transmit and listen in every slot; a node with pending
/// traffic transmits with probability `p`. No sleeping — the energy
/// baseline duty cycling is measured against.
pub struct SlottedAlohaMac {
    p: f64,
}

impl SlottedAlohaMac {
    /// A `p`-persistent ALOHA MAC (`0 < p ≤ 1`).
    pub fn new(p: f64) -> SlottedAlohaMac {
        assert!(p > 0.0 && p <= 1.0, "persistence must be in (0, 1]");
        SlottedAlohaMac { p }
    }

    /// The persistence probability.
    pub fn persistence(&self) -> f64 {
        self.p
    }
}

impl MacProtocol for SlottedAlohaMac {
    fn name(&self) -> &str {
        "slotted-aloha"
    }

    fn frame_length(&self) -> usize {
        1
    }

    fn frame_periodic(&self) -> bool {
        true // awake every slot: trivially periodic with frame 1
    }

    fn may_transmit(&self, _node: usize, _slot: u64) -> bool {
        true
    }

    fn may_receive(&self, _node: usize, _slot: u64) -> bool {
        true
    }

    /// Everyone may transmit and listen: a full word fill.
    fn frame_slot_masks(&self, _n: usize, _i: usize, tx: &mut BitSet, rx: &mut BitSet) {
        tx.fill();
        rx.fill();
    }

    fn transmit_probability(&self, _node: usize, _slot: u64) -> f64 {
        self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_eligible_with_persistence() {
        let mac = SlottedAlohaMac::new(0.25);
        assert!(mac.may_transmit(0, 5));
        assert!(mac.may_receive(1, 5));
        assert_eq!(mac.transmit_probability(0, 5), 0.25);
        assert_eq!(mac.frame_length(), 1);
        assert!(mac.frame_periodic());
        assert_eq!(mac.persistence(), 0.25);
    }

    #[test]
    #[should_panic(expected = "persistence")]
    fn zero_persistence_rejected() {
        SlottedAlohaMac::new(0.0);
    }

    #[test]
    #[should_panic(expected = "persistence")]
    fn nan_persistence_rejected() {
        // NaN fails every comparison, so the (0, 1] assertion must
        // reject it rather than let a poisoned probability reach the
        // engine's transmit draw.
        SlottedAlohaMac::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "persistence")]
    fn oversized_persistence_rejected() {
        SlottedAlohaMac::new(1.5);
    }
}
