//! The §1 strawman: uncoordinated 1-in-k duty cycling.
//!
//! "Consider a network in which each node is scheduled to be awake in one
//! of k slots. Since a node has to wait until the receiver wakes up before
//! it can forward the packet, transmissions from neighbors, which were
//! distributed in k slots, now happen in one slot, making a collision very
//! likely." — the motivating observation this paper exists to fix.
//! Experiment E10 measures exactly this collision blow-up against the
//! Figure-2 schedule at the same duty cycle.

/// Each node listens in one slot per period of `k` (its offset is a hash
/// of its id) and may transmit in any slot. With schedule-aware senders,
/// all of a receiver's neighbours pile into its single wake slot.
pub struct NaiveDutyCycleMac {
    k: u64,
}

impl NaiveDutyCycleMac {
    /// A 1-in-`k` duty cycle (`k ≥ 1`).
    pub fn new(k: u64) -> NaiveDutyCycleMac {
        assert!(k >= 1);
        NaiveDutyCycleMac { k }
    }

    /// The wake offset of `node` within the period.
    pub fn wake_offset(&self, node: usize) -> u64 {
        // splitmix64 of the node id, reduced mod k: fixed pseudo-random
        // placement, as an uncoordinated scheme would end up with.
        let mut z = (node as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % self.k
    }
}

impl ttdc_sim::MacProtocol for NaiveDutyCycleMac {
    fn name(&self) -> &str {
        "naive-1-in-k"
    }

    fn frame_length(&self) -> usize {
        self.k as usize
    }

    fn frame_periodic(&self) -> bool {
        true // listens at slot mod k, may transmit in every slot
    }

    fn may_transmit(&self, _node: usize, _slot: u64) -> bool {
        true
    }

    fn may_receive(&self, node: usize, slot: u64) -> bool {
        slot % self.k == self.wake_offset(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttdc_sim::MacProtocol;

    #[test]
    fn wakes_exactly_once_per_period() {
        let mac = NaiveDutyCycleMac::new(8);
        for node in 0..20 {
            let wake_slots: Vec<u64> = (0..8).filter(|&s| mac.may_receive(node, s)).collect();
            assert_eq!(wake_slots.len(), 1, "node {node}");
            assert_eq!(wake_slots[0], mac.wake_offset(node));
            // Periodic.
            assert!(mac.may_receive(node, wake_slots[0] + 8));
        }
    }

    #[test]
    fn transmit_always_allowed() {
        let mac = NaiveDutyCycleMac::new(4);
        assert!((0..12).all(|s| mac.may_transmit(3, s)));
        assert_eq!(mac.frame_length(), 4);
    }

    #[test]
    fn k_one_is_always_on() {
        let mac = NaiveDutyCycleMac::new(1);
        assert!((0..10).all(|s| mac.may_receive(0, s)));
    }
}
