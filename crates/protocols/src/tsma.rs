//! The non-sleeping TSMA baseline the duty-cycled schedule is built from.

use ttdc_core::tsma::{build_polynomial, NonSleepingSchedule};
use ttdc_core::Schedule;
use ttdc_sim::{MacProtocol, ScheduleMac};
use ttdc_util::BitSet;

/// The polynomial (orthogonal-array) topology-transparent schedule with all
/// nodes awake in every slot — maximum throughput, maximum energy.
pub struct TsmaMac {
    inner: ScheduleMac,
    source: NonSleepingSchedule,
}

impl TsmaMac {
    /// Builds the TSMA schedule for `(n, D)`.
    pub fn new(n: usize, d: usize) -> TsmaMac {
        let source = build_polynomial(n, d);
        TsmaMac {
            inner: ScheduleMac::new("tsma", source.schedule.clone()),
            source,
        }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &Schedule {
        self.inner.schedule()
    }

    /// The provenance record (construction kind and `(q, k)`).
    pub fn source(&self) -> &NonSleepingSchedule {
        &self.source
    }
}

impl MacProtocol for TsmaMac {
    fn name(&self) -> &str {
        "tsma"
    }

    fn frame_periodic(&self) -> bool {
        true // delegates to a ScheduleMac, which wraps by construction
    }

    fn frame_length(&self) -> usize {
        self.inner.frame_length()
    }

    fn may_transmit(&self, node: usize, slot: u64) -> bool {
        self.inner.may_transmit(node, slot)
    }

    fn may_receive(&self, node: usize, slot: u64) -> bool {
        self.inner.may_receive(node, slot)
    }

    fn frame_slot_masks(&self, n: usize, i: usize, tx: &mut BitSet, rx: &mut BitSet) {
        self.inner.frame_slot_masks(n, i, tx, rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_node_active_every_slot() {
        let mac = TsmaMac::new(12, 2);
        for slot in 0..mac.frame_length() as u64 {
            for v in 0..12 {
                assert!(
                    mac.may_transmit(v, slot) || mac.may_receive(v, slot),
                    "node {v} asleep in slot {slot} of a non-sleeping schedule"
                );
            }
        }
        assert_eq!(mac.name(), "tsma");
        assert!(mac.frame_periodic());
        assert!(mac.source().params.is_some());
    }

    #[test]
    fn frame_is_q_squared() {
        let mac = TsmaMac::new(20, 2);
        let p = mac.source().params.unwrap();
        assert_eq!(mac.frame_length() as u64, p.q.q * p.q.q);
        assert!(ttdc_core::is_topology_transparent(mac.schedule(), 2));
    }
}
