//! The paper's protocol: topology-transparent duty cycling.

use ttdc_core::construct::PartitionStrategy;
use ttdc_core::tsma::build_duty_cycled;
use ttdc_core::{Construction, Schedule};
use ttdc_sim::{MacProtocol, ScheduleMac};
use ttdc_util::BitSet;

/// The topology-transparent `(α_T, α_R)`-schedule of Figure 2, driven
/// periodically. Built from the polynomial non-sleeping schedule for
/// `(n, D)` unless constructed from an explicit [`Construction`].
pub struct TtdcMac {
    inner: ScheduleMac,
    alpha_t: usize,
    alpha_r: usize,
}

impl TtdcMac {
    /// Builds the full pipeline for `(n, D, α_T, α_R)`.
    pub fn new(
        n: usize,
        d: usize,
        alpha_t: usize,
        alpha_r: usize,
        strategy: PartitionStrategy,
    ) -> TtdcMac {
        let c = build_duty_cycled(n, d, alpha_t, alpha_r, strategy);
        Self::from_construction(&c, alpha_t, alpha_r)
    }

    /// Wraps an existing construction.
    pub fn from_construction(c: &Construction, alpha_t: usize, alpha_r: usize) -> TtdcMac {
        TtdcMac {
            inner: ScheduleMac::new("ttdc", c.schedule.clone()),
            alpha_t,
            alpha_r,
        }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &Schedule {
        self.inner.schedule()
    }

    /// The `(α_T, α_R)` budget this schedule respects.
    pub fn alphas(&self) -> (usize, usize) {
        (self.alpha_t, self.alpha_r)
    }
}

impl MacProtocol for TtdcMac {
    fn name(&self) -> &str {
        "ttdc"
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
    fn respects_alpha_budget_every_slot() {
        let mac = TtdcMac::new(20, 2, 3, 4, PartitionStrategy::RoundRobin);
        assert_eq!(mac.alphas(), (3, 4));
        let l = mac.frame_length() as u64;
        for slot in 0..l {
            let tx = (0..20).filter(|&v| mac.may_transmit(v, slot)).count();
            let rx = (0..20).filter(|&v| mac.may_receive(v, slot)).count();
            assert!(tx <= 3, "slot {slot}: {tx} transmitters");
            assert_eq!(rx, 4, "slot {slot}: {rx} receivers");
        }
    }

    #[test]
    fn schedule_is_topology_transparent() {
        let mac = TtdcMac::new(16, 3, 2, 4, PartitionStrategy::Contiguous);
        assert!(ttdc_core::is_topology_transparent(mac.schedule(), 3));
        assert_eq!(mac.name(), "ttdc");
        assert!(mac.frame_periodic());
    }
}
