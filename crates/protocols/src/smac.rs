//! S-MAC-style coordinated listen/sleep (Ye-Heidemann-Estrin, cited as
//! [24, 25] in the paper).
//!
//! All nodes share a synchronized cycle of `period` slots and are awake for
//! the first `active` of them; inside the active window access is
//! p-persistent contention. Duty cycle = `active/period`. The scheme needs
//! no topology information either, but concentrates *all* traffic into the
//! active window — the contention analogue of the naive 1-in-k problem.

use ttdc_sim::MacProtocol;
use ttdc_util::BitSet;

/// Coordinated listen/sleep with in-window contention.
pub struct SmacLikeMac {
    period: u64,
    active: u64,
    p: f64,
}

impl SmacLikeMac {
    /// `active` awake slots per `period`, persistence `p` in the window.
    pub fn new(period: u64, active: u64, p: f64) -> SmacLikeMac {
        assert!(period >= 1 && (1..=period).contains(&active));
        assert!(p > 0.0 && p <= 1.0);
        SmacLikeMac { period, active, p }
    }

    /// The configured duty cycle `active/period`.
    pub fn duty_cycle(&self) -> f64 {
        self.active as f64 / self.period as f64
    }

    fn awake(&self, slot: u64) -> bool {
        slot % self.period < self.active
    }
}

impl MacProtocol for SmacLikeMac {
    fn name(&self) -> &str {
        "smac-like"
    }

    fn frame_length(&self) -> usize {
        self.period as usize
    }

    fn frame_periodic(&self) -> bool {
        true // the listen window is slot mod period
    }

    fn may_transmit(&self, _node: usize, slot: u64) -> bool {
        self.awake(slot)
    }

    fn may_receive(&self, _node: usize, slot: u64) -> bool {
        self.awake(slot)
    }

    /// The whole network shares one window: every node awake, or none.
    fn frame_slot_masks(&self, _n: usize, i: usize, tx: &mut BitSet, rx: &mut BitSet) {
        if self.awake(i as u64) {
            tx.fill();
            rx.fill();
        } else {
            tx.clear();
            rx.clear();
        }
    }

    fn transmit_probability(&self, _node: usize, _slot: u64) -> f64 {
        self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_shape() {
        let mac = SmacLikeMac::new(10, 3, 0.5);
        assert_eq!(mac.duty_cycle(), 0.3);
        for cycle in 0..3u64 {
            for off in 0..10u64 {
                let s = cycle * 10 + off;
                assert_eq!(mac.may_transmit(0, s), off < 3, "slot {s}");
                assert_eq!(mac.may_receive(1, s), off < 3, "slot {s}");
            }
        }
        assert_eq!(mac.transmit_probability(0, 0), 0.5);
        assert_eq!(mac.frame_length(), 10);
        assert!(mac.frame_periodic());
    }

    #[test]
    fn fully_active_period() {
        let mac = SmacLikeMac::new(4, 4, 1.0);
        assert!((0..8).all(|s| mac.may_transmit(0, s)));
        assert_eq!(mac.duty_cycle(), 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_active_rejected() {
        SmacLikeMac::new(5, 0, 0.5);
    }

    #[test]
    #[should_panic]
    fn nan_contention_probability_rejected() {
        // NaN fails the (0, 1] range assertion — it must never reach
        // the engine's transmit draw.
        SmacLikeMac::new(5, 2, f64::NAN);
    }

    #[test]
    #[should_panic]
    fn out_of_range_contention_probability_rejected() {
        SmacLikeMac::new(5, 2, 1.0001);
    }
}
