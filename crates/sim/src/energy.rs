//! Radio energy accounting.
//!
//! The paper's entire motivation is that idle listening costs nearly as
//! much as receiving on WSN radios, so putting nodes to sleep
//! (`(α_T, α_R)`-schedules) is the lever for lifetime. The default numbers
//! are Mica2/CC1000-class: transmit 60 mW, receive/idle-listen 45 mW, sleep
//! 90 µW (see e.g. Ye-Heidemann-Estrin and the surveys cited in §1). Units
//! are millijoules with a configurable slot duration.

/// Per-state radio power draw and slot duration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Transmit power (mW).
    pub tx_mw: f64,
    /// Receive / idle-listening power (mW) — the same on these radios,
    /// which is exactly why duty cycling matters.
    pub rx_mw: f64,
    /// Sleep power (mW).
    pub sleep_mw: f64,
    /// Slot duration (seconds).
    pub slot_seconds: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            tx_mw: 60.0,
            rx_mw: 45.0,
            sleep_mw: 0.09,
            slot_seconds: 0.01,
        }
    }
}

/// What a node's radio did during one slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RadioState {
    /// Actively transmitting a packet.
    Transmit,
    /// Listening (whether or not a packet arrived).
    Listen,
    /// Radio off.
    Sleep,
}

impl EnergyModel {
    /// Energy (mJ) consumed by one slot in the given state.
    pub fn slot_energy_mj(&self, state: RadioState) -> f64 {
        let mw = match state {
            RadioState::Transmit => self.tx_mw,
            RadioState::Listen => self.rx_mw,
            RadioState::Sleep => self.sleep_mw,
        };
        mw * self.slot_seconds
    }
}

/// Per-node accumulated energy and state counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyLedger {
    /// Energy consumed so far (mJ) per node.
    pub consumed_mj: Vec<f64>,
    /// Slots spent transmitting, per node.
    pub tx_slots: Vec<u64>,
    /// Slots spent listening, per node.
    pub listen_slots: Vec<u64>,
    /// Slots spent sleeping, per node.
    pub sleep_slots: Vec<u64>,
}

impl EnergyLedger {
    /// A fresh ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        EnergyLedger {
            consumed_mj: vec![0.0; n],
            tx_slots: vec![0; n],
            listen_slots: vec![0; n],
            sleep_slots: vec![0; n],
        }
    }

    /// Records one slot for `node`.
    pub fn record(&mut self, model: &EnergyModel, node: usize, state: RadioState) {
        self.consumed_mj[node] += model.slot_energy_mj(state);
        match state {
            RadioState::Transmit => self.tx_slots[node] += 1,
            RadioState::Listen => self.listen_slots[node] += 1,
            RadioState::Sleep => self.sleep_slots[node] += 1,
        }
    }

    /// Charges `node` its energy debt for the slots `[from, to)`: idle
    /// listening in those whose frame index (frame length `l`) is in the
    /// ascending list `listen_slots`, asleep in every other. It lands on
    /// exactly the `f64` that one [`record`] per slot, in slot order, would
    /// produce ([`ttdc_util::iterate_add_periodic`] fast-forwards the
    /// repeated rounding in O(binade crossings)). With no listen slots the
    /// whole span is sleep and the listen count is not touched.
    ///
    /// [`record`]: EnergyLedger::record
    #[inline(always)]
    pub(crate) fn charge_debt(
        &mut self,
        model: &EnergyModel,
        node: usize,
        listen_slots: &[u32],
        l: u64,
        from: u64,
        to: u64,
    ) {
        let (consumed, listens) = ttdc_util::iterate_add_periodic(
            self.consumed_mj[node],
            model.slot_energy_mj(RadioState::Sleep),
            model.slot_energy_mj(RadioState::Listen),
            listen_slots,
            l,
            from,
            to,
        );
        self.consumed_mj[node] = consumed;
        if listens > 0 {
            self.listen_slots[node] += listens;
        }
        self.sleep_slots[node] += to - from - listens;
    }

    /// Total energy over all nodes (mJ).
    pub fn total_mj(&self) -> f64 {
        self.consumed_mj.iter().sum()
    }

    /// Mean per-node energy (mJ).
    pub fn mean_mj(&self) -> f64 {
        self.total_mj() / self.consumed_mj.len().max(1) as f64
    }

    /// Max per-node energy (mJ) — the node that dies first.
    pub fn max_mj(&self) -> f64 {
        self.consumed_mj.iter().copied().fold(0.0, f64::max)
    }

    /// Observed duty cycle of `node` (fraction of slots not asleep).
    pub fn duty_cycle(&self, node: usize) -> f64 {
        let active = self.tx_slots[node] + self.listen_slots[node];
        let total = active + self.sleep_slots[node];
        if total == 0 {
            0.0
        } else {
            active as f64 / total as f64
        }
    }

    /// Jain's fairness index of per-node energy consumption: 1 when
    /// perfectly balanced, down to `1/n` when one node carries everything.
    pub fn fairness_index(&self) -> f64 {
        let n = self.consumed_mj.len();
        if n == 0 {
            return 1.0;
        }
        let s: f64 = self.consumed_mj.iter().sum();
        let s2: f64 = self.consumed_mj.iter().map(|e| e * e).sum();
        if s2 == 0.0 {
            1.0
        } else {
            s * s / (n as f64 * s2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_reflects_mica2_ordering() {
        let m = EnergyModel::default();
        assert!(m.tx_mw > m.rx_mw);
        assert!(m.rx_mw / m.sleep_mw > 100.0, "sleeping must be ≫ cheaper");
    }

    #[test]
    fn slot_energy_by_state() {
        let m = EnergyModel {
            tx_mw: 50.0,
            rx_mw: 40.0,
            sleep_mw: 1.0,
            slot_seconds: 0.1,
        };
        assert!((m.slot_energy_mj(RadioState::Transmit) - 5.0).abs() < 1e-12);
        assert!((m.slot_energy_mj(RadioState::Listen) - 4.0).abs() < 1e-12);
        assert!((m.slot_energy_mj(RadioState::Sleep) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ledger_accumulates() {
        let m = EnergyModel {
            tx_mw: 10.0,
            rx_mw: 5.0,
            sleep_mw: 0.0,
            slot_seconds: 1.0,
        };
        let mut led = EnergyLedger::new(2);
        led.record(&m, 0, RadioState::Transmit);
        led.record(&m, 0, RadioState::Sleep);
        led.record(&m, 1, RadioState::Listen);
        led.record(&m, 1, RadioState::Listen);
        assert_eq!(led.consumed_mj[0], 10.0);
        assert_eq!(led.consumed_mj[1], 10.0);
        assert_eq!(led.total_mj(), 20.0);
        assert_eq!(led.mean_mj(), 10.0);
        assert_eq!(led.max_mj(), 10.0);
        assert_eq!(led.duty_cycle(0), 0.5);
        assert_eq!(led.duty_cycle(1), 1.0);
        assert_eq!(led.tx_slots[0], 1);
        assert_eq!(led.sleep_slots[0], 1);
        assert_eq!(led.listen_slots[1], 2);
    }

    #[test]
    fn fairness_index_extremes() {
        let mut led = EnergyLedger::new(4);
        assert_eq!(led.fairness_index(), 1.0, "all-zero is balanced");
        led.consumed_mj = vec![1.0, 1.0, 1.0, 1.0];
        assert!((led.fairness_index() - 1.0).abs() < 1e-12);
        led.consumed_mj = vec![4.0, 0.0, 0.0, 0.0];
        assert!((led.fairness_index() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_of_untouched_node() {
        let led = EnergyLedger::new(1);
        assert_eq!(led.duty_cycle(0), 0.0);
    }
}
