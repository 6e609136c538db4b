//! The one construction path for [`Simulator`]s.
//!
//! [`SimulatorBuilder`] is the only way to make a simulator: it holds the
//! engine's knobs, one setter each, validates them all once in
//! [`build`](SimulatorBuilder::build) — physical capture included — and
//! hands back a ready simulator.
//!
//! ```
//! use ttdc_sim::{SimulatorBuilder, Topology, TrafficPattern};
//!
//! let sim = SimulatorBuilder::new(
//!     Topology::ring(8),
//!     TrafficPattern::PoissonUnicast { rate: 0.05 },
//! )
//! .seed(7)
//! .trace_capacity(256)
//! .build()
//! .expect("valid configuration");
//! assert_eq!(sim.topology().num_nodes(), 8);
//! ```

use crate::channel::{CaptureModel, Channel};
use crate::energy::{EnergyModel, RadioState};
use crate::engine::{SimConfig, Simulator};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::topology::Topology;
use crate::traffic::TrafficPattern;

/// Step-by-step construction of a [`Simulator`].
///
/// Start from a topology and workload, override knobs as needed, then
/// [`build`](SimulatorBuilder::build), which reports every invalid knob as
/// a typed [`SimError`].
pub struct SimulatorBuilder {
    topo: Topology,
    pattern: TrafficPattern,
    config: SimConfig,
    channel: Channel,
}

impl SimulatorBuilder {
    /// A builder over `topo` running `pattern` with the default knobs:
    /// seed 0, the default [`EnergyModel`], no faults, perfect sync,
    /// schedule-aware senders, mains power, tracing off and the ideal
    /// channel.
    pub fn new(topo: Topology, pattern: TrafficPattern) -> SimulatorBuilder {
        SimulatorBuilder {
            topo,
            pattern,
            config: SimConfig::default(),
            channel: Channel::Ideal,
        }
    }

    /// Sets the RNG seed (everything is deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> SimulatorBuilder {
        self.config.seed = seed;
        self
    }

    /// Sets the radio energy model.
    pub fn energy(mut self, energy: EnergyModel) -> SimulatorBuilder {
        self.config.energy = energy;
        self
    }

    /// Sets the fault-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> SimulatorBuilder {
        self.config.faults = faults;
        self
    }

    /// Sets the synchronization-miss probability (validated in `build`).
    pub fn miss_probability(mut self, miss: f64) -> SimulatorBuilder {
        self.config.miss_probability = miss;
        self
    }

    /// Chooses eager (`false`) or schedule-aware (`true`) senders.
    pub fn schedule_aware_senders(mut self, aware: bool) -> SimulatorBuilder {
        self.config.schedule_aware_senders = aware;
        self
    }

    /// Gives every node a battery of `capacity_mj` millijoules (finite and
    /// non-negative, validated in `build`); a node whose consumption
    /// reaches it dies. Without this call nodes are mains-powered.
    pub fn battery_capacity_mj(mut self, capacity_mj: f64) -> SimulatorBuilder {
        self.config.battery_capacity_mj = Some(capacity_mj);
        self
    }

    /// Enables event tracing with the given ring-buffer capacity.
    pub fn trace_capacity(mut self, capacity: usize) -> SimulatorBuilder {
        self.config.trace_capacity = capacity;
        self
    }

    /// Resolves receptions with physical capture over node coordinates
    /// (`positions[v]` is node `v`'s location, e.g. from
    /// [`crate::GeometricNetwork::positions`]) instead of the paper's
    /// collision rule. The only way to enable capture; `build` checks one
    /// position per node and `ratio ≥ 1`.
    pub fn capture(mut self, positions: Vec<(f64, f64)>, model: CaptureModel) -> SimulatorBuilder {
        self.channel = Channel::Capture { positions, model };
        self
    }

    /// Validates the configuration and assembles the simulator.
    pub fn build(self) -> Result<Simulator, SimError> {
        let n = self.topo.num_nodes();
        if let Some(sink) = self.pattern.sink() {
            if sink >= n {
                return Err(SimError::SinkOutOfRange { sink, nodes: n });
            }
        }
        match self.pattern {
            TrafficPattern::CbrUnicast { period: 0 } => return Err(SimError::ZeroCbrPeriod),
            // A NaN rate is outside the range too.
            TrafficPattern::PoissonUnicast { rate } | TrafficPattern::Convergecast { rate, .. }
                if !(0.0..=1.0).contains(&rate) =>
            {
                return Err(SimError::InvalidTrafficRate { value: rate })
            }
            _ => {}
        }
        if !(0.0..=1.0).contains(&self.config.miss_probability) {
            return Err(SimError::InvalidMissProbability {
                value: self.config.miss_probability,
            });
        }
        self.config.faults.validate()?;
        if let Some(value) = self.config.battery_capacity_mj {
            if !(value.is_finite() && value >= 0.0) {
                return Err(SimError::InvalidBatteryCapacity { value });
            }
        }
        // Sleep debt is settled by fast-forwarding repeated `f64` addition,
        // which needs finite, non-negative slot costs.
        for state in [RadioState::Transmit, RadioState::Listen, RadioState::Sleep] {
            let value = self.config.energy.slot_energy_mj(state);
            if !(value.is_finite() && value >= 0.0) {
                return Err(SimError::InvalidSlotEnergy { state, value });
            }
        }
        if let Channel::Capture { positions, model } = &self.channel {
            if positions.len() != n {
                return Err(SimError::PositionCountMismatch {
                    positions: positions.len(),
                    nodes: n,
                });
            }
            // A NaN ratio is outside the range too.
            if !(1.0..).contains(&model.ratio) {
                return Err(SimError::CaptureRatioTooSmall { ratio: model.ratio });
            }
        }
        Ok(Simulator::assemble(
            self.topo,
            self.pattern,
            self.config,
            self.channel,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_out_of_range_knobs() {
        let err = SimulatorBuilder::new(
            Topology::line(2),
            TrafficPattern::Convergecast { sink: 5, rate: 0.1 },
        )
        .build()
        .unwrap_err();
        assert_eq!(err, SimError::SinkOutOfRange { sink: 5, nodes: 2 });

        let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .miss_probability(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidMissProbability { .. }));

        let err = SimulatorBuilder::new(Topology::line(3), TrafficPattern::SaturatedBroadcast)
            .capture(vec![(0.0, 0.0)], CaptureModel { ratio: 2.0 })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::PositionCountMismatch {
                positions: 1,
                nodes: 3
            }
        );

        let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .capture(vec![(0.0, 0.0), (1.0, 0.0)], CaptureModel { ratio: 0.5 })
            .build()
            .unwrap_err();
        assert_eq!(err, SimError::CaptureRatioTooSmall { ratio: 0.5 });

        let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .capture(
                vec![(0.0, 0.0), (1.0, 0.0)],
                CaptureModel { ratio: f64::NAN },
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::CaptureRatioTooSmall { ratio } if ratio.is_nan()));

        let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .energy(EnergyModel {
                sleep_mw: -0.09,
                ..EnergyModel::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidSlotEnergy {
                state: RadioState::Sleep,
                value: -0.09 * 0.01
            }
        );
        assert!(err.to_string().contains("Sleep slot energy"), "{err}");

        // Accepting these would panic in the first run's Bernoulli draw.
        for rate in [1.5, -0.1, f64::NAN] {
            for pattern in [
                TrafficPattern::PoissonUnicast { rate },
                TrafficPattern::Convergecast { sink: 0, rate },
            ] {
                let err = SimulatorBuilder::new(Topology::line(2), pattern)
                    .build()
                    .unwrap_err();
                assert!(
                    matches!(err, SimError::InvalidTrafficRate { value }
                        if value.to_bits() == rate.to_bits()),
                    "{pattern:?}: {err:?}"
                );
            }
        }

        // A NaN capacity would silently run mains-powered, a negative one
        // would kill every node at slot 0.
        for capacity in [f64::NAN, -1.0, f64::INFINITY] {
            let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
                .battery_capacity_mj(capacity)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidBatteryCapacity { value }
                    if value.to_bits() == capacity.to_bits()),
                "{capacity}: {err:?}"
            );
        }

        // The ends of both ranges are valid.
        for rate in [0.0, 1.0] {
            for pattern in [
                TrafficPattern::PoissonUnicast { rate },
                TrafficPattern::Convergecast { sink: 0, rate },
            ] {
                assert!(SimulatorBuilder::new(Topology::line(2), pattern)
                    .battery_capacity_mj(0.0)
                    .build()
                    .is_ok());
            }
        }
    }

    #[test]
    fn builder_rejects_a_zero_cbr_period() {
        // Period 0 used to generate one packet (node 0, slot 0) per run.
        let err =
            SimulatorBuilder::new(Topology::line(3), TrafficPattern::CbrUnicast { period: 0 })
                .build()
                .unwrap_err();
        assert_eq!(err, SimError::ZeroCbrPeriod);
        assert!(
            SimulatorBuilder::new(Topology::line(3), TrafficPattern::CbrUnicast { period: 1 })
                .build()
                .is_ok()
        );
    }
}
