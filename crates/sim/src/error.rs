//! Typed configuration errors for simulator construction.
//!
//! [`SimulatorBuilder::build`](crate::SimulatorBuilder::build), the one
//! construction path, returns these instead of panicking, so embedders
//! (the CLI, experiment harnesses) can surface bad configuration as a
//! normal error path.

use crate::energy::RadioState;
use std::fmt;

/// A rejected simulator configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A convergecast sink index is not a node of the topology.
    SinkOutOfRange {
        /// The offending sink index.
        sink: usize,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// `miss_probability` is outside `[0, 1]`.
    InvalidMissProbability {
        /// The offending value.
        value: f64,
    },
    /// Capture positions don't match the topology size.
    PositionCountMismatch {
        /// Number of positions supplied.
        positions: usize,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// The capture ratio is below 1 (a weaker signal can't capture).
    CaptureRatioTooSmall {
        /// The offending ratio.
        ratio: f64,
    },
    /// A fault-plan probability knob is outside `[0, 1]`.
    InvalidProbability {
        /// Which knob (e.g. `"per-link error rate"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The clock-drift rate is not in `[0, 1)` slots per slot.
    InvalidDriftRate {
        /// The offending value.
        value: f64,
    },
    /// A CBR traffic pattern with generation period 0.
    ZeroCbrPeriod,
    /// A Poisson-unicast or convergecast generation rate is outside
    /// `[0, 1]` (NaN included).
    InvalidTrafficRate {
        /// The offending rate.
        value: f64,
    },
    /// The battery capacity is negative or not finite.
    InvalidBatteryCapacity {
        /// The offending capacity (mJ).
        value: f64,
    },
    /// The energy model's cost of one slot in some radio state is
    /// negative or not finite.
    InvalidSlotEnergy {
        /// The radio state whose slot energy is invalid.
        state: RadioState,
        /// The offending slot energy (mJ).
        value: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SinkOutOfRange { sink, nodes } => {
                write!(f, "sink out of range: {sink} with {nodes} nodes")
            }
            SimError::InvalidMissProbability { value } => {
                write!(f, "miss probability must be in [0, 1], got {value}")
            }
            SimError::PositionCountMismatch { positions, nodes } => {
                write!(
                    f,
                    "one position per node required: {positions} positions for {nodes} nodes"
                )
            }
            SimError::CaptureRatioTooSmall { ratio } => {
                write!(f, "capture ratio must be ≥ 1, got {ratio}")
            }
            SimError::InvalidProbability { what, value } => {
                write!(f, "{what} must be in [0, 1], got {value}")
            }
            SimError::InvalidDriftRate { value } => {
                write!(
                    f,
                    "clock drift rate must be in [0, 1) slots/slot, got {value}"
                )
            }
            SimError::ZeroCbrPeriod => {
                write!(f, "CBR generation period must be at least 1 slot, got 0")
            }
            SimError::InvalidTrafficRate { value } => {
                write!(f, "traffic rate must be in [0, 1], got {value}")
            }
            SimError::InvalidBatteryCapacity { value } => {
                write!(
                    f,
                    "battery capacity must be finite and non-negative, got {value} mJ"
                )
            }
            SimError::InvalidSlotEnergy { state, value } => {
                write!(
                    f,
                    "{state:?} slot energy must be finite and non-negative, got {value} mJ"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Callers that panic on a rejected configuration format these
    /// errors; their messages keep the substrings tests assert on.
    #[test]
    fn display_keeps_legacy_panic_substrings() {
        let cases: Vec<(SimError, &str)> = vec![
            (
                SimError::SinkOutOfRange { sink: 9, nodes: 4 },
                "sink out of range",
            ),
            (
                SimError::InvalidMissProbability { value: 1.5 },
                "miss probability must be in [0, 1]",
            ),
            (
                SimError::PositionCountMismatch {
                    positions: 3,
                    nodes: 4,
                },
                "one position per node",
            ),
            (
                SimError::CaptureRatioTooSmall { ratio: 0.5 },
                "capture ratio must be ≥ 1",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn fault_knob_errors_name_the_knob() {
        let err = SimError::InvalidProbability {
            what: "crash probability",
            value: -0.25,
        };
        assert_eq!(
            err.to_string(),
            "crash probability must be in [0, 1], got -0.25"
        );
        let drift = SimError::InvalidDriftRate { value: 2.0 };
        assert!(drift.to_string().contains("clock drift rate"));
    }
}
