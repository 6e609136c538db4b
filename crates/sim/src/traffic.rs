//! Traffic workloads.
//!
//! The paper evaluates the *worst case* — every node saturated toward every
//! neighbour — which [`TrafficPattern::SaturatedBroadcast`] reproduces
//! exactly (it is how the simulator cross-validates the analytic
//! `𝒯(x,y,S)` sets). The light-load regimes that motivate duty cycling in
//! §1 are modelled by Bernoulli-arrival unicast to random neighbours and by
//! multi-hop convergecast toward a sink (the canonical environment-
//! monitoring workload).

/// A packet travelling through the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Node that generated the packet.
    pub origin: usize,
    /// Final destination.
    pub final_dst: usize,
    /// Slot of generation (for latency accounting).
    pub created: u64,
    /// Failed transmission attempts of the *current hop* (link-layer ARQ).
    /// Reset on every successful handoff; when it exceeds
    /// [`crate::FaultPlan::max_retries`] the packet is dropped and counted
    /// in [`crate::SimReport::retry_exhausted`].
    pub retries: u32,
}

/// Workload driving the simulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Worst-case validation mode: every node eligible to transmit always
    /// does, packets are "addressed" to every listening neighbour, and the
    /// engine counts per-link guaranteed successes. No queues, no latency.
    SaturatedBroadcast,
    /// Each node independently generates a packet with probability `rate`
    /// per slot, addressed to a uniformly random current neighbour
    /// (single hop).
    PoissonUnicast {
        /// Per-node per-slot generation probability, in `[0, 1]` (the
        /// builder rejects anything else, NaN included).
        rate: f64,
    },
    /// Each node generates one packet every `period` slots (staggered by
    /// node id), addressed to a random neighbour.
    CbrUnicast {
        /// Generation period in slots (at least 1; the builder rejects 0).
        period: u64,
    },
    /// Every non-sink node generates with probability `rate` per slot; the
    /// packet is relayed hop-by-hop along BFS parents toward `sink`.
    Convergecast {
        /// Collection point.
        sink: usize,
        /// Per-node per-slot generation probability, in `[0, 1]` (the
        /// builder rejects anything else, NaN included).
        rate: f64,
    },
}

impl TrafficPattern {
    /// `true` for the per-link validation workload.
    pub fn is_saturated(&self) -> bool {
        matches!(self, TrafficPattern::SaturatedBroadcast)
    }

    /// The convergecast sink, if any.
    pub fn sink(&self) -> Option<usize> {
        match self {
            TrafficPattern::Convergecast { sink, .. } => Some(*sink),
            _ => None,
        }
    }
}

/// The nodes `v < n` that generate a [`TrafficPattern::CbrUnicast`] packet
/// in `slot`, ascending: those with `(slot + v) % period == 0`, i.e. the
/// residue class `v ≡ -slot (mod period)`, walked directly instead of
/// probed node by node. `period ≥ 1`: the builder rejects period 0.
pub(crate) fn cbr_generators(slot: u64, period: u64, n: usize) -> impl Iterator<Item = usize> {
    let first = ((period - slot % period) % period).min(n as u64) as usize;
    (first..n).step_by(usize::try_from(period).unwrap_or(usize::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_generators_match_the_gate() {
        for (period, n) in [(1u64, 4usize), (3, 10), (7, 3), (100, 5)] {
            for slot in 0..40u64 {
                let want: Vec<usize> = (0..n)
                    .filter(|&v| (slot + v as u64).is_multiple_of(period))
                    .collect();
                let got: Vec<usize> = cbr_generators(slot, period, n).collect();
                assert_eq!(got, want, "period={period} n={n} slot={slot}");
            }
        }
    }

    #[test]
    fn pattern_accessors() {
        assert!(TrafficPattern::SaturatedBroadcast.is_saturated());
        assert!(!TrafficPattern::PoissonUnicast { rate: 0.1 }.is_saturated());
        assert_eq!(
            TrafficPattern::Convergecast { sink: 3, rate: 0.1 }.sink(),
            Some(3)
        );
        assert_eq!(TrafficPattern::CbrUnicast { period: 10 }.sink(), None);
    }
}
