//! Parallel Monte-Carlo replication.
//!
//! Experiment sweeps run many independent replications (seeds) of the same
//! scenario; the replications are embarrassingly parallel and fan out over
//! the rayon pool. [`summarize`] folds their reports into an [`McSummary`]
//! of [`OnlineStats`] accumulators. This two-step path is the reference;
//! the campaign runner ([`crate::run_campaign`]) is the streaming fold that
//! keeps only a few metrics per replication and pushes them in the same
//! order, so it matches `summarize` bit for bit.

use crate::metrics::SimReport;
use rayon::prelude::*;
use ttdc_util::OnlineStats;

/// Runs `replications` of `scenario(seed)` in parallel; `scenario` receives
/// seeds `base_seed..base_seed + replications`.
pub fn run_replications<F>(replications: u64, base_seed: u64, scenario: F) -> Vec<SimReport>
where
    F: Fn(u64) -> SimReport + Sync,
{
    (0..replications)
        .into_par_iter()
        .map(|i| scenario(base_seed + i))
        .collect()
}

/// Cross-replication statistics of the headline metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct McSummary {
    /// End-to-end delivery ratio per replication.
    pub delivery_ratio: OnlineStats,
    /// Mean end-to-end latency (slots) per replication (delivered only).
    pub latency_mean: OnlineStats,
    /// Mean per-node energy (mJ) per replication.
    pub energy_mean_mj: OnlineStats,
    /// Energy per delivered packet (mJ) per replication.
    pub energy_per_delivery_mj: OnlineStats,
    /// Collision count per replication.
    pub collisions: OnlineStats,
    /// Mean observed duty cycle per replication.
    pub duty_cycle: OnlineStats,
    /// Jain fairness of per-node energy per replication.
    pub energy_fairness: OnlineStats,
}

impl McSummary {
    /// Serializes the summary as JSON, stamped with the campaign schema
    /// version so a future format change fails loudly on resume instead
    /// of silently merging incompatible records.
    ///
    /// Means are emitted twice: as a plain number for human readers and
    /// as the exact `f64` bit pattern (`*_bits`, hex) so byte-comparing
    /// two merged outputs compares the underlying Welford state, not a
    /// rounded rendering of it.
    pub fn to_json(&self) -> serde_json::Value {
        fn stats(s: &ttdc_util::OnlineStats) -> serde_json::Value {
            serde_json::json!({
                "count": s.count(),
                "mean": s.mean(),
                "mean_bits": format!("{:016x}", s.mean().to_bits()),
                "variance": s.variance(),
                "variance_bits": format!("{:016x}", s.variance().to_bits()),
                "min": s.min(),
                "max": s.max(),
            })
        }
        serde_json::json!({
            "schema_version": crate::campaign::CAMPAIGN_SCHEMA_VERSION,
            "delivery_ratio": stats(&self.delivery_ratio),
            "latency_mean": stats(&self.latency_mean),
            "energy_mean_mj": stats(&self.energy_mean_mj),
            "energy_per_delivery_mj": stats(&self.energy_per_delivery_mj),
            "collisions": stats(&self.collisions),
            "duty_cycle": stats(&self.duty_cycle),
            "energy_fairness": stats(&self.energy_fairness),
        })
    }
}

/// Aggregates replication reports, pushing each report's metrics in slice
/// order (seed order for [`run_replications`]). The Welford accumulators
/// are not associative, so the order is part of the result.
pub fn summarize(reports: &[SimReport]) -> McSummary {
    let mut s = McSummary::default();
    for r in reports {
        s.delivery_ratio.push(r.delivery_ratio());
        if r.delivered > 0 {
            s.latency_mean.push(r.latency.mean());
            s.energy_per_delivery_mj.push(r.energy_per_delivery_mj());
        }
        s.energy_mean_mj.push(r.energy.mean_mj());
        s.collisions.push(r.collisions as f64);
        s.duty_cycle.push(r.mean_duty_cycle());
        s.energy_fairness.push(r.energy.fairness_index());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulatorBuilder;
    use crate::mac::ScheduleMac;
    use crate::topology::Topology;
    use crate::traffic::TrafficPattern;
    use ttdc_core::Schedule;
    use ttdc_util::BitSet;

    fn scenario(seed: u64) -> SimReport {
        let n = 4;
        let t = (0..n).map(|i| BitSet::from_iter(n, [i])).collect();
        let mac = ScheduleMac::new("rr", Schedule::non_sleeping(n, t));
        let mut sim = SimulatorBuilder::new(
            Topology::ring(n),
            TrafficPattern::PoissonUnicast { rate: 0.1 },
        )
        .seed(seed)
        .build()
        .unwrap();
        sim.run(&mac, 400);
        sim.report()
    }

    #[test]
    fn replications_are_seeded_distinctly_and_deterministically() {
        let a = run_replications(4, 100, scenario);
        let b = run_replications(4, 100, scenario);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.generated, y.generated, "same seed, same run");
        }
        assert!(
            a.iter().any(|r| r.generated != a[0].generated)
                || a.iter().any(|r| r.delivered != a[0].delivered),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn summary_aggregates_every_replication() {
        let reports = run_replications(6, 0, scenario);
        let s = summarize(&reports);
        assert_eq!(s.delivery_ratio.count(), 6);
        assert_eq!(s.collisions.count(), 6);
        assert!(s.delivery_ratio.mean() > 0.5);
        // Every node listens in the other n−1 = 3 of every 4 slots; its own
        // transmit slot is spent asleep unless a packet is pending.
        assert!(s.duty_cycle.mean() > 0.74, "{}", s.duty_cycle.mean());
        assert!(s.energy_fairness.mean() > 0.9);
        assert!(s.latency_mean.mean() >= 0.0);
    }

    #[test]
    fn summary_skips_latency_without_deliveries() {
        let empty = SimReport::new(3);
        let s = summarize(&[empty]);
        assert_eq!(s.latency_mean.count(), 0);
        assert_eq!(s.delivery_ratio.count(), 1);
    }
}
