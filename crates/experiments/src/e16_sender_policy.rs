//! E16 — ablation: schedule-aware vs eager senders.
//!
//! The paper's throughput guarantees count slots where a transmission
//! *would* succeed; an implementation still has to decide when to spend a
//! transmit opportunity. Because the schedule is global knowledge (that is
//! the whole point of topology transparency — the *topology* is unknown,
//! the *schedule* is not), a sender can skip slots in which its next hop is
//! asleep. This experiment quantifies what that knowledge is worth: the
//! eager sender burns transmit slots into sleeping receivers, wasting
//! energy and head-of-line time.

use ttdc_core::construct::PartitionStrategy;
use ttdc_protocols::TtdcMac;
use ttdc_sim::{run_replications, summarize, SimulatorBuilder, Topology, TrafficPattern};
use ttdc_util::Table;

const N: usize = 20;
const D: usize = 3;
const SLOTS: u64 = 40_000;
const REPS: u64 = 6;

fn scenario(aware: bool, rate: f64, seed: u64) -> ttdc_sim::SimReport {
    let mac = TtdcMac::new(N, D, 2, 4, PartitionStrategy::RoundRobin);
    let mut sim = SimulatorBuilder::new(Topology::ring(N), TrafficPattern::PoissonUnicast { rate })
        .seed(seed)
        .schedule_aware_senders(aware)
        .build()
        .expect("valid configuration");
    sim.run(&mac, SLOTS);
    sim.report()
}

/// Runs E16.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E16 — ablation: schedule-aware vs eager senders (ttdc, ring)",
        &[
            "sender_policy",
            "rate",
            "delivery_ratio",
            "mean_latency",
            "tx_slots_used",
            "energy_mJ/node",
        ],
    );
    for rate in [0.001f64, 0.004] {
        for aware in [true, false] {
            let reports = run_replications(REPS, 3, |seed| scenario(aware, rate, seed));
            let s = summarize(&reports);
            let tx: f64 = reports
                .iter()
                .map(|r| r.energy.tx_slots.iter().sum::<u64>() as f64)
                .sum::<f64>()
                / reports.len() as f64;
            table.row(&[
                if aware { "schedule-aware" } else { "eager" }.to_string(),
                format!("{rate}"),
                format!("{:.3}", s.delivery_ratio.mean()),
                format!("{:.1}", s.latency_mean.mean()),
                format!("{tx:.0}"),
                format!("{:.1}", s.energy_mean_mj.mean()),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_awareness_saves_transmissions() {
        let aware = scenario(true, 0.004, 1);
        let eager = scenario(false, 0.004, 1);
        let tx = |r: &ttdc_sim::SimReport| r.energy.tx_slots.iter().sum::<u64>();
        // The eager sender transmits into sleeping receivers; awareness
        // should deliver at least as much with fewer transmissions.
        assert!(
            tx(&aware) < tx(&eager),
            "aware {} vs eager {}",
            tx(&aware),
            tx(&eager)
        );
        assert!(aware.delivery_ratio() >= eager.delivery_ratio() - 0.02);
    }
}
