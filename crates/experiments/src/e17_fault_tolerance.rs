//! E17 — fault tolerance: graceful degradation under injected faults.
//!
//! The paper argues (§1, §7) that topology-transparent schedules keep their
//! guarantees without reacting to the network, which should also make them
//! robust to the faults a deployed WSN actually sees: lossy and bursty
//! links, nodes that crash and reboot, and clocks that drift. This
//! experiment runs the convergecast workload of [`e12`](crate::e12_end_to_end)
//! through the simulator's fault-injection subsystem
//! ([`ttdc_sim::FaultPlan`]) and sweeps one fault axis at a time:
//!
//! * `clean` — no faults (control; must match the fault-free engine),
//! * `per-10` / `per-30` — uniform per-link packet erasure,
//! * `bursty` — Gilbert–Elliott bursty channel at a comparable mean loss,
//! * `crash` — transient node crashes with recovery (queues lost),
//! * `drift` — per-node clock drift skewing the perceived slot.
//!
//! All faulty scenarios run with a bounded link-layer ARQ so exhausted
//! retries become observable instead of hiding as infinite backlog.
//!
//! Expected shape: delivery degrades smoothly (no cliff) with loss for the
//! schedule-based protocols; the topology-transparent schedules tolerate
//! crashes of *other* nodes because no state about them is kept; clock
//! drift hurts schedule-based MACs most since transmitter and receiver
//! disagree on the slot index.

use crate::campaign::GridScenario;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc_core::construct::PartitionStrategy;
use ttdc_protocols::{ColoringTdmaMac, SlottedAlohaMac, TsmaMac, TtdcMac};
use ttdc_sim::{
    CampaignSpec, CrashModel, FaultPlan, GeometricNetwork, GilbertElliott, MacProtocol, PointSpec,
    SimulatorBuilder, Topology, TrafficPattern,
};
use ttdc_util::Table;

const N: usize = 25;
const D: usize = 4;
const SLOTS: u64 = 12_000;
const RATE: f64 = 0.0008;
const REPS: u64 = 4;
/// Retry budget for every faulty scenario: generous enough that healthy
/// links never exhaust it, small enough that dead links show up in
/// `retry_exhausted` rather than as unbounded backlog.
const ARQ_LIMIT: u32 = 8;

fn make_topology(seed: u64) -> Topology {
    GeometricNetwork::connected(N, 0.35, D, &mut SmallRng::seed_from_u64(seed * 7919 + 1))
}

/// The fault axes swept, as `(name, plan)`.
fn fault_scenarios() -> Vec<(&'static str, FaultPlan)> {
    let arq = FaultPlan::none().with_max_retries(ARQ_LIMIT);
    vec![
        ("clean", FaultPlan::none()),
        ("per-10", arq.with_per(0.10)),
        ("per-30", arq.with_per(0.30)),
        // Stationary loss ≈ 0.125 · 0.8 = 10%, but correlated in bursts —
        // directly comparable with `per-10`.
        ("bursty", arq.with_burst(GilbertElliott::bursty(0.01, 0.07))),
        ("crash", arq.with_crash(CrashModel::new(0.0005, 0.05))),
        ("drift", arq.with_drift(0.10)),
    ]
}

fn scenario(mac: &dyn MacProtocol, faults: FaultPlan, seed: u64) -> ttdc_sim::SimReport {
    let topo = make_topology(seed);
    let mut sim = SimulatorBuilder::new(
        topo,
        TrafficPattern::Convergecast {
            sink: 0,
            rate: RATE,
        },
    )
    .seed(seed)
    .faults(faults)
    .build()
    .expect("valid configuration");
    sim.run(mac, SLOTS);
    sim.report()
}

/// The protocol subset compared (TDMA needs the initial topology).
fn protocols(initial: &Topology) -> Vec<(String, Box<dyn MacProtocol>)> {
    vec![
        (
            "ttdc".into(),
            Box::new(TtdcMac::new(N, D, 2, 4, PartitionStrategy::RoundRobin))
                as Box<dyn MacProtocol>,
        ),
        ("tsma".into(), Box::new(TsmaMac::new(N, D))),
        ("slotted-aloha".into(), Box::new(SlottedAlohaMac::new(0.05))),
        (
            "coloring-tdma".into(),
            Box::new(ColoringTdmaMac::new(initial)),
        ),
    ]
}

/// The protocol column labels, in [`protocols`] order.
fn protocol_names() -> Vec<String> {
    protocols(&make_topology(1))
        .into_iter()
        .map(|p| p.0)
        .collect()
}

/// E17 as a campaign grid: fault axes × protocols, in table row order.
///
/// The fault counters (`link_drops`, `retry_exhausted`, `crashes`) come
/// from the raw reports, not the [`ttdc_sim::McSummary`] seven, so the
/// grid checkpoints them per replication as campaign *extra metrics* —
/// their table means are then a plain ordered `sum / len` over the same
/// values the pre-campaign code read off the in-memory reports.
pub fn grid() -> GridScenario {
    let faults = fault_scenarios();
    let names = protocol_names();
    let points = faults
        .iter()
        .flat_map(|(fault_name, _)| {
            names.iter().map(move |name| {
                PointSpec::new(format!("{fault_name}/{name}"))
                    .param("fault", fault_name)
                    .param("protocol", name)
            })
        })
        .collect();
    let per_fault = names.len();
    GridScenario {
        spec: CampaignSpec {
            name: "e17".into(),
            points,
            reps: REPS,
            base_seed: 1,
            shard_size: 2,
            slots_hint: SLOTS,
        },
        extra_names: vec![
            "link_drops".into(),
            "retry_exhausted".into(),
            "crashes".into(),
        ],
        scenario: Box::new(move |point, seed| {
            let (_, plan) = faults[point / per_fault];
            let name = &names[point % per_fault];
            let initial = make_topology(seed);
            let protos = protocols(&initial);
            let (_, mac) = protos
                .into_iter()
                .find(|(n, _)| n == name)
                .expect("protocol registered");
            scenario(mac.as_ref(), plan, seed)
        }),
        extract: Some(Box::new(|r| {
            vec![
                r.link_drops as f64,
                r.retry_exhausted as f64,
                r.crashes as f64,
            ]
        })),
    }
}

/// Runs E17 (through the crash-resilient campaign runner).
pub fn run() -> Vec<Table> {
    let outcome = grid().run_default();
    let mut table = Table::new(
        "E17 — fault tolerance: convergecast under link loss, crashes, drift",
        &[
            "protocol",
            "fault",
            "delivery_ratio",
            "mean_latency_slots",
            "energy_mJ/node",
            "link_drops/1k",
            "retry_exhausted",
            "crashes",
        ],
    );
    let names = protocol_names();
    let mut point = 0;
    for (fault_name, _) in fault_scenarios() {
        for name in &names {
            let s = &outcome.summaries[point];
            let per_rep = &outcome.extras[point];
            point += 1;
            // Replication order matches seed order, so this is the same
            // summation the report-based means performed.
            let mean = |k: usize| per_rep.iter().map(|v| v[k]).sum::<f64>() / per_rep.len() as f64;
            table.row(&[
                name.clone(),
                fault_name.to_string(),
                format!("{:.3}", s.delivery_ratio.mean()),
                format!("{:.1}", s.latency_mean.mean()),
                format!("{:.1}", s.energy_mean_mj.mean()),
                format!("{:.2}", mean(0) / (SLOTS as f64 / 1000.0)),
                format!("{:.1}", mean(1)),
                format!("{:.1}", mean(2)),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: &Table, name: &str) -> usize {
        t.columns().iter().position(|c| c == name).unwrap()
    }

    fn cell(t: &Table, proto: &str, fault: &str, column: &str) -> f64 {
        let p = col(t, "protocol");
        let s = col(t, "fault");
        let c = col(t, column);
        t.rows()
            .iter()
            .find(|r| r[p] == proto && r[s] == fault)
            .unwrap_or_else(|| panic!("{proto}/{fault} missing"))[c]
            .parse()
            .unwrap()
    }

    #[test]
    #[ignore = "long-running fault sweep; exercised by `exp_all e17`"]
    fn expected_shape_holds() {
        let t = &run()[0];
        // Control matches the fault-free engine: no fault events at all.
        assert_eq!(cell(t, "ttdc", "clean", "link_drops/1k"), 0.0);
        assert_eq!(cell(t, "ttdc", "clean", "retry_exhausted"), 0.0);
        assert!(cell(t, "ttdc", "clean", "delivery_ratio") > 0.9);
        // Loss degrades delivery monotonically, but gracefully (no cliff).
        let clean = cell(t, "ttdc", "clean", "delivery_ratio");
        let p10 = cell(t, "ttdc", "per-10", "delivery_ratio");
        let p30 = cell(t, "ttdc", "per-30", "delivery_ratio");
        assert!(p10 <= clean && p30 <= p10, "{clean} {p10} {p30}");
        assert!(p30 > 0.3, "30% PER should not collapse delivery: {p30}");
        // Injected loss is observable.
        assert!(cell(t, "ttdc", "per-30", "link_drops/1k") > 0.0);
        // Crashes happen and are counted.
        assert!(cell(t, "ttdc", "crash", "crashes") > 0.0);
        // Drift hurts schedule-based MACs.
        assert!(cell(t, "ttdc", "drift", "delivery_ratio") < clean);
    }

    #[test]
    fn single_scenario_smoke() {
        let ttdc = TtdcMac::new(N, D, 2, 4, PartitionStrategy::RoundRobin);
        let plan = FaultPlan::none().with_per(0.2).with_max_retries(ARQ_LIMIT);
        let r = scenario(&ttdc, plan, 2);
        assert!(r.generated > 100, "{}", r.generated);
        assert!(r.link_drops > 0, "loss should be observable");
        // Conservation: every generated packet is accounted for.
        let backlog = r.generated - r.delivered - r.undeliverable - r.retry_exhausted;
        assert!(backlog <= r.generated, "{backlog}");
    }
}
