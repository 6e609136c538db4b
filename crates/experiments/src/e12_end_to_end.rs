//! E12 — end-to-end protocol comparison (the evaluation the paper's
//! motivation implies but never runs): convergecast over a degree-bounded
//! geometric WSN, static and under edge churn, comparing
//!
//! * `ttdc` — this paper (topology-transparent, duty-cycled),
//! * `tsma` — the non-sleeping topology-transparent baseline,
//! * `naive-1-in-k` — uncoordinated duty cycling,
//! * `random-wakeup` — asynchronous random wakeup at TTDC's duty cycle,
//! * `slotted-aloha` — always-on contention,
//! * `smac-like` — coordinated listen/sleep with contention,
//! * `coloring-tdma` — topology-*dependent* TDMA computed once for the
//!   initial topology (optimal there, stale after churn).
//!
//! Expected shape: under churn the topology-dependent TDMA degrades while
//! the topology-transparent schedules are unaffected by design; TTDC holds
//! TSMA-like delivery at a fraction of the energy; the contention schemes
//! trade energy against collisions.

use crate::campaign::GridScenario;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc_core::construct::PartitionStrategy;
use ttdc_protocols::{
    ColoringTdmaMac, NaiveDutyCycleMac, RandomWakeupMac, SlottedAlohaMac, SmacLikeMac, TsmaMac,
    TtdcMac,
};
use ttdc_sim::{
    churn, CampaignSpec, GeometricNetwork, MacProtocol, PointSpec, SimulatorBuilder, Topology,
    TrafficPattern,
};
use ttdc_util::Table;

const N: usize = 25;
const D: usize = 4;
const SLOTS: u64 = 24_000;
const CHURN_PERIOD: u64 = 1_500;
const RATE: f64 = 0.0008;
const REPS: u64 = 6;

fn make_topology(seed: u64) -> Topology {
    GeometricNetwork::connected(N, 0.35, D, &mut SmallRng::seed_from_u64(seed * 7919 + 1))
}

fn scenario(mac: &dyn MacProtocol, dynamic: bool, seed: u64) -> ttdc_sim::SimReport {
    let topo = make_topology(seed);
    let mut sim = SimulatorBuilder::new(
        topo,
        TrafficPattern::Convergecast {
            sink: 0,
            rate: RATE,
        },
    )
    .seed(seed)
    .build()
    .expect("valid configuration");
    if dynamic {
        let mut rng = SmallRng::seed_from_u64(seed * 31 + 7);
        let mut remaining = SLOTS;
        while remaining > 0 {
            let chunk = CHURN_PERIOD.min(remaining);
            sim.run(mac, chunk);
            remaining -= chunk;
            let mut t = sim.topology().clone();
            churn(&mut t, 2, 2, D, &mut rng);
            sim.set_topology(t);
        }
    } else {
        sim.run(mac, SLOTS);
    }
    sim.report()
}

/// All competitor protocols for a given initial topology (TDMA needs it).
fn protocols(initial: &Topology) -> Vec<(String, Box<dyn MacProtocol>)> {
    let ttdc = TtdcMac::new(N, D, 2, 4, PartitionStrategy::RoundRobin);
    let duty = ttdc.schedule().average_duty_cycle();
    let k = (1.0 / duty).round().max(2.0) as u64;
    vec![
        ("ttdc".into(), Box::new(ttdc) as Box<dyn MacProtocol>),
        ("tsma".into(), Box::new(TsmaMac::new(N, D))),
        ("naive-1-in-k".into(), Box::new(NaiveDutyCycleMac::new(k))),
        ("slotted-aloha".into(), Box::new(SlottedAlohaMac::new(0.05))),
        ("smac-like".into(), Box::new(SmacLikeMac::new(k, 1, 0.2))),
        (
            "random-wakeup".into(),
            Box::new(RandomWakeupMac::new(duty, 17)),
        ),
        (
            "coloring-tdma".into(),
            Box::new(ColoringTdmaMac::new(initial)),
        ),
    ]
}

const FRAMES: u64 = 4;
const LARGE_REPS: u64 = 4;
const LARGE_SIZES: [usize; 3] = [64, 128, 256];

/// E12b as a campaign grid (one point per network size) — TTDC
/// convergecast at growing `n`. The TTDC frame grows superlinearly in `n`
/// (50k+ slots at `n = 256`), so a horizon of a few frames is hundreds of
/// thousands of simulated slots; these points are tractable because the
/// sleep-sparse engine path makes per-slot cost track the awake roster
/// instead of `n`. The workload is normalised to the frame (a quarter
/// packet per node per frame) so the offered load per transmit opportunity
/// stays comparable across sizes; the single convergecast sink still
/// concentrates `n`-proportional traffic, so delivery degrading with `n`
/// is the expected funnel effect, not noise.
pub fn large_grid() -> GridScenario {
    GridScenario {
        spec: CampaignSpec {
            name: "e12-large".into(),
            points: LARGE_SIZES
                .iter()
                .map(|n| PointSpec::new(format!("n={n}")).param("n", n))
                .collect(),
            reps: LARGE_REPS,
            base_seed: 1,
            // One replication per checkpoint: the large-n sims are the
            // slowest shards in the repo, so make each one resumable.
            shard_size: 1,
            // The n = 256 horizon (frame × FRAMES ≈ 2 × 10⁵ slots); it
            // drives nothing but stays in the fingerprint.
            slots_hint: 220_000,
        },
        extra_names: Vec::new(),
        scenario: Box::new(|point, seed| {
            let n = LARGE_SIZES[point];
            let mac = TtdcMac::new(n, D, 2, 4, PartitionStrategy::RoundRobin);
            let frame = mac.frame_length();
            let slots = frame as u64 * FRAMES;
            let rate = 0.25 / frame as f64;
            let mut rng = SmallRng::seed_from_u64(seed * 7919 + n as u64);
            let topo = GeometricNetwork::connected(n, 0.35, D, &mut rng);
            let mut sim =
                SimulatorBuilder::new(topo, TrafficPattern::Convergecast { sink: 0, rate })
                    .seed(seed)
                    .build()
                    .expect("valid configuration");
            sim.run(&mac, slots);
            sim.report()
        }),
        extract: None,
    }
}

fn large_n_table() -> Table {
    let outcome = large_grid().run_default();
    let mut table = Table::new(
        "E12b — large-n scaling: TTDC convergecast (sleep-sparse simulator)",
        &[
            "n",
            "frame_length",
            "slots",
            "delivery_ratio",
            "mean_latency_slots",
            "energy_mJ/node",
            "duty_cycle",
        ],
    );
    for (point, n) in LARGE_SIZES.into_iter().enumerate() {
        let frame = TtdcMac::new(n, D, 2, 4, PartitionStrategy::RoundRobin).frame_length();
        let slots = frame as u64 * FRAMES;
        let s = &outcome.summaries[point];
        table.row(&[
            n.to_string(),
            frame.to_string(),
            slots.to_string(),
            format!("{:.3}", s.delivery_ratio.mean()),
            format!("{:.1}", s.latency_mean.mean()),
            format!("{:.1}", s.energy_mean_mj.mean()),
            format!("{:.3}", s.duty_cycle.mean()),
        ]);
    }
    table
}

const LOW_SIZES: [usize; 3] = [64, 128, 256];
const LOW_HORIZON: u64 = 1_000_000;
const LOW_PERIOD: u64 = 50_000;
const LOW_REPS: u64 = 3;

/// E12c as a campaign grid — TTDC under *low-rate* CBR unicast
/// (per-node arrival 2 × 10⁻⁵ per slot) over a million-slot horizon.
/// This is the regime the paper's motivating deployments live in
/// (sensing events are rare; the schedule idles between them) and the
/// one the event-driven time-skipping engine exists for: almost every
/// slot has no backlog and no arrival, so `Simulator::run` dispatches
/// through the slot calendar and jumps the clock between generation and
/// drain slots instead of grinding a million per-slot pipelines. The
/// reports are bit-identical to the slot-by-slot paths by the skip
/// engine's equivalence contract, so the table needs no dual-run check.
pub fn low_traffic_grid() -> GridScenario {
    GridScenario {
        spec: CampaignSpec {
            name: "e12c".into(),
            points: LOW_SIZES
                .iter()
                .map(|n| PointSpec::new(format!("n={n}")).param("n", n))
                .collect(),
            reps: LOW_REPS,
            base_seed: 1,
            shard_size: 1,
            slots_hint: LOW_HORIZON,
        },
        extra_names: Vec::new(),
        scenario: Box::new(|point, seed| {
            let n = LOW_SIZES[point];
            let mac = TtdcMac::new(n, D, 2, 4, PartitionStrategy::RoundRobin);
            let mut rng = SmallRng::seed_from_u64(seed * 6271 + n as u64);
            let topo = GeometricNetwork::connected(n, 0.35, D, &mut rng);
            let mut sim =
                SimulatorBuilder::new(topo, TrafficPattern::CbrUnicast { period: LOW_PERIOD })
                    .seed(seed)
                    .build()
                    .expect("valid configuration");
            sim.run(&mac, LOW_HORIZON);
            sim.report()
        }),
        extract: None,
    }
}

fn low_traffic_table() -> Table {
    let outcome = low_traffic_grid().run_default();
    let mut table = Table::new(
        "E12c — low-traffic long horizon: TTDC CBR unicast (time-skipping simulator)",
        &[
            "n",
            "cbr_period",
            "slots",
            "delivery_ratio",
            "mean_latency_slots",
            "energy_mJ/node",
            "duty_cycle",
        ],
    );
    for (point, n) in LOW_SIZES.into_iter().enumerate() {
        let s = &outcome.summaries[point];
        table.row(&[
            n.to_string(),
            LOW_PERIOD.to_string(),
            LOW_HORIZON.to_string(),
            format!("{:.3}", s.delivery_ratio.mean()),
            format!("{:.1}", s.latency_mean.mean()),
            format!("{:.1}", s.energy_mean_mj.mean()),
            format!("{:.3}", s.duty_cycle.mean()),
        ]);
    }
    table
}

/// The protocol column labels, in [`protocols`] order (TDMA needs a
/// topology to construct, so the names are read off a throwaway instance).
fn protocol_names() -> Vec<String> {
    protocols(&make_topology(1))
        .into_iter()
        .map(|p| p.0)
        .collect()
}

/// E12 as a campaign grid: `static` then `churn`, each over every
/// protocol — the table's row order.
pub fn grid() -> GridScenario {
    let names = protocol_names();
    let points = [false, true]
        .iter()
        .flat_map(|dynamic| {
            let scenario_name = if *dynamic { "churn" } else { "static" };
            names.iter().map(move |name| {
                PointSpec::new(format!("{scenario_name}/{name}"))
                    .param("scenario", scenario_name)
                    .param("protocol", name)
            })
        })
        .collect();
    let per_mode = names.len();
    GridScenario {
        spec: CampaignSpec {
            name: "e12".into(),
            points,
            reps: REPS,
            base_seed: 1,
            shard_size: 2,
            slots_hint: SLOTS,
        },
        extra_names: Vec::new(),
        scenario: Box::new(move |point, seed| {
            let dynamic = point >= per_mode;
            let name = &names[point % per_mode];
            // One protocol set per replication seed (TDMA binds to the
            // seed's topology).
            let initial = make_topology(seed);
            let protos = protocols(&initial);
            let (_, mac) = protos
                .into_iter()
                .find(|(n, _)| n == name)
                .expect("protocol registered");
            scenario(mac.as_ref(), dynamic, seed)
        }),
        extract: None,
    }
}

/// Runs E12 (both tables go through the campaign runner; merged summaries
/// are bit-identical to the direct replication folds).
pub fn run() -> Vec<Table> {
    let outcome = grid().run_default();
    let mut table = Table::new(
        "E12 — convergecast: delivery / latency / energy, static vs churn",
        &[
            "protocol",
            "scenario",
            "delivery_ratio",
            "mean_latency_slots",
            "energy_mJ/node",
            "mJ/delivered",
            "collisions/1k",
            "duty_cycle",
        ],
    );
    let names = protocol_names();
    let mut point = 0;
    for scenario_name in ["static", "churn"] {
        for name in &names {
            let s = &outcome.summaries[point];
            point += 1;
            table.row(&[
                name.clone(),
                scenario_name.to_string(),
                format!("{:.3}", s.delivery_ratio.mean()),
                format!("{:.1}", s.latency_mean.mean()),
                format!("{:.1}", s.energy_mean_mj.mean()),
                format!("{:.2}", s.energy_per_delivery_mj.mean()),
                format!("{:.2}", s.collisions.mean() / (SLOTS as f64 / 1000.0)),
                format!("{:.3}", s.duty_cycle.mean()),
            ]);
        }
    }
    // The large-n and low-traffic rows ride behind the comparison table:
    // appended, never interleaved, so pre-existing tables' bytes are
    // untouched.
    vec![table, large_n_table(), low_traffic_table()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: &Table, name: &str) -> usize {
        t.columns().iter().position(|c| c == name).unwrap()
    }

    fn cell(t: &Table, proto: &str, scenario: &str, column: &str) -> f64 {
        let p = col(t, "protocol");
        let s = col(t, "scenario");
        let c = col(t, column);
        t.rows()
            .iter()
            .find(|r| r[p] == proto && r[s] == scenario)
            .unwrap_or_else(|| panic!("{proto}/{scenario} missing"))[c]
            .parse()
            .unwrap()
    }

    #[test]
    #[ignore = "long-running end-to-end sweep; exercised by `exp_all e12`"]
    fn expected_shape_holds() {
        let t = &run()[0];
        // TTDC delivers like TSMA but much cheaper.
        let ttdc_e = cell(t, "ttdc", "static", "energy_mJ/node");
        let tsma_e = cell(t, "tsma", "static", "energy_mJ/node");
        assert!(ttdc_e < tsma_e * 0.6, "ttdc {ttdc_e} vs tsma {tsma_e}");
        assert!(cell(t, "ttdc", "static", "delivery_ratio") > 0.9);
        // Topology-transparent protocols survive churn.
        assert!(cell(t, "ttdc", "churn", "delivery_ratio") > 0.85);
        // Topology-dependent TDMA loses ground under churn.
        let tdma_static = cell(t, "coloring-tdma", "static", "delivery_ratio");
        let tdma_churn = cell(t, "coloring-tdma", "churn", "delivery_ratio");
        assert!(tdma_churn < tdma_static, "{tdma_churn} !< {tdma_static}");
    }

    #[test]
    fn single_scenario_smoke() {
        let ttdc = TtdcMac::new(N, D, 2, 4, PartitionStrategy::RoundRobin);
        let r = scenario(&ttdc, false, 2);
        assert!(r.generated > 200, "{}", r.generated);
        assert!(r.delivery_ratio() > 0.8, "{}", r.delivery_ratio());
    }
}
