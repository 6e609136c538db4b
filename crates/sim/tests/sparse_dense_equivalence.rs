//! Every roster source must drive the slot pipeline bit-identically.
//!
//! Every phase walks the slot's rosters. For a frame-periodic MAC,
//! [`Simulator::run_on`] takes them from a precomputed
//! [`SlotPlan`](ttdc_sim::SlotPlan) at zero clock drift
//! ([`SimPath::Plan`]) and from per-skew-group reads of the MAC's slot
//! masks under drift ([`SimPath::Skew`]); [`SimPath::Scan`] forces the
//! per-slot scan that asks the MAC about every node at its perceived
//! slot. Each run's returned path is checked, so a source that silently
//! fell back would fail here. The properties here pin the
//! sources to the same *full* [`SimReport`] — every counter, the per-node
//! energy ledger, the latency histogram bit patterns, and the retained
//! event trace — across random topologies, schedules, the paper's
//! collision rule and physical capture over random node positions, fault
//! plans, and 1- vs 4-thread rayon pools.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPool;
use std::sync::OnceLock;
use ttdc_core::Schedule;
use ttdc_sim::{
    CaptureModel, CrashModel, FaultPlan, GilbertElliott, MacProtocol, ScheduleMac, SimPath,
    SimReport, Simulator, SimulatorBuilder, Topology, TrafficPattern,
};
use ttdc_util::BitSet;

fn sequential_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
    })
}

fn parallel_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
    })
}

/// A randomized [`FaultPlan`] spanning every axis *except* clock drift —
/// drift moves the run onto skew-group rosters and gets its own
/// properties below.
fn arb_driftless_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        prop_oneof![Just(0.0f64), 0.0f64..0.9],
        prop::option::of((0.001f64..0.5, 0.001f64..0.5)),
        prop::option::of((0.0f64..0.05, 0.0f64..0.5, any::<bool>())),
        prop::option::of(0u32..6),
    )
        .prop_map(|(per, burst, crash, max_retries)| {
            let mut plan = FaultPlan::none().with_per(per);
            if let Some(m) = max_retries {
                plan = plan.with_max_retries(m);
            }
            if let Some((gb, bg)) = burst {
                plan = plan.with_burst(GilbertElliott::bursty(gb, bg));
            }
            if let Some((c, r, persist)) = crash {
                let mut model = CrashModel::new(c, r);
                model.persist_queue = persist;
                plan = plan.with_crash(model);
            }
            plan
        })
}

/// Optional physical capture: node positions and the capture threshold.
type Capture = Option<(Vec<(f64, f64)>, CaptureModel)>;

/// A topology, a periodic schedule MAC over it, and optional physical
/// capture.
#[derive(Clone, Debug)]
struct Scenario {
    topo: Topology,
    mac: ScheduleMac,
    capture: Capture,
}

/// `n` random positions in the unit square.
fn random_positions(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect()
}

/// Physical capture over `n` random positions, with ratios from the
/// degenerate 1 (the nearer of two senders always wins) upward; `None`
/// keeps the paper's collision rule.
fn arb_capture(n: usize) -> impl Strategy<Value = Capture> {
    prop::option::of((0u64..1000, prop_oneof![Just(1.0f64), 1.0f64..3.0])).prop_map(
        move |capture| {
            capture.map(|(seed, ratio)| (random_positions(n, seed), CaptureModel { ratio }))
        },
    )
}

/// Builds a simulator, with capture when `capture` is set.
fn build(builder: SimulatorBuilder, capture: &Capture) -> Simulator {
    match capture {
        Some((positions, model)) => builder.capture(positions.clone(), *model),
        None => builder,
    }
    .build()
    .expect("valid scenario")
}

/// A random degree-capped topology with a random periodic schedule MAC —
/// including duty-cycled slots where most (or all) nodes sleep — under
/// the paper's collision rule or physical capture.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (3usize..10).prop_flat_map(|n| {
        let topo = (0u64..1000, 2usize..5).prop_map(move |(seed, dcap)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Topology::random_gnp_capped(n, 0.4, dcap, &mut rng)
        });
        let mac = prop::collection::vec(
            (0u32..(1 << n), prop::bits::u32::masked((1 << n) - 1)),
            1..6,
        )
        .prop_map(move |slots| {
            let mut t = Vec::new();
            let mut r = Vec::new();
            for (tm, rm) in slots {
                t.push(BitSet::from_iter(n, (0..n).filter(|&i| tm >> i & 1 == 1)));
                r.push(BitSet::from_iter(
                    n,
                    (0..n).filter(|&i| rm >> i & 1 == 1 && tm >> i & 1 == 0),
                ));
            }
            ScheduleMac::new("prop", Schedule::new(n, t, r))
        });
        (topo, mac, arb_capture(n)).prop_map(|(topo, mac, capture)| Scenario { topo, mac, capture })
    })
}

fn arb_pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::SaturatedBroadcast),
        (0.01f64..0.3).prop_map(|rate| TrafficPattern::PoissonUnicast { rate }),
        (0.01f64..0.15).prop_map(|rate| TrafficPattern::Convergecast { sink: 0, rate }),
    ]
}

/// A random schedule MAC over `n` nodes with `frame` slots: in each slot
/// every node transmits with probability `density`, and otherwise listens
/// with the same probability.
fn random_schedule_mac(n: usize, frame: usize, density: f64, seed: u64) -> ScheduleMac {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = Vec::new();
    let mut r = Vec::new();
    for _ in 0..frame {
        let mut tx = BitSet::new(n);
        let mut rx = BitSet::new(n);
        for v in 0..n {
            if rng.gen_bool(density) {
                tx.insert(v);
            } else if rng.gen_bool(density) {
                rx.insert(v);
            }
        }
        t.push(tx);
        r.push(rx);
    }
    ScheduleMac::new("prop-wide", Schedule::new(n, t, r))
}

fn fresh(
    scn: &Scenario,
    pattern: &TrafficPattern,
    seed: u64,
    faults: &FaultPlan,
    battery: Option<f64>,
) -> Simulator {
    let mut builder = SimulatorBuilder::new(scn.topo.clone(), *pattern)
        .seed(seed)
        .faults(*faults)
        .trace_capacity(64);
    if let Some(capacity) = battery {
        builder = builder.battery_capacity_mj(capacity);
    }
    build(builder, &scn.capture)
}

/// A forced plan run (skew groups under drift) and a forced scan on
/// identical inputs, with the path the first one took.
fn both_reports(
    scn: &Scenario,
    pattern: &TrafficPattern,
    seed: u64,
    faults: &FaultPlan,
    battery: Option<f64>,
    slots: u64,
) -> (SimPath, SimReport, SimReport) {
    let mac: &dyn MacProtocol = &scn.mac;
    let mut sparse = fresh(scn, pattern, seed, faults, battery);
    let path = sparse.run_on(SimPath::Plan, mac, slots);
    let mut dense = fresh(scn, pattern, seed, faults, battery);
    dense.run_on(SimPath::Scan, mac, slots);
    (path, sparse.report(), dense.report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero drift + periodic MAC: the plan source engages and must
    /// reproduce the scan's report bit for bit, on a 1-thread and a
    /// 4-thread rayon pool alike. The optional battery cap exercises both
    /// tiers of the energy pass (the bulk no-battery sweep and the
    /// death-checked gap walk).
    #[test]
    fn sparse_path_is_bit_identical_to_dense(
        scn in arb_scenario(),
        pattern in arb_pattern(),
        plan in arb_driftless_fault_plan(),
        battery in prop::option::of(2.0f64..60.0),
        seed in 0u64..500,
        slots in 50u64..400,
    ) {
        prop_assert!(scn.mac.frame_periodic(), "ScheduleMac wraps by definition");
        let (path, sparse_seq, dense_seq) = sequential_pool()
            .install(|| both_reports(&scn, &pattern, seed, &plan, battery, slots));
        prop_assert_eq!(path, SimPath::Plan);
        prop_assert_eq!(&sparse_seq, &dense_seq);
        let (_, sparse_par, dense_par) = parallel_pool()
            .install(|| both_reports(&scn, &pattern, seed, &plan, battery, slots));
        prop_assert_eq!(&sparse_par, &dense_par);
        // Pool size must not matter either.
        prop_assert_eq!(&sparse_seq, &sparse_par);
        // The trace really was compared, not disabled on both sides.
        prop_assert!(sparse_seq.trace.enabled());
    }

    /// With clock drift active the plan tier runs on the skew-group
    /// rosters, which must stay interchangeable with the forced scan.
    #[test]
    fn drifted_run_matches_dense_scan(
        scn in arb_scenario(),
        drift in 0.001f64..0.4,
        seed in 0u64..300,
        slots in 50u64..300,
    ) {
        let plan = FaultPlan::none().with_drift(drift);
        let pattern = TrafficPattern::PoissonUnicast { rate: 0.1 };
        let (path, via_run, via_dense) = both_reports(&scn, &pattern, seed, &plan, None, slots);
        prop_assert_eq!(path, SimPath::Skew);
        prop_assert_eq!(via_run, via_dense);
    }

    /// Skew groups against the per-node scan on networks of one to three
    /// mask words (n = 1, 63, 64, 65, 130), where a group's members span
    /// word boundaries. Drift up to 0.4 changes skews almost every slot,
    /// so the groups are rebuilt nearly every slot; drift near 1 puts
    /// lagging clocks on perceived slot 0 (no accrued skew can go below
    /// it; the `roster` unit tests cover the saturation itself). An L = 1
    /// frame maps every group onto one frame slot. Crash, sync-miss and
    /// capture each run on and off; capture positions spanning word
    /// boundaries exercise its masked neighbour walk.
    #[test]
    fn skew_roster_matches_dense_on_multiword_networks(
        (n, frame, density, shape_seed) in (
            prop_oneof![Just(1usize), Just(63usize), Just(64usize), Just(65usize), Just(130usize)],
            prop_oneof![Just(1usize), 2usize..40],
            0.02f64..0.5,
            0u64..1000,
        ),
        drift in prop_oneof![0.0005f64..0.05, 0.05f64..0.4, 0.9f64..0.999],
        (crash, miss) in (
            prop::option::of((0.001f64..0.05, 0.02f64..0.5)),
            prop_oneof![Just(0.0f64), 0.01f64..0.3],
        ),
        pattern in arb_pattern(),
        capture_ratio in prop::option::of(prop_oneof![Just(1.0f64), 1.0f64..3.0]),
        seed in 0u64..300,
        slots in 50u64..250,
    ) {
        let mac = random_schedule_mac(n, frame, density, shape_seed);
        let mut rng = SmallRng::seed_from_u64(shape_seed ^ 0x70B0);
        let topo = Topology::random_gnp_capped(n, 0.1, 4, &mut rng);
        let mut faults = FaultPlan::none().with_drift(drift);
        if let Some((c, r)) = crash {
            faults = faults.with_crash(CrashModel::new(c, r));
        }
        let builder = || {
            SimulatorBuilder::new(topo.clone(), pattern)
                .seed(seed)
                .faults(faults)
                .miss_probability(miss)
                .trace_capacity(64)
        };
        let capture = capture_ratio
            .map(|ratio| (random_positions(n, shape_seed), CaptureModel { ratio }));
        let mut via_run = build(builder(), &capture);
        prop_assert_eq!(via_run.run(&mac, slots), SimPath::Skew);
        let mut via_dense = build(builder(), &capture);
        via_dense.run_on(SimPath::Scan, &mac, slots);
        prop_assert_eq!(via_run.report(), via_dense.report());
    }

    /// Source switches on one simulator: a scan segment followed by a
    /// plan segment (and the reverse) must equal one uninterrupted run —
    /// the per-slot scratch (`transmitting`/`listening` flags, rosters,
    /// word mask, queue indices) survives the handoff in both directions.
    #[test]
    fn chunked_mode_transitions_match_single_run(
        scn in arb_scenario(),
        plan in arb_driftless_fault_plan(),
        seed in 0u64..300,
        first in 20u64..150,
        second in 20u64..150,
    ) {
        let pattern = TrafficPattern::PoissonUnicast { rate: 0.1 };
        let mut whole = fresh(&scn, &pattern, seed, &plan, None);
        whole.run_on(SimPath::Scan, &scn.mac, first + second);
        let whole = whole.report();

        let mut dense_then_sparse = fresh(&scn, &pattern, seed, &plan, None);
        dense_then_sparse.run_on(SimPath::Scan, &scn.mac, first);
        prop_assert_eq!(dense_then_sparse.run(&scn.mac, second), SimPath::Plan);
        prop_assert_eq!(&dense_then_sparse.report(), &whole);

        let mut sparse_then_dense = fresh(&scn, &pattern, seed, &plan, None);
        prop_assert_eq!(sparse_then_dense.run(&scn.mac, first), SimPath::Plan);
        sparse_then_dense.run_on(SimPath::Scan, &scn.mac, second);
        prop_assert_eq!(&sparse_then_dense.report(), &whole);
    }
}
