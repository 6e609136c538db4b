//! The event-driven time-skipping engine must be bit-identical to the
//! slot-by-slot pipelines.
//!
//! [`Simulator::run_on`] with [`SimPath::Skip`] runs eligible
//! configurations (frame-periodic MAC, zero drift, zero sync-miss, no
//! crash plan, saturated/CBR traffic) through the slot calendar;
//! [`SimPath::Plan`] and [`SimPath::Scan`] force the reference paths.
//! The properties here pin all three to the same *full* [`SimReport`] —
//! every counter, the per-node energy ledger `f64`s, the latency histogram
//! bit patterns, and the retained event trace — across random topologies
//! and schedules, the paper's collision rule and physical capture over
//! random node positions, per-link loss and bursty (Gilbert-Elliott) fault
//! plans, ARQ bounds, battery depletion, mid-run path transitions, and 1-
//! vs 4-thread rayon pools; and, through the path each run returns, that the
//! calendarable configurations really run the calendar and that every
//! configuration it cannot represent (drift, sync-miss, crash plans,
//! Poisson-style traffic) falls back to the path below it.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPool;
use std::sync::OnceLock;
use ttdc_core::Schedule;
use ttdc_sim::{
    CaptureModel, CrashModel, EnergyModel, FaultPlan, GilbertElliott, MacProtocol, ScheduleMac,
    SimPath, SimReport, Simulator, SimulatorBuilder, Topology, TrafficPattern,
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

/// A randomized fault plan over the axes the skip engine *admits*:
/// per-link loss and Gilbert-Elliott bursts (their lazily-advanced chains
/// only draw on actual receptions) and the ARQ retry bound. Drift, crash
/// plans, and sync-miss are fallback triggers with their own properties.
fn arb_skippable_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        prop_oneof![Just(0.0f64), 0.0f64..0.9],
        prop::option::of((0.001f64..0.5, 0.001f64..0.5)),
        prop::option::of(0u32..6),
    )
        .prop_map(|(per, burst, max_retries)| {
            let mut plan = FaultPlan::none().with_per(per);
            if let Some(m) = max_retries {
                plan = plan.with_max_retries(m);
            }
            if let Some((gb, bg)) = burst {
                plan = plan.with_burst(GilbertElliott::bursty(gb, bg));
            }
            plan
        })
}

/// A topology, a periodic schedule MAC over it, and optional physical
/// capture.
#[derive(Clone, Debug)]
struct Scenario {
    topo: Topology,
    mac: ScheduleMac,
    capture: Option<(Vec<(f64, f64)>, CaptureModel)>,
}

/// Physical capture over `n` random positions in the unit square, with
/// ratios from the degenerate 1 (the nearer of two senders always wins)
/// upward; `None` keeps the paper's collision rule.
fn arb_capture(n: usize) -> impl Strategy<Value = Option<(Vec<(f64, f64)>, CaptureModel)>> {
    prop::option::of((0u64..1000, prop_oneof![Just(1.0f64), 1.0f64..3.0])).prop_map(
        move |capture| {
            capture.map(|(seed, ratio)| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let positions = (0..n)
                    .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
                    .collect();
                (positions, CaptureModel { ratio })
            })
        },
    )
}

/// A random degree-capped topology with a random periodic schedule MAC —
/// including duty-cycled slots where most (or all) nodes sleep, and
/// frames with no transmit opportunities at all (an empty calendar) —
/// under the paper's collision rule or physical capture.
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

/// The traffic patterns the calendar can represent: saturated broadcast
/// and CBR, with periods from every-slot storms to long quiet stretches
/// (where nearly the whole run is skipped).
fn arb_skippable_pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::SaturatedBroadcast),
        (1u64..12).prop_map(|period| TrafficPattern::CbrUnicast { period }),
        (50u64..2000).prop_map(|period| TrafficPattern::CbrUnicast { period }),
    ]
}

fn fresh(
    scn: &Scenario,
    pattern: &TrafficPattern,
    seed: u64,
    faults: &FaultPlan,
    battery: Option<f64>,
    miss: f64,
) -> Simulator {
    builder(scn, pattern, seed, faults, battery, miss)
        .build()
        .expect("valid scenario")
}

fn builder(
    scn: &Scenario,
    pattern: &TrafficPattern,
    seed: u64,
    faults: &FaultPlan,
    battery: Option<f64>,
    miss: f64,
) -> SimulatorBuilder {
    let mut builder = SimulatorBuilder::new(scn.topo.clone(), *pattern)
        .seed(seed)
        .faults(*faults)
        .trace_capacity(64)
        .miss_probability(miss);
    if let Some(capacity) = battery {
        builder = builder.battery_capacity_mj(capacity);
    }
    match &scn.capture {
        Some((positions, model)) => builder.capture(positions.clone(), *model),
        None => builder,
    }
}

/// Energy models for the long quiet spans, whose debt settles thousands
/// of slots at once: the default, a zero sleep cost, and two models whose
/// slot costs round ties to even in a binade the ledgers reach within the
/// run (`x ∈ [2^14, 2^15)`, where a listen of `2^-39` mJ is half an ulp;
/// `x ∈ [2^12, 2^13)`, where a sleep of `3·2^-41` mJ is one and a half).
fn arb_energy_model() -> impl Strategy<Value = EnergyModel> {
    let tie_prone = |tx_mw: f64, rx_mw: f64, sleep_mw: f64| EnergyModel {
        tx_mw,
        rx_mw,
        sleep_mw,
        slot_seconds: 1.0,
    };
    prop_oneof![
        Just(EnergyModel::default()),
        Just(EnergyModel {
            sleep_mw: 0.0,
            ..EnergyModel::default()
        }),
        Just(tie_prone(2.0, (-39f64).exp2(), 1.0)),
        Just(tie_prone(4.0, 1.0, 3.0 * (-41f64).exp2())),
    ]
}

/// The per-slot reference: a one-slot scan call per slot. A one-slot call
/// settles every node's energy at its end, so this is the ledger a pass
/// charging all `n` nodes every slot would keep.
fn stepped(mut sim: Simulator, mac: &dyn MacProtocol, slots: u64) -> SimReport {
    for _ in 0..slots {
        sim.run_on(SimPath::Scan, mac, 1);
    }
    sim.report()
}

/// Forced skip, plan and scan runs on identical inputs; every run
/// asserts it took the path it asked for.
fn all_three_reports(
    scn: &Scenario,
    pattern: &TrafficPattern,
    seed: u64,
    faults: &FaultPlan,
    battery: Option<f64>,
    slots: u64,
) -> (SimReport, SimReport, SimReport) {
    let mac = &scn.mac;
    let [skip, sparse, dense] = [SimPath::Skip, SimPath::Plan, SimPath::Scan].map(|path| {
        let mut sim = fresh(scn, pattern, seed, faults, battery, 0.0);
        assert_eq!(sim.run_on(path, mac, slots), path);
        sim.report()
    });
    (skip, sparse, dense)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heart of the contract: across schedules, both channel rules,
    /// loss/burst fault plans, battery caps, and both traffic calendars,
    /// the skipping engine reproduces the sparse and dense reports bit for bit, on a
    /// 1-thread and a 4-thread rayon pool alike. Battery caps low enough
    /// to kill nodes mid-run exercise the epoch loop's sparse windows and
    /// death re-sync.
    #[test]
    fn skipping_is_bit_identical_to_sparse_and_dense(
        scn in arb_scenario(),
        pattern in arb_skippable_pattern(),
        plan in arb_skippable_fault_plan(),
        battery in prop::option::of(2.0f64..60.0),
        seed in 0u64..500,
        slots in 50u64..400,
    ) {
        let (skip_seq, sparse_seq, dense_seq) = sequential_pool()
            .install(|| all_three_reports(&scn, &pattern, seed, &plan, battery, slots));
        prop_assert_eq!(&skip_seq, &sparse_seq);
        prop_assert_eq!(&skip_seq, &dense_seq);
        let (skip_par, sparse_par, _) = parallel_pool()
            .install(|| all_three_reports(&scn, &pattern, seed, &plan, battery, slots));
        prop_assert_eq!(&skip_par, &sparse_par);
        // Pool size must not matter either.
        prop_assert_eq!(&skip_seq, &skip_par);
        // The trace really was compared, not disabled on both sides.
        prop_assert!(skip_seq.trace.enabled());
    }

    /// Long quiet spans: CBR periods of 10³–10⁵ slots over runs of many
    /// frames, so nearly every slot is skipped and each node's debt holds
    /// thousands of idle listens when it settles — under the default, a
    /// zero-sleep and two tie-prone energy models, with battery caps that
    /// kill nodes mid-run. Skip, plan and scan must give the same full
    /// report.
    #[test]
    fn long_quiet_spans_settle_idle_listening_exactly(
        scn in arb_scenario(),
        period in 1_000u64..100_000,
        energy in arb_energy_model(),
        battery in prop::option::of(0.05f64..1.0),
        seed in 0u64..500,
        slots in 2_000u64..40_000,
    ) {
        let pattern = TrafficPattern::CbrUnicast { period };
        // A cap between an all-sleep and an all-listen run's draw (mJ):
        // nodes that listen or transmit more than that share die mid-run.
        let battery = battery.map(|f| {
            let per_slot = |mw: f64| mw * energy.slot_seconds * slots as f64;
            f * (per_slot(energy.rx_mw) - per_slot(energy.sleep_mw)) + per_slot(energy.sleep_mw)
        });
        let faults = FaultPlan::none();
        let [skip, plan, scan] = [SimPath::Skip, SimPath::Plan, SimPath::Scan].map(|path| {
            let mut sim = builder(&scn, &pattern, seed, &faults, battery, 0.0)
                .energy(energy)
                .build()
                .expect("valid scenario");
            assert_eq!(sim.run_on(path, &scn.mac, slots), path);
            sim.report()
        });
        prop_assert_eq!(&skip, &plan);
        prop_assert_eq!(&skip, &scan);
    }

    /// Mid-run engine transitions on one simulator: skip → plan → skip
    /// and plan → skip → scan chunks must equal one uninterrupted
    /// scan run — queues, ARQ retry counts, fault chains, the energy
    /// ledger, and the calendar re-sync all survive the handoffs — and
    /// so must a run stepped one slot per call.
    #[test]
    fn chunked_mode_transitions_match_single_run(
        scn in arb_scenario(),
        pattern in arb_skippable_pattern(),
        plan in arb_skippable_fault_plan(),
        battery in prop::option::of(2.0f64..60.0),
        seed in 0u64..300,
        first in 20u64..150,
        second in 20u64..150,
        third in 20u64..150,
    ) {
        let mut whole = fresh(&scn, &pattern, seed, &plan, battery, 0.0);
        whole.run_on(SimPath::Scan, &scn.mac, first + second + third);
        let whole = whole.report();
        let per_slot = stepped(
            fresh(&scn, &pattern, seed, &plan, battery, 0.0),
            &scn.mac,
            first + second + third,
        );
        prop_assert_eq!(&per_slot, &whole);

        let mut a = fresh(&scn, &pattern, seed, &plan, battery, 0.0);
        prop_assert_eq!(a.run_on(SimPath::Skip, &scn.mac, first), SimPath::Skip);
        prop_assert_eq!(a.run_on(SimPath::Plan, &scn.mac, second), SimPath::Plan);
        prop_assert_eq!(a.run_on(SimPath::Skip, &scn.mac, third), SimPath::Skip);
        prop_assert_eq!(&a.report(), &whole);

        let mut b = fresh(&scn, &pattern, seed, &plan, battery, 0.0);
        prop_assert_eq!(b.run_on(SimPath::Plan, &scn.mac, first), SimPath::Plan);
        prop_assert_eq!(b.run_on(SimPath::Skip, &scn.mac, second), SimPath::Skip);
        b.run_on(SimPath::Scan, &scn.mac, third);
        prop_assert_eq!(&b.report(), &whole);
    }

    /// Every configuration whose randomness the calendar cannot represent
    /// must fall back transparently: a forced skip run (and the `run()`
    /// dispatcher) takes skew groups under clock drift and the slot plan
    /// under sync-miss, crash plans and Poisson-style traffic, and still
    /// equals the forced scan, and the forced scan a run stepped one slot
    /// per call — with battery caps low enough to kill nodes on those
    /// stepped paths.
    #[test]
    fn non_calendar_randomness_falls_back(
        scn in arb_scenario(),
        which in 0usize..4,
        knob in 0.01f64..0.4,
        battery in prop::option::of(2.0f64..60.0),
        seed in 0u64..300,
        slots in 50u64..300,
    ) {
        let mut plan = FaultPlan::none();
        let mut pattern = TrafficPattern::CbrUnicast { period: 5 };
        let mut miss = 0.0;
        match which {
            0 => plan = plan.with_drift(knob),
            1 => miss = knob,
            2 => plan = plan.with_crash(CrashModel::new(knob * 0.1, 0.2)),
            _ => pattern = TrafficPattern::PoissonUnicast { rate: knob },
        }
        let fallback = if which == 0 { SimPath::Skew } else { SimPath::Plan };
        let mut skip = fresh(&scn, &pattern, seed, &plan, battery, miss);
        prop_assert_eq!(skip.run_on(SimPath::Skip, &scn.mac, slots), fallback);
        let mut via_run = fresh(&scn, &pattern, seed, &plan, battery, miss);
        prop_assert_eq!(via_run.run(&scn.mac, slots), fallback);
        let mut dense = fresh(&scn, &pattern, seed, &plan, battery, miss);
        dense.run_on(SimPath::Scan, &scn.mac, slots);
        let per_slot = stepped(fresh(&scn, &pattern, seed, &plan, battery, miss), &scn.mac, slots);
        prop_assert_eq!(&dense.report(), &per_slot);
        prop_assert_eq!(&skip.report(), &per_slot);
        prop_assert_eq!(&via_run.report(), &per_slot);
    }
}
