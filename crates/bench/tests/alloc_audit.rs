//! Steady-state allocation audit of the simulator's slot loop and the
//! synthesizer's search loop.
//!
//! The per-slot scratch (flags, queue indices, the success list, the
//! actual-transmitter rosters, the slot plan, the skew groups and the
//! per-slot scan buffers) lives in the `Simulator` and is reused, so once
//! queues and scratch have grown to their working capacity a run must not
//! touch the heap at all. Each case warms a simulator up, then counts this
//! thread's allocations over a further run and asserts there were none.
//! The cases cover every roster source: slot plans, skew groups, the
//! per-slot scan, and the time-skipping calendar.
//!
//! The offered loads are deliberately below each schedule's service rate:
//! at an unstable load the backlog — and so queue capacity and the latency
//! histogram's bucket range — grows without bound and no warm-up
//! suffices. Everything is seeded, so each case is deterministic.
//!
//! The search keeps its per-node state (gains, bans, dominance index, LP
//! buffers) in per-branch buffers, so a root branch allocates per run, not
//! per expanded node.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicUsize;
use ttdc_core::construct::PartitionStrategy;
use ttdc_core::synth::demands::{CandidateSpace, DemandSpace};
use ttdc_core::synth::search::{plan_root, search_root_branch, SearchOptions};
use ttdc_protocols::{RandomWakeupMac, TsmaMac, TtdcMac};
use ttdc_sim::{
    FaultPlan, GeometricNetwork, MacProtocol, SimulatorBuilder, Topology, TrafficPattern,
};

const N: usize = 50;
const D: usize = 4;

/// Counts this thread's heap allocations, so concurrently running tests
/// (each on its own thread) never see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn topo() -> Topology {
    let mut rng = SmallRng::seed_from_u64(3);
    GeometricNetwork::random(N, 0.25, D, &mut rng).topology()
}

fn ttdc() -> TtdcMac {
    TtdcMac::new(N, D, 2, 4, PartitionStrategy::RoundRobin)
}

/// Warms a Poisson-unicast simulator up for 60 000 slots, then asserts
/// that 5 000 more allocate nothing.
fn assert_zero_alloc_steady_state(mac: &dyn MacProtocol, rate: f64, faults: FaultPlan) {
    let mut sim = SimulatorBuilder::new(topo(), TrafficPattern::PoissonUnicast { rate })
        .faults(faults)
        .build()
        .unwrap();
    sim.run(mac, 60_000); // warm-up: queues, scratch, histogram reach capacity
    let before = ALLOC_COUNT.with(Cell::get);
    sim.run(mac, 5_000);
    let after = ALLOC_COUNT.with(Cell::get);
    assert_eq!(
        after - before,
        0,
        "steady-state sim step loop under {} allocated {} time(s)",
        mac.name(),
        after - before
    );
}

/// A frame-periodic schedule without drift: the slot-plan rosters.
#[test]
fn ttdc_poisson_steady_state_is_allocation_free() {
    assert_zero_alloc_steady_state(&ttdc(), 0.002, FaultPlan::default());
}

/// Clock drift moves a frame-periodic schedule onto the skew-group
/// rosters. The non-sleeping TSMA schedule keeps every non-transmitter
/// listening, so drifted clocks still rendezvous and the load is served.
#[test]
fn drifted_steady_state_is_allocation_free() {
    let faults = FaultPlan::default().with_drift(5e-4);
    assert_zero_alloc_steady_state(&TsmaMac::new(N, D), 0.002, faults);
}

/// At drift 0.2 some skew changes in almost every slot, so the steady
/// state re-examines the skew groups nearly every slot. By then the skews
/// span far more values than groups pay for, and the roster hands every
/// slot to the per-node scan; neither may allocate.
#[test]
fn high_drift_steady_state_is_allocation_free() {
    let faults = FaultPlan::default().with_drift(0.2);
    assert_zero_alloc_steady_state(&TsmaMac::new(N, D), 0.002, faults);
}

/// At drift 2·10⁻⁵ every skew stays within ±1 slot over the whole run,
/// so every slot, warm-up included, reads its rosters from skew groups.
#[test]
fn skew_group_steady_state_is_allocation_free() {
    let faults = FaultPlan::default().with_drift(2e-5);
    assert_zero_alloc_steady_state(&TsmaMac::new(N, D), 0.002, faults);
}

/// A non-periodic wake-up MAC runs on the per-slot roster scan too.
#[test]
fn nonperiodic_steady_state_is_allocation_free() {
    assert_zero_alloc_steady_state(&RandomWakeupMac::new(0.3, 17), 0.0005, FaultPlan::default());
}

/// Sparse CBR traffic on a frame-periodic schedule runs on the
/// time-skipping calendar, which fills the whole slot plan eagerly and
/// rebuilds its per-node transmit-slot summaries on every run. A reused
/// simulator must redo both in its retained buffers.
#[test]
fn ttdc_cbr_skip_path_is_allocation_free() {
    let mac = ttdc();
    let frames = 5 * mac.frame_length() as u64;
    let traffic = TrafficPattern::CbrUnicast { period: 50_000 };
    let mut sim = SimulatorBuilder::new(topo(), traffic).build().unwrap();
    sim.run(&mac, 200_000); // warm-up: four CBR periods
    let before = ALLOC_COUNT.with(Cell::get);
    sim.run(&mac, frames);
    let after = ALLOC_COUNT.with(Cell::get);
    assert_eq!(
        after - before,
        0,
        "steady-state skip-path run of {frames} slots allocated {} time(s)",
        after - before
    );
}

/// The (6,1,1,2) re-proof seeded at its optimum, 18, has one root branch
/// of 69,538 nodes. Its buffers grow to their working size within a few
/// nodes, so the whole branch stays far below one allocation per node.
#[test]
fn search_branch_allocates_per_run_not_per_node() {
    let space = DemandSpace::new(6, 1);
    let cands = CandidateSpace::new(&space, 1, 2);
    let opts = SearchOptions {
        incumbent_len: Some(18),
        ..SearchOptions::default()
    };
    let plan = plan_root(&space, &cands, &opts);
    assert_eq!(plan.branch_cands.len(), 1);
    let shared_len = AtomicUsize::new(plan.seed_len);
    let before = ALLOC_COUNT.with(Cell::get);
    let r = search_root_branch(&space, &cands, &opts, &plan, 0, &shared_len);
    let allocs = ALLOC_COUNT.with(Cell::get) - before;
    assert_eq!(r.nodes, 69_538);
    assert!(
        allocs < 1_000,
        "a {}-node search branch allocated {allocs} time(s)",
        r.nodes
    );
}
