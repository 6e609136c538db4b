//! Simulator scaling: the per-slot roster scan vs precomputed slot-plan
//! rosters vs skew-group rosters vs the event-driven time-skipping engine,
//! by network size.
//!
//! For each `n` the same duty-cycled scenario runs on `SimPath::Scan` —
//! the roster scan, asking the MAC about all `n` nodes every slot — and on
//! `SimPath::Plan`, which takes the slot's rosters from a precomputed
//! `SlotPlan` (the "scan" and "plan" columns of the record). Both feed the
//! same phases. Every run is forced onto its column's path through
//! `Simulator::run_on`, and the returned path is asserted, so a column
//! never times a path it does not name (under saturated broadcast at zero
//! drift, `Simulator::run` would take the skip calendar). The schedule
//! is a round-robin duty cycle with frame `L = n / 4`: slot `i` wakes
//! transmitter group `i` and listener group `(i + 1) mod L` (four nodes
//! each), so the awake roster is eight nodes per slot *regardless of
//! `n`* — the regime the plan source is built for, and the one
//! duty-cycled WSN schedules actually produce (most nodes asleep in most
//! slots).
//!
//! The two reports are asserted **equal in full** (every counter, per-node
//! energy, latency bits, trace) at every sweep point before any timing is
//! trusted; `results_identical` in the record notes that the assertion ran.
//! The headline claims pinned by `BENCH_sim_scale.json`:
//!
//! * plan-sourced per-slot cost tracks the awake roster (which the
//!   schedule caps, not the node count): a sleeping node is charged as
//!   sleep debt, settled when it wakes and once at the end of the call,
//!   versus the two MAC queries per node the scan pays every slot;
//! * plan-vs-scan speedup is at least 5× from `n = 256` up (asserted).
//!
//! The **drift family** runs the same scenario with per-node clock drift
//! (rate up to 10⁻³ slots per slot, so at most nine distinct whole-slot
//! skews over the run). No slot plan can serve it: `SimPath::Skew` builds
//! the rosters per skew group from the schedule's slot masks, and
//! `SimPath::Scan` forces the per-node scan. Reports are asserted
//! identical in full at every point, in smoke runs too.
//!
//! The **low-traffic family** measures the time-skipping engine
//! (`SimPath::Skip`) against forced plan-roster stepping
//! (`SimPath::Plan`, the "plan" column) on the
//! workload it exists for: a fully duty-cycled schedule (frame `L = n`,
//! one transmitter and one listener per slot over a perfect-matching
//! topology) under CBR traffic with per-node arrival ~10⁻⁴/slot at
//! `n = 64`, scaled so network load stays constant. Almost every slot is
//! boring — no backlog, no generation — and the calendar jumps straight
//! over them without touching any node (scheduled idle listening stays on
//! each node's energy debt until it is next stepped). Reports are asserted identical in full at every point;
//! skip-vs-plan speedup is at least 10× at `n = 1024` (asserted), and a
//! separate 10⁸-slot horizon row pins "a hundred million slots in
//! seconds".

use crate::measure;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::time::Instant;
use ttdc_core::Schedule;
use ttdc_sim::{
    FaultPlan, MacProtocol, ScheduleMac, SimPath, SimReport, SimulatorBuilder, Topology,
    TrafficPattern,
};
use ttdc_util::BitSet;

/// Round-robin duty-cycled MAC over `n` nodes: frame `L = n / 4`; in slot
/// `i` group `i` (`{v : v mod L == i}`, four nodes) transmits and group
/// `(i + 1) mod L` listens. Awake nodes per slot is eight, flat in `n`.
fn duty_cycled_mac(n: usize) -> ScheduleMac {
    let frame = n / 4;
    assert!(frame >= 2, "need at least two disjoint groups");
    let group = |g: usize| BitSet::from_iter(n, (0..n).filter(|v| v % frame == g));
    let t = (0..frame).map(group).collect();
    let r = (0..frame).map(|i| group((i + 1) % frame)).collect();
    ScheduleMac::new("round-robin-dc", Schedule::new(n, t, r))
}

/// Maximum per-slot clock drift rate of the drift family.
const DRIFT: f64 = 1e-3;

/// Runs `point` on `path` (asserting it ran there) and returns the report.
fn report(
    point: &(Topology, ScheduleMac),
    faults: FaultPlan,
    slots: u64,
    path: SimPath,
) -> SimReport {
    let (topo, mac) = point;
    let mut sim = SimulatorBuilder::new(topo.clone(), TrafficPattern::SaturatedBroadcast)
        .seed(11)
        .faults(faults)
        .build()
        .expect("valid configuration");
    assert_eq!(sim.run_on(path, mac, slots), path);
    sim.report()
}

/// Mean awake (scheduled transmitter or listener) nodes per frame slot —
/// the quantity the plan source's cost actually tracks.
fn mean_awake_per_slot(mac: &dyn MacProtocol, n: usize) -> f64 {
    let frame = mac.frame_length() as u64;
    let awake: usize = (0..frame)
        .map(|s| {
            (0..n)
                .filter(|&v| mac.may_transmit(v, s) || mac.may_receive(v, s))
                .count()
        })
        .sum();
    awake as f64 / frame as f64
}

/// The duty-cycled scenario of `run_point` and `run_drift_point`.
fn duty_cycled_point(n: usize) -> (Topology, ScheduleMac) {
    let mut rng = SmallRng::seed_from_u64(3);
    let topo = Topology::random_gnp_capped(n, 0.4, 4, &mut rng);
    (topo, duty_cycled_mac(n))
}

/// Times the `reference` and `fast` runs of one scenario, asserts their
/// reports are identical in full, and returns `extra` plus the fields every
/// row shares: `<name>_ms` and `<name>_us_per_slot` for both runs and
/// `speedup_<fast>_vs_<reference>`.
fn compare(
    slots: u64,
    iters: usize,
    extra: Value,
    (ref_name, reference): (&str, &dyn Fn() -> SimReport),
    (fast_name, fast): (&str, &dyn Fn() -> SimReport),
) -> Value {
    let (ref_t, ref_report) = measure(iters, reference);
    let (fast_t, fast_report) = measure(iters, fast);
    assert_eq!(
        fast_report, ref_report,
        "{extra:?}: {fast_name} and {ref_name} reports must be identical"
    );
    let speedup = ref_t.median_ms / fast_t.median_ms;
    eprintln!(
        "  {ref_name} {:.2} ms, {fast_name} {:.2} ms over {slots} slots \
         ({speedup:.2}x, identical reports)",
        ref_t.median_ms, fast_t.median_ms
    );
    let Value::Object(mut row) = extra else {
        panic!("a row's extra fields are a JSON object");
    };
    for (name, t) in [(ref_name, ref_t), (fast_name, fast_t)] {
        row.insert(format!("{name}_ms"), t.json());
        let us_per_slot = t.median_ms * 1e3 / slots as f64;
        row.insert(format!("{name}_us_per_slot"), Value::from(us_per_slot));
    }
    row.insert(format!("speedup_{fast_name}_vs_{ref_name}"), speedup.into());
    row.insert("slots".to_string(), slots.into());
    row.insert("iterations".to_string(), iters.into());
    row.insert("results_identical".to_string(), true.into());
    Value::Object(row)
}

/// The duty-cycled scenario: the forced roster scan against forced
/// slot-plan rosters.
fn run_point(n: usize, slots: u64, iters: usize) -> Value {
    let point = duty_cycled_point(n);
    let mac = &point.1;
    let awake = mean_awake_per_slot(mac, n);
    eprintln!(
        "point n={n}: frame={} mean_awake/slot={awake:.1}",
        mac.frame_length()
    );
    let none = FaultPlan::none();
    compare(
        slots,
        iters,
        json!({"n": n, "frame_length": mac.frame_length(), "mean_awake_per_slot": awake}),
        ("scan", &|| report(&point, none, slots, SimPath::Scan)),
        ("plan", &|| report(&point, none, slots, SimPath::Plan)),
    )
}

/// The duty-cycled scenario under clock drift: the forced per-node scan
/// against the skew-group rosters.
fn run_drift_point(n: usize, slots: u64, iters: usize) -> Value {
    let point = duty_cycled_point(n);
    let mac = &point.1;
    let drift = FaultPlan::none().with_drift(DRIFT);
    eprintln!(
        "drift point n={n}: frame={} drift={DRIFT}",
        mac.frame_length()
    );
    compare(
        slots,
        iters,
        json!({"n": n, "frame_length": mac.frame_length(), "clock_drift": DRIFT}),
        ("scan", &|| report(&point, drift, slots, SimPath::Scan)),
        ("skew", &|| report(&point, drift, slots, SimPath::Skew)),
    )
}

/// Perfect-matching topology: `n/2` disjoint pairs (`v` — `v ^ 1`).
/// Degree 1 everywhere, so CBR unicast destinations are deterministic and
/// slot `i`'s lone transmitter can never collide at its partner.
fn matching_topo(n: usize) -> Topology {
    assert!(n.is_multiple_of(2), "matching needs an even n");
    let mut topo = Topology::empty(n);
    for v in (0..n).step_by(2) {
        topo.add_edge(v, v + 1);
    }
    topo
}

/// Fully duty-cycled matching MAC: frame `L = n`; in slot `i` only node
/// `i` transmits and only its partner `i ^ 1` listens. One transmitter,
/// one listener, `n - 2` sleepers — the sparsest schedule the simulator
/// can express short of an empty frame.
fn matching_mac(n: usize) -> ScheduleMac {
    let t = (0..n).map(|i| BitSet::from_iter(n, [i])).collect();
    let r = (0..n).map(|i| BitSet::from_iter(n, [i ^ 1])).collect();
    ScheduleMac::new("matching-dc", Schedule::new(n, t, r))
}

/// CBR period giving per-node arrival `~1e-4`/slot at `n = 64`, scaled
/// linearly so the *network-wide* arrival rate stays flat as `n` grows.
fn low_traffic_period(n: usize) -> u64 {
    10_000 * n as u64 / 64
}

fn low_traffic_report(n: usize, slots: u64, path: SimPath) -> SimReport {
    let topo = matching_topo(n);
    let mac = matching_mac(n);
    let mut sim = SimulatorBuilder::new(
        topo,
        TrafficPattern::CbrUnicast {
            period: low_traffic_period(n),
        },
    )
    .seed(11)
    .build()
    .expect("valid configuration");
    assert_eq!(sim.run_on(path, &mac, slots), path);
    sim.report()
}

fn run_low_traffic_point(n: usize, slots: u64, iters: usize) -> Value {
    let period = low_traffic_period(n);
    eprintln!(
        "low-traffic point n={n}: frame={n} period={period} \
         (per-node arrival {:.1e}/slot)",
        1.0 / period as f64
    );
    compare(
        slots,
        iters,
        json!({"n": n, "frame_length": n, "cbr_period": period}),
        ("plan", &|| low_traffic_report(n, slots, SimPath::Plan)),
        ("skip", &|| low_traffic_report(n, slots, SimPath::Skip)),
    )
}

/// Asserts the row field `speedup` is at least `floor` from `n = from_n` up.
fn assert_floor(rows: &[Value], speedup: &str, from_n: u64, floor: f64) {
    for row in rows {
        let n = row.get("n").and_then(Value::as_u64).expect("rows carry n");
        let x = row
            .get(speedup)
            .and_then(Value::as_f64)
            .expect("rows carry their speedup");
        assert!(
            n < from_n || x >= floor,
            "n={n}: {speedup} {x:.2}x below the {floor}x floor"
        );
    }
}

/// One skip-only timed run at a horizon far beyond what the slot-by-slot
/// paths can cover in a benchmark: pins "10⁸ slots in seconds" in the
/// record. (A cross-check against plan stepping at this length would take
/// hours; the identity rows plus the proptest suite carry that guarantee.)
fn run_horizon_row(n: usize, slots: u64) -> Value {
    eprintln!("horizon point n={n}: {slots} slots, skip engine only");
    let t0 = Instant::now();
    let report = low_traffic_report(n, slots, SimPath::Skip);
    let secs = t0.elapsed().as_secs_f64();
    let delivered = report.delivered;
    eprintln!(
        "  {secs:.2} s wall ({:.1}M slots/s), {delivered} packets delivered",
        slots as f64 / secs / 1e6
    );
    json!({
        "n": n,
        "frame_length": n,
        "cbr_period": low_traffic_period(n),
        "slots": slots,
        "skip_wall_s": secs,
        "slots_per_sec": slots as f64 / secs,
        "packets_delivered": delivered,
    })
}

/// The `sim_scale` family: the scan/plan, drift and low-traffic rows at
/// every size, then (full runs only) the speedup floors and the horizon row.
pub fn run(smoke: bool) -> Value {
    let (sizes, slots, iters): (&[usize], u64, usize) = if smoke {
        (&[64, 256], 800, 1)
    } else {
        (&[64, 256, 1024], 4_000, 5)
    };
    let low_slots = if smoke { 50_000 } else { 1_000_000 };

    let rows: Vec<Value> = sizes.iter().map(|&n| run_point(n, slots, iters)).collect();
    let drift_rows: Vec<Value> = sizes
        .iter()
        .map(|&n| run_drift_point(n, slots, iters))
        .collect();
    let low_rows: Vec<Value> = sizes
        .iter()
        .map(|&n| run_low_traffic_point(n, low_slots, iters))
        .collect();
    let horizon = if smoke {
        Value::Null
    } else {
        assert_floor(&rows, "speedup_plan_vs_scan", 256, 5.0);
        assert_floor(&low_rows, "speedup_skip_vs_plan", 1024, 10.0);
        run_horizon_row(1024, 100_000_000)
    };

    json!({
        "description": "roster-source simulation scaling: per-slot MAC scan over all n nodes (scan, SimPath::Scan) vs precomputed slot-plan rosters (plan, SimPath::Plan), each forced through Simulator::run_on, both feeding the same roster-driven phases, by network size (round-robin duty-cycled schedule with frame n/4 and 8 awake nodes per slot, saturated broadcast, single thread)",
        "note": "scan per-slot cost grows with n (two MAC queries per node per slot to build the rosters); plan phase work tracks mean_awake_per_slot, which the duty-cycled schedule caps at 8, and sleeping nodes are charged as sleep debt, settled when they next wake and once per call, so no per-slot work visits the sleepers; what still grows with n is memory: the scattered awake nodes' ledger entries and the per-call settle. results_identical means the full SimReport (counters, per-node energy, latency bits, trace) matched between the two sources at that point.",
        "rows": rows,
        "drift_note": "the same duty-cycled scenario with per-node clock drift (rates uniform in [-1e-3, 1e-3] slots per slot, at most nine distinct whole-slot skews over the run): the forced per-node scan (SimPath::Scan, two MAC queries per node per slot) vs the forced skew-group rosters (SimPath::Skew, one slot-mask read per distinct perceived frame slot, cut to each group's members word by word). results_identical is the same full-SimReport assertion, run at every point.",
        "drift_rows": drift_rows,
        "low_traffic_note": "event-driven time-skipping (SimPath::Skip) vs forced plan-roster stepping (SimPath::Plan) on a fully duty-cycled matching schedule (frame L = n, 1 tx + 1 rx per slot) under CBR unicast with per-node arrival ~1e-4/slot at n=64 (period scaled with n so network load is flat). Plan stepping runs the full phase pipeline on every slot (its CBR pass walks only the slot's generator residue class and its energy pass only the awake roster); the skip engine's calendar jumps straight between generation and backlog slots and does no work in between: each node's idle listening and sleep stay on its energy debt, settled exactly in one call when the node is next stepped and at the end of the run. results_identical is the same full-SimReport assertion as above, run at every point.",
        "low_traffic_rows": low_rows,
        "horizon_row": horizon,
    })
}
