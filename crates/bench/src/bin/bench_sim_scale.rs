//! Simulator scaling: the per-slot roster scan vs precomputed slot-plan
//! rosters vs skew-group rosters vs the event-driven time-skipping engine,
//! by network size.
//!
//! For each `n` the same duty-cycled scenario runs through
//! `Simulator::run_dense` — which forces the roster scan, asking the MAC
//! about all `n` nodes every slot — and through `Simulator::run`, which
//! takes the slot's rosters from a precomputed `SlotPlan` (the "dense" and
//! "sparse" columns of the JSON). Both feed the same phases. The schedule
//! is a round-robin duty cycle with frame `L = n / 4`: slot `i` wakes
//! transmitter group `i` and listener group `(i + 1) mod L` (four nodes
//! each), so the awake roster is eight nodes per slot *regardless of
//! `n`* — the regime the plan source is built for, and the one
//! duty-cycled WSN schedules actually produce (most nodes asleep in most
//! slots).
//!
//! The two reports are asserted **equal in full** (every counter, per-node
//! energy, latency bits, trace) at every sweep point before any timing is
//! trusted; `results_identical` in the JSON records that the assertion ran.
//! The headline claims pinned by `BENCH_sim_scale.json`:
//!
//! * plan-sourced per-slot cost stays near-flat as `n` grows: the phase
//!   work tracks the awake roster (which the schedule caps, not the node
//!   count); all that remains per sleeping node is the memory-bound bulk
//!   sleep-charge sweep, a few ns per node versus the two MAC queries per
//!   node the scan pays every slot;
//! * plan-vs-scan ("sparse-vs-dense") speedup is at least 5× from
//!   `n = 256` up (asserted).
//!
//! The **drift family** runs the same scenario with per-node clock drift
//! (rate up to 10⁻³ slots per slot, so at most nine distinct whole-slot
//! skews over the run). No slot plan can serve it: `Simulator::run` builds
//! the rosters per skew group from the schedule's slot masks, and
//! `Simulator::run_dense` forces the per-node scan. Reports are asserted
//! identical in full at every point, in `--smoke` too.
//!
//! The **low-traffic family** measures the time-skipping engine
//! (`Simulator::run_skipping`) against forced plan-roster stepping
//! (`Simulator::run_sparse`, the "sparse" column) on the
//! workload it exists for: a fully duty-cycled schedule (frame `L = n`,
//! one transmitter and one listener per slot over a perfect-matching
//! topology) under CBR traffic with per-node arrival ~10⁻⁴/slot at
//! `n = 64`, scaled so network load stays constant. Almost every slot is
//! boring — no backlog, no generation — and the calendar jumps straight
//! over them. Reports are asserted identical in full at every point;
//! skip-vs-sparse speedup is at least 10× at `n = 1024` (asserted), and a
//! separate 10⁸-slot horizon row pins "a hundred million slots in
//! seconds".
//!
//! Run with `cargo run --release -p ttdc-bench --bin bench_sim_scale`.
//! Pass `--smoke` (CI) for a single timing iteration on the smaller
//! points: the identity assertions still run in full, only the timing
//! fidelity drops, and the JSON is not rewritten.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, to_string_pretty, Value};
use std::time::Instant;
use ttdc_core::Schedule;
use ttdc_sim::{
    FaultPlan, MacProtocol, ScheduleMac, SimConfig, SimReport, Simulator, Topology, TrafficPattern,
};
use ttdc_util::BitSet;

/// Median wall time of `iters` calls (after one warm-up), plus the result.
fn measure<D>(iters: usize, work: impl Fn() -> D) -> (f64, D) {
    let result = work();
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[iters / 2], result)
}

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

fn report(
    topo: &Topology,
    mac: &dyn MacProtocol,
    faults: FaultPlan,
    slots: u64,
    dense: bool,
) -> SimReport {
    let mut sim = Simulator::new(
        topo.clone(),
        TrafficPattern::SaturatedBroadcast,
        SimConfig {
            seed: 11,
            faults,
            ..Default::default()
        },
    );
    if dense {
        sim.run_dense(mac, slots);
    } else {
        sim.run(mac, slots);
    }
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

fn run_point(n: usize, slots: u64, iters: usize) -> (Value, f64) {
    let (topo, mac) = duty_cycled_point(n);
    eprintln!(
        "point n={n}: frame={} mean_awake/slot={:.1}",
        mac.frame_length(),
        mean_awake_per_slot(&mac, n)
    );

    let none = FaultPlan::none();
    let (dense_ms, dense_report) = measure(iters, || report(&topo, &mac, none, slots, true));
    let (sparse_ms, sparse_report) = measure(iters, || report(&topo, &mac, none, slots, false));
    assert_eq!(
        sparse_report, dense_report,
        "n={n}: plan-sourced and scan-sourced reports must be identical"
    );
    let speedup = dense_ms / sparse_ms;
    eprintln!(
        "  dense {dense_ms:.2} ms, sparse {sparse_ms:.2} ms over {slots} slots \
         ({speedup:.2}x, identical reports)"
    );
    let row = json!({
        "n": n,
        "frame_length": mac.frame_length(),
        "mean_awake_per_slot": mean_awake_per_slot(&mac, n),
        "slots": slots,
        "iterations": iters,
        "dense_median_ms": dense_ms,
        "sparse_median_ms": sparse_ms,
        "dense_us_per_slot": dense_ms * 1e3 / slots as f64,
        "sparse_us_per_slot": sparse_ms * 1e3 / slots as f64,
        "speedup_sparse_vs_dense": speedup,
        "results_identical": true,
    });
    (row, speedup)
}

/// The duty-cycled scenario under clock drift: the forced per-node scan
/// (`run_dense`) against the skew-group rosters `run` dispatches to.
fn run_drift_point(n: usize, slots: u64, iters: usize) -> Value {
    let (topo, mac) = duty_cycled_point(n);
    let drift = FaultPlan::none().with_drift(DRIFT);
    eprintln!(
        "drift point n={n}: frame={} drift={DRIFT}",
        mac.frame_length()
    );
    let (scan_ms, scan_report) = measure(iters, || report(&topo, &mac, drift, slots, true));
    let (skew_ms, skew_report) = measure(iters, || report(&topo, &mac, drift, slots, false));
    assert_eq!(
        skew_report, scan_report,
        "n={n}: skew-group and scan-sourced reports must be identical under drift"
    );
    let speedup = scan_ms / skew_ms;
    eprintln!(
        "  scan {scan_ms:.2} ms, skew groups {skew_ms:.2} ms over {slots} slots \
         ({speedup:.2}x, identical reports)"
    );
    json!({
        "n": n,
        "frame_length": mac.frame_length(),
        "clock_drift": DRIFT,
        "slots": slots,
        "iterations": iters,
        "scan_median_ms": scan_ms,
        "skew_median_ms": skew_ms,
        "scan_us_per_slot": scan_ms * 1e3 / slots as f64,
        "skew_us_per_slot": skew_ms * 1e3 / slots as f64,
        "speedup_skew_vs_scan": speedup,
        "results_identical": true,
    })
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

fn low_traffic_report(n: usize, slots: u64, skip: bool) -> SimReport {
    let topo = matching_topo(n);
    let mac = matching_mac(n);
    let mut sim = Simulator::new(
        topo,
        TrafficPattern::CbrUnicast {
            period: low_traffic_period(n),
        },
        SimConfig {
            seed: 11,
            ..Default::default()
        },
    );
    if skip {
        sim.run_skipping(&mac, slots);
    } else {
        sim.run_sparse(&mac, slots);
    }
    sim.report()
}

fn run_low_traffic_point(n: usize, slots: u64, iters: usize) -> (Value, f64) {
    let period = low_traffic_period(n);
    eprintln!(
        "low-traffic point n={n}: frame={n} period={period} \
         (per-node arrival {:.1e}/slot)",
        1.0 / period as f64
    );
    let (sparse_ms, sparse_report) = measure(iters, || low_traffic_report(n, slots, false));
    let (skip_ms, skip_report) = measure(iters, || low_traffic_report(n, slots, true));
    assert_eq!(
        skip_report, sparse_report,
        "n={n}: skipping and sparse reports must be identical"
    );
    let speedup = sparse_ms / skip_ms;
    eprintln!(
        "  sparse {sparse_ms:.2} ms, skip {skip_ms:.2} ms over {slots} slots \
         ({speedup:.2}x, identical reports)"
    );
    let row = json!({
        "n": n,
        "frame_length": n,
        "cbr_period": period,
        "slots": slots,
        "iterations": iters,
        "sparse_median_ms": sparse_ms,
        "skip_median_ms": skip_ms,
        "sparse_us_per_slot": sparse_ms * 1e3 / slots as f64,
        "skip_us_per_slot": skip_ms * 1e3 / slots as f64,
        "speedup_skip_vs_sparse": speedup,
        "results_identical": true,
    });
    (row, speedup)
}

/// One skip-only timed run at a horizon far beyond what the slot-by-slot
/// paths can cover in a benchmark: pins "10⁸ slots in seconds" in the
/// JSON. (A cross-check against sparse at this length would take hours;
/// the identity rows plus the proptest suite carry that guarantee.)
fn run_horizon_row(n: usize, slots: u64) -> Value {
    eprintln!("horizon point n={n}: {slots} slots, skip engine only");
    let t0 = Instant::now();
    let report = low_traffic_report(n, slots, true);
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, slots, iters): (&[usize], u64, usize) = if smoke {
        (&[64, 256], 800, 1)
    } else {
        (&[64, 256, 1024], 4_000, 5)
    };

    let (low_slots, horizon_slots) = if smoke {
        (50_000, None)
    } else {
        (1_000_000, Some(100_000_000u64))
    };

    let points: Vec<(usize, Value, f64)> = sizes
        .iter()
        .map(|&n| {
            let (row, speedup) = run_point(n, slots, iters);
            (n, row, speedup)
        })
        .collect();
    let drift_rows: Vec<Value> = sizes
        .iter()
        .map(|&n| run_drift_point(n, slots, iters))
        .collect();
    let low_points: Vec<(usize, Value, f64)> = sizes
        .iter()
        .map(|&n| {
            let (row, speedup) = run_low_traffic_point(n, low_slots, iters);
            (n, row, speedup)
        })
        .collect();

    if smoke {
        eprintln!("smoke mode: identity checks passed on every point; JSON not rewritten");
        return;
    }

    for &(n, _, speedup) in &points {
        assert!(
            n < 256 || speedup >= 5.0,
            "n={n}: sparse speedup {speedup:.2}x below the 5x floor"
        );
    }
    for &(n, _, speedup) in &low_points {
        assert!(
            n < 1024 || speedup >= 10.0,
            "n={n}: skip speedup {speedup:.2}x below the 10x floor"
        );
    }
    let rows: Vec<Value> = points.into_iter().map(|(_, row, _)| row).collect();
    let low_rows: Vec<Value> = low_points.into_iter().map(|(_, row, _)| row).collect();
    let horizon = horizon_slots.map(|h| run_horizon_row(1024, h));

    let doc = json!({
        "description": "roster-source simulation scaling: per-slot MAC scan over all n nodes (dense, Simulator::run_dense) vs precomputed slot-plan rosters (sparse, Simulator::run), both feeding the same roster-driven phases, by network size (round-robin duty-cycled schedule with frame n/4 and 8 awake nodes per slot, saturated broadcast, single thread)",
        "note": "dense per-slot cost grows with n (two MAC queries per node per slot to build the rosters); sparse phase work tracks mean_awake_per_slot, which the duty-cycled schedule caps at 8, leaving only the memory-bound bulk sleep-charge sweep (a few ns per sleeping node) to grow with n. results_identical means the full SimReport (counters, per-node energy, latency bits, trace) matched between the two sources at that point.",
        "rows": rows,
        "drift_note": "the same duty-cycled scenario with per-node clock drift (rates uniform in [-1e-3, 1e-3] slots per slot, at most nine distinct whole-slot skews over the run): the forced per-node scan (Simulator::run_dense, two MAC queries per node per slot) vs the skew-group rosters Simulator::run dispatches to (one slot-mask read per distinct perceived frame slot, cut to each group's members word by word). results_identical is the same full-SimReport assertion, run at every point.",
        "drift_rows": drift_rows,
        "low_traffic_note": "event-driven time-skipping vs forced sparse on a fully duty-cycled matching schedule (frame L = n, 1 tx + 1 rx per slot) under CBR unicast with per-node arrival ~1e-4/slot at n=64 (period scaled with n so network load is flat). Sparse pays the per-slot CBR gate over all n nodes; the skip engine's calendar jumps straight between generation and backlog slots, touching only the slot's lone listener in between. results_identical is the same full-SimReport assertion as above, run at every point.",
        "low_traffic_rows": low_rows,
        "horizon_row": horizon.unwrap_or(Value::Null),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_scale.json");
    let body = to_string_pretty(&doc).expect("serialization cannot fail");
    ttdc_util::write_atomic(std::path::Path::new(path), (body + "\n").as_bytes())
        .expect("write BENCH_sim_scale.json");
    eprintln!("wrote {path}");
}
