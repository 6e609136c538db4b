//! The simulator workloads: `sim-poisson` and `sim-drift` (closed-loop
//! worker threads, one replication per op) and `sim-lowrate` (ops driven
//! through the campaign runner).

use crate::host::{self, mix};
use crate::stats::{self, Window};
use crate::trace::{self, Span, Tracer};
use crate::{Bench, Metric};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use ttdc_core::tsma::{self, SourceKind};
use ttdc_core::{construct, PartitionStrategy};
use ttdc_protocols::TtdcMac;
use ttdc_sim::campaign::{run_campaign, CampaignOptions, ResumeMode, MANIFEST_FILE};
use ttdc_sim::{
    CampaignSpec, CrashModel, FaultPlan, GeometricNetwork, MacProtocol, PointSpec, ScheduleMac,
    SimReport, SimulatorBuilder, SlotPlan, Topology, TrafficPattern,
};

/// Distinct op inputs (topology and simulator seed) per workload seed
/// on sim-poisson and sim-drift. Ops cycle through them, so every input
/// runs hundreds of times in a run: the same work each time, which lets
/// the run report each input's fastest repeat (see `Window::best_s`).
const INPUTS: u64 = 8;

/// Records `digest` as the output of the input `key`; an error when an
/// earlier op of the same input gave another output.
fn record_digest(
    digests: &mut BTreeMap<String, u64>,
    key: String,
    digest: u64,
) -> Result<(), String> {
    match digests.insert(key.clone(), digest) {
        Some(d) if d != digest => Err(format!(
            "{key}: output differs from an earlier op of the same input"
        )),
        _ => Ok(()),
    }
}

/// The output checks every sim op passes: per-node radio-state
/// conservation, delivered ≤ generated, and closed packet accounting.
pub fn check_report(r: &SimReport, n: usize, slots: u64) -> Result<(), String> {
    if r.slots != slots {
        return Err(format!("report covers {} slots, ran {slots}", r.slots));
    }
    let e = &r.energy;
    for v in 0..n {
        let total = e.tx_slots[v] + e.listen_slots[v] + e.sleep_slots[v];
        if total != slots {
            return Err(format!(
                "node {v}: tx+listen+sleep = {total} != {slots} slots"
            ));
        }
    }
    if r.delivered > r.generated {
        return Err(format!(
            "delivered {} > generated {}",
            r.delivered, r.generated
        ));
    }
    let accounted = r.delivered + r.undeliverable + r.retry_exhausted + r.backlog;
    if accounted != r.generated {
        return Err(format!(
            "accounting: delivered {} + undeliverable {} + retry_exhausted {} + backlog {} != generated {}",
            r.delivered, r.undeliverable, r.retry_exhausted, r.backlog, r.generated
        ));
    }
    Ok(())
}

/// A digest of the whole report (its `Debug` form prints every float
/// exactly), compared across runs of one seed.
pub fn report_digest(r: &SimReport) -> u64 {
    host::fnv1a(format!("{r:?}").as_bytes())
}

/// The dispatch rule `Simulator::run` documents, applied to a workload's
/// frame-periodic configuration: 2 = time skipping, 1 = sleep-sparse,
/// 0 = dense. The simulator does not report the path it took, so this is
/// inferred.
fn infer_path(drift: bool, calendarable: bool) -> f64 {
    match (drift, calendarable) {
        (true, _) => 0.0,
        (false, false) => 1.0,
        (false, true) => 2.0,
    }
}

/// The simulated statistics of one op, reported as counts.
fn report_counts(r: Option<&SimReport>) -> Vec<Metric> {
    let c = |f: fn(&SimReport) -> u64| r.map_or(0.0, |r| f(r) as f64);
    vec![
        Metric::count("sim.report.generated", c(|r| r.generated)),
        Metric::count("sim.report.delivered", c(|r| r.delivered)),
        Metric::count("sim.report.hop_deliveries", c(|r| r.hop_deliveries)),
        Metric::count("sim.report.collisions", c(|r| r.collisions)),
        Metric::count("sim.report.link_drops", c(|r| r.link_drops)),
        Metric::count("sim.report.retry_exhausted", c(|r| r.retry_exhausted)),
        Metric::count("sim.report.crashes", c(|r| r.crashes)),
        Metric::count("sim.report.backlog", c(|r| r.backlog)),
    ]
}

/// Standalone `SlotPlan::build` + full-frame `ensure_filled` for each MAC:
/// `(mean fill seconds, mean awake nodes per frame slot)`.
fn plan_fill(tracer: &Tracer, macs: &[(&dyn MacProtocol, usize)]) -> (f64, f64) {
    let mut fill = Vec::new();
    let mut awake = Vec::new();
    for (i, &(mac, n)) in macs.iter().enumerate() {
        let t = Instant::now();
        let plan = tracer.span("sim.plan.fill", None, i as u64, |_| {
            let mut plan = SlotPlan::build(mac, n);
            plan.ensure_filled(mac, plan.frame_length() - 1);
            plan
        });
        fill.push(t.elapsed().as_secs_f64());
        let total: usize = (0..plan.frame_length()).map(|s| plan.awake(s).len()).sum();
        awake.push(total as f64 / plan.frame_length() as f64);
    }
    (stats::mean(&fill), stats::mean(&awake))
}

/// Per-layer set-up metrics: median over set-up repetitions of each
/// layer's time within one repetition.
fn setup_layers(setup: &[Span], reps: usize) -> Vec<Metric> {
    let per_rep = |name: &str| {
        let v: Vec<f64> = (0..reps as u64)
            .map(|rep| {
                setup
                    .iter()
                    .filter(|s| s.op == rep && s.name == name)
                    .map(Span::dur_s)
                    .sum()
            })
            .collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    vec![
        Metric::secs("topology.gen_s", per_rep("topology.gen")),
        Metric::secs("construct.substrate_s", per_rep("construct.substrate")),
        Metric::secs("construct.figure2_s", per_rep("construct.figure2")),
        Metric::secs("sim.builder.build_s", per_rep("sim.builder.build")),
    ]
}

/// Engine metrics from the traced ops: `(op, nodes in the op's network)`
/// for each traced op, with `slots` simulated per op.
fn engine_layers(spans: &[Span], ops: &[(u64, usize)], slots: u64, awake: f64) -> Vec<Metric> {
    let by_op = |name: &str, op: u64| -> f64 {
        spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::dur_s)
            .sum()
    };
    let run: f64 = ops.iter().map(|&(op, _)| by_op("sim.engine.run", op)).sum();
    let report: f64 = ops
        .iter()
        .map(|&(op, _)| by_op("sim.engine.report", op))
        .sum();
    let node_slots: f64 = ops.iter().map(|&(_, n)| n as f64 * slots as f64).sum();
    let k = ops.len().max(1) as f64;
    let per = |x: f64, d: f64| if d > 0.0 { x / d } else { 0.0 };
    vec![
        Metric::secs("sim.engine.run_s", run / k),
        Metric::new("sim.engine.slots_per_s", per(k * slots as f64, run), "1/s"),
        Metric::new(
            "sim.engine.ns_per_awake_node_slot",
            per(run * 1e9, k * slots as f64 * awake),
            "ns",
        ),
        Metric::new(
            "sim.engine.ns_per_node_slot",
            per(run * 1e9, node_slots),
            "ns",
        ),
        Metric::secs("sim.engine.report_s", report / k),
    ]
}

/// Configuration of a worker-thread sim workload.
#[derive(Clone, Debug)]
pub struct RosterSpec {
    pub name: &'static str,
    pub n: usize,
    pub d: usize,
    pub alpha_t: usize,
    pub alpha_r: usize,
    /// Poisson unicast rate per node per slot.
    pub rate: f64,
    pub faults: FaultPlan,
    /// Slots simulated per op.
    pub slots: u64,
    /// Slots of the sampled `run` vs `run_dense` bit-identity check
    /// (without drift; with drift the check is one run vs two halves).
    pub prefix: u64,
    pub tail_target: f64,
}

impl RosterSpec {
    /// `ttdc simulate` defaults over a Figure 2 TTDC schedule.
    pub fn poisson(smoke: bool) -> RosterSpec {
        RosterSpec {
            name: "sim-poisson",
            n: 121,
            d: 3,
            alpha_t: 4,
            alpha_r: 8,
            rate: 0.002,
            faults: FaultPlan::default().with_per(0.05).with_max_retries(3),
            slots: if smoke { 4_000 } else { 24_000 },
            prefix: if smoke { 2_000 } else { 20_000 },
            tail_target: 95.0,
        }
    }

    /// The E17 fault axes: drift forces the dense all-node scan.
    pub fn drift(smoke: bool) -> RosterSpec {
        RosterSpec {
            name: "sim-drift",
            n: 64,
            d: 3,
            alpha_t: 3,
            alpha_r: 6,
            rate: 0.001,
            faults: FaultPlan::default()
                .with_drift(5e-4)
                .with_crash(CrashModel::new(5e-4, 0.05)),
            slots: if smoke { 2_000 } else { 4_000 },
            prefix: if smoke { 2_000 } else { 20_000 },
            tail_target: 90.0,
        }
    }
}

struct RosterInputs {
    topologies: Vec<Topology>,
    mac: ScheduleMac,
}

/// `sim-poisson` / `sim-drift`: `nproc` closed-loop workers, each running
/// one single-threaded replication per op.
pub struct RosterSim {
    spec: RosterSpec,
    seed: u64,
    workers: usize,
    inputs: Option<RosterInputs>,
    /// Ops each worker has run. Worker `w`'s `k`-th op is op
    /// `k · workers + w`, so every worker runs the same op sequence, and
    /// allocates the same way, in every run of a seed.
    worker_ops: Vec<u64>,
    op0: Mutex<Option<SimReport>>,
    digests: Mutex<BTreeMap<String, u64>>,
    traced_ops: Mutex<Vec<(u64, usize)>>,
}

impl RosterSim {
    pub fn new(spec: RosterSpec, seed: u64) -> RosterSim {
        RosterSim {
            spec,
            seed,
            workers: host::nproc(),
            inputs: None,
            worker_ops: vec![0; host::nproc()],
            op0: Mutex::new(None),
            digests: Mutex::new(BTreeMap::new()),
            traced_ops: Mutex::new(Vec::new()),
        }
    }

    fn builder(&self, topo: Topology, seed: u64) -> SimulatorBuilder {
        SimulatorBuilder::new(
            topo,
            TrafficPattern::PoissonUnicast {
                rate: self.spec.rate,
            },
        )
        .seed(seed)
        .faults(self.spec.faults)
    }

    /// The input of op `op`: its index, topology and simulator seed.
    fn op_inputs(&self, op: u64) -> (usize, &Topology, u64) {
        let inputs = self.inputs.as_ref().expect("set-up ran");
        let k = op % INPUTS;
        (
            k as usize,
            &inputs.topologies[k as usize],
            mix(self.seed, 1, k),
        )
    }

    /// One op: build, run and report a replication. Returns its latency
    /// and report, or why it failed.
    fn run_op(&self, tracer: &Tracer, op: u64) -> (f64, Result<SimReport, String>) {
        let mac = &self.inputs.as_ref().expect("set-up ran").mac;
        let (_, topo, seed) = self.op_inputs(op);
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            tracer.span("op", None, op, |p| {
                let mut sim = tracer
                    .span("sim.builder.build", p, op, |_| {
                        self.builder(topo.clone(), seed).build()
                    })
                    .map_err(|e| e.to_string())?;
                let slots = self.spec.slots;
                tracer.span("sim.engine.run", p, op, |rp| {
                    if tracer.enabled() && self.spec.faults.clock_drift > 0.0 {
                        // Two halves, to show whether per-slot cost stays
                        // flat as the run ages. Bit-identical to one call,
                        // and free on the dense path drift forces (a sparse
                        // run would refill its plan at the second call).
                        tracer.span("sim.engine.run.first_half", rp, op, |_| {
                            sim.run(mac, slots / 2)
                        });
                        tracer.span("sim.engine.run.second_half", rp, op, |_| {
                            sim.run(mac, slots - slots / 2)
                        });
                    } else {
                        sim.run(mac, slots);
                    }
                });
                Ok(tracer.span("sim.engine.report", p, op, |_| sim.report()))
            })
        }));
        let latency = t.elapsed().as_secs_f64();
        let out = out.unwrap_or_else(|_| Err("op panicked".into()));
        (latency, out)
    }
}

impl Bench for RosterSim {
    fn setup(&mut self, tracer: &Tracer, rep: u64) -> Result<(), String> {
        let s = &self.spec;
        let topologies = tracer.span("topology.gen", None, rep, |_| {
            (0..INPUTS)
                .map(|k| {
                    let mut rng = SmallRng::seed_from_u64(mix(self.seed, 0, k));
                    GeometricNetwork::random(s.n, 0.3, s.d, &mut rng).topology()
                })
                .collect::<Vec<_>>()
        });
        let ns = tracer.span("construct.substrate", None, rep, |_| {
            tsma::build(s.n, s.d, SourceKind::Polynomial)
        })?;
        let c = tracer.span("construct.figure2", None, rep, |_| {
            construct(
                &ns.schedule,
                s.d,
                s.alpha_t,
                s.alpha_r,
                PartitionStrategy::RoundRobin,
            )
        });
        // Every (topology, configuration) input must build, so no op can
        // fail on configuration; ops then build their own simulators.
        for (k, topo) in topologies.iter().enumerate() {
            tracer
                .span("sim.builder.build", None, rep, |_| {
                    self.builder(topo.clone(), k as u64).build()
                })
                .map_err(|e| format!("{}: topology {k}: {e}", s.name))?;
        }
        self.inputs = Some(RosterInputs {
            topologies,
            mac: ScheduleMac::new("ttdc", c.schedule),
        });
        Ok(())
    }

    fn window(&mut self, tracer: &Tracer, seconds: f64) -> Window {
        let start = Instant::now();
        let cpu0 = host::cpu_seconds();
        let deadline = start + Duration::from_secs_f64(seconds);
        let this = &*self;
        // Per worker: its ops, its last completion and its op count.
        let per_worker: Vec<(Window, Instant, u64)> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..this.workers)
                .map(|worker| {
                    let mut k = this.worker_ops[worker];
                    sc.spawn(move || {
                        let mut w = Window::default();
                        let input = |op| this.op_inputs(op).0;
                        let mut last;
                        loop {
                            let op = k * this.workers as u64 + worker as u64;
                            k += 1;
                            w.attempted += 1;
                            let (latency, out) = this.run_op(tracer, op);
                            last = Instant::now();
                            match out.and_then(|r| {
                                check_report(&r, this.spec.n, this.spec.slots)?;
                                record_digest(
                                    &mut this.digests.lock().expect("digest lock"),
                                    format!("input{}", input(op)),
                                    report_digest(&r),
                                )?;
                                Ok(r)
                            }) {
                                Ok(r) => {
                                    w.push(input(op), latency);
                                    if tracer.enabled() {
                                        this.traced_ops
                                            .lock()
                                            .expect("op list lock")
                                            .push((op, this.spec.n));
                                    }
                                    if op == 0 {
                                        *this.op0.lock().expect("op0 lock") = Some(r);
                                    }
                                }
                                Err(e) => {
                                    w.failed += 1;
                                    eprintln!("{}: op {op} failed: {e}", this.spec.name);
                                }
                            }
                            if last >= deadline {
                                break;
                            }
                        }
                        (w, last, k)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a sim worker thread panicked"))
                .collect()
        });
        let mut w = Window::default();
        let mut end = start;
        for (worker, (ops, last, k)) in per_worker.into_iter().enumerate() {
            self.worker_ops[worker] = k;
            w.merge(ops);
            end = end.max(last);
        }
        w.wall_s = (end - start).as_secs_f64();
        w.cpu_s = host::cpu_seconds() - cpu0;
        w
    }

    fn sampled_check(&mut self) -> Result<(), String> {
        let mac = &self.inputs.as_ref().expect("set-up ran").mac;
        let (_, topo, seed) = self.op_inputs(0);
        let build = || {
            self.builder(topo.clone(), seed)
                .build()
                .map_err(|e| e.to_string())
        };
        let (mut a, mut b) = (build()?, build()?);
        if self.spec.faults.clock_drift > 0.0 {
            // Drift sends `run` down the dense path itself, so comparing it
            // with `run_dense` would check nothing. Check instead that
            // a run split in two calls, as the traced op splits it, equals
            // one call.
            let slots = self.spec.prefix;
            a.run(mac, slots);
            b.run(mac, slots / 2);
            b.run(mac, slots - slots / 2);
            if a.report() != b.report() {
                return Err(format!(
                    "op 0: one run of {slots} slots and two halves give different reports"
                ));
            }
            return Ok(());
        }
        a.run(mac, self.spec.prefix);
        b.run_dense(mac, self.spec.prefix);
        if a.report() != b.report() {
            return Err(format!(
                "op 0: run and run_dense reports differ over {} slots",
                self.spec.prefix
            ));
        }
        Ok(())
    }

    fn layers(
        &mut self,
        tracer: &Tracer,
        setup: &[Span],
        reps: usize,
        spans: &[Span],
    ) -> Vec<Metric> {
        let s = &self.spec;
        let mac = &self.inputs.as_ref().expect("set-up ran").mac;
        let (fill_s, awake) = plan_fill(tracer, &[(mac as &dyn MacProtocol, s.n)]);
        let ops = self.traced_ops.lock().expect("op list lock").clone();
        let mut m = setup_layers(setup, reps);
        m.push(Metric::secs("sim.plan.fill_s", fill_s));
        m.push(Metric::count("sim.plan.awake_per_slot", awake));
        m.extend(engine_layers(spans, &ops, s.slots, awake));
        let half = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|x| x.name == name)
                .map(Span::dur_s)
                .sum()
        };
        let first = half("sim.engine.run.first_half");
        m.push(Metric::new(
            "sim.engine.half_ratio",
            if first > 0.0 {
                half("sim.engine.run.second_half") / first
            } else {
                0.0
            },
            "ratio",
        ));
        let drift = s.faults.clock_drift > 0.0;
        m.push(Metric::new(
            "sim.path_inferred",
            // Poisson traffic and crash plans cannot be calendared.
            infer_path(drift, false),
            "code",
        ));
        m.extend(report_counts(self.op0.lock().expect("op0 lock").as_ref()));
        m
    }

    fn digests(&self) -> BTreeMap<String, u64> {
        self.digests.lock().expect("digest lock").clone()
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn tail_target(&self) -> f64 {
        self.spec.tail_target
    }
}

/// `sim-lowrate` sizes: the E12c regime.
#[derive(Clone, Debug)]
pub struct LowRateSpec {
    pub sizes: Vec<usize>,
    pub d: usize,
    pub alpha_t: usize,
    pub alpha_r: usize,
    pub period: u64,
    pub horizon: u64,
    /// Replications per point in one campaign batch.
    pub reps: u64,
    /// Slots of the sampled bit-identity check (covers a frame and a CBR
    /// period of the smallest point).
    pub prefix: u64,
}

impl LowRateSpec {
    pub fn new(smoke: bool) -> LowRateSpec {
        LowRateSpec {
            sizes: if smoke { vec![64] } else { vec![64, 128] },
            d: 4,
            alpha_t: 2,
            alpha_r: 4,
            period: 50_000,
            horizon: if smoke { 60_000 } else { 200_000 },
            reps: if smoke { 1 } else { 2 },
            prefix: if smoke { 8_000 } else { 60_000 },
        }
    }
}

/// Result of one op executed inside the campaign runner.
struct LowOp {
    op: u64,
    point: usize,
    latency: f64,
    outcome: Result<u64, String>,
}

/// What one campaign batch produced.
struct Batch {
    ops: Vec<LowOp>,
    /// Campaign error, degraded merge or missing shards.
    error: Option<String>,
    /// Op 0's report, when op 0 ran in this batch.
    op0: Option<SimReport>,
    manifest_bytes: u64,
}

/// `sim-lowrate`: TTDC under sparse CBR, ops driven through
/// `run_campaign` with a scratch checkpoint directory on the global pool.
pub struct LowRate {
    spec: LowRateSpec,
    seed: u64,
    macs: Vec<TtdcMac>,
    topologies: Vec<Vec<Topology>>,
    batch: u64,
    op0: Option<SimReport>,
    digests: BTreeMap<String, u64>,
    traced_ops: Vec<(u64, usize)>,
    manifest_bytes: Vec<f64>,
}

impl LowRate {
    pub fn new(spec: LowRateSpec, seed: u64) -> LowRate {
        LowRate {
            spec,
            seed,
            macs: Vec::new(),
            topologies: Vec::new(),
            batch: 0,
            op0: None,
            digests: BTreeMap::new(),
            traced_ops: Vec::new(),
            manifest_bytes: Vec::new(),
        }
    }

    fn ops_per_batch(&self) -> u64 {
        self.spec.sizes.len() as u64 * self.spec.reps
    }

    /// Every batch replays the same inputs: replication `r` of a point
    /// runs seed `base_seed() + r` on one of that point's `reps`
    /// topologies, so each input runs once per batch and many times per
    /// run.
    fn base_seed(&self) -> u64 {
        mix(self.seed, 2, 0) >> 16
    }

    fn build(&self, point: usize, seed: u64) -> Result<ttdc_sim::Simulator, String> {
        let topo = self.topologies[point][(seed % self.spec.reps) as usize].clone();
        SimulatorBuilder::new(
            topo,
            TrafficPattern::CbrUnicast {
                period: self.spec.period,
            },
        )
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())
    }

    /// Runs one campaign batch.
    fn run_batch(&self, tracer: &Tracer, batch: u64) -> Batch {
        let reps = self.spec.reps;
        let base_seed = self.base_seed();
        let spec = CampaignSpec {
            name: "bench-lowrate".into(),
            points: self
                .spec
                .sizes
                .iter()
                .map(|n| PointSpec::new(format!("n={n}")).param("n", n))
                .collect(),
            reps,
            base_seed,
            shard_size: 1,
            slots_hint: self.spec.horizon,
        };
        let dir = match host::work_path("campaign") {
            Ok(d) => d.join(format!("{}-{batch}-{}", std::process::id(), self.seed)),
            Err(e) => {
                return Batch {
                    ops: Vec::new(),
                    error: Some(format!("scratch directory: {e}")),
                    op0: None,
                    manifest_bytes: 0,
                }
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        let ops = Mutex::new(Vec::new());
        let first_op = batch * self.ops_per_batch();
        let res = tracer.span("sim.campaign.run", None, first_op, |parent| {
            run_campaign(
                &spec,
                Some(&dir),
                ResumeMode::Fresh,
                &CampaignOptions::default(),
                None,
                |point, seed| {
                    let op = first_op + point as u64 * reps + (seed - base_seed);
                    let n = self.spec.sizes[point];
                    let t = Instant::now();
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        tracer.span("op", parent, op, |p| {
                            let mut sim = tracer
                                .span("sim.builder.build", p, op, |_| self.build(point, seed))?;
                            tracer.span("sim.engine.run", p, op, |_| {
                                sim.run(&self.macs[point], self.spec.horizon)
                            });
                            Ok::<_, String>(
                                tracer.span("sim.engine.report", p, op, |_| sim.report()),
                            )
                        })
                    }));
                    let latency = t.elapsed().as_secs_f64();
                    let (outcome, report) = match out {
                        Ok(Ok(r)) => (
                            check_report(&r, n, self.spec.horizon).map(|()| report_digest(&r)),
                            Some(r),
                        ),
                        Ok(Err(e)) => (Err(e), None),
                        Err(_) => (Err("op panicked".into()), None),
                    };
                    ops.lock().expect("op list lock").push((
                        LowOp {
                            op,
                            point,
                            latency,
                            outcome,
                        },
                        if op == 0 { report.clone() } else { None },
                    ));
                    match report {
                        Some(r) => r,
                        // Let the runner see the failure (it retries, then
                        // quarantines the shard).
                        None => resume_unwind(Box::new(format!("op {op} failed"))),
                    }
                },
            )
        });
        let manifest_bytes = std::fs::metadata(dir.join(MANIFEST_FILE)).map_or(0, |m| m.len());
        let _ = std::fs::remove_dir_all(&dir);
        let mut ops = ops.into_inner().expect("op list lock");
        ops.sort_by_key(|(o, _)| o.op);
        let error = match res {
            Err(e) => Some(format!("campaign batch {batch}: {e}")),
            Ok(o) if o.degraded || o.executed_shards as u64 != self.ops_per_batch() => {
                Some(format!(
                    "campaign batch {batch}: degraded={} executed {} of {} shards",
                    o.degraded,
                    o.executed_shards,
                    self.ops_per_batch()
                ))
            }
            Ok(_) => None,
        };
        let mut op0 = None;
        let ops = ops
            .into_iter()
            .map(|(o, r)| {
                op0 = op0.take().or(r);
                o
            })
            .collect();
        Batch {
            ops,
            error,
            op0,
            manifest_bytes,
        }
    }
}

impl Bench for LowRate {
    fn setup(&mut self, tracer: &Tracer, rep: u64) -> Result<(), String> {
        let s = self.spec.clone();
        let mut macs = Vec::new();
        let mut topologies = Vec::new();
        for (point, &n) in s.sizes.iter().enumerate() {
            let ns = tracer.span("construct.substrate", None, rep, |_| {
                tsma::build(n, s.d, SourceKind::Polynomial)
            })?;
            let c = tracer.span("construct.figure2", None, rep, |_| {
                construct(
                    &ns.schedule,
                    s.d,
                    s.alpha_t,
                    s.alpha_r,
                    PartitionStrategy::RoundRobin,
                )
            });
            macs.push(TtdcMac::from_construction(&c, s.alpha_t, s.alpha_r));
            // Connected deployments, as E12c draws them.
            topologies.push(tracer.span("topology.gen", None, rep, |_| {
                (0..s.reps)
                    .map(|k| {
                        let mut rng = SmallRng::seed_from_u64(mix(self.seed, 10 + point as u64, k));
                        loop {
                            let t = GeometricNetwork::random(n, 0.35, s.d, &mut rng).topology();
                            if t.is_connected() {
                                break t;
                            }
                        }
                    })
                    .collect::<Vec<_>>()
            }));
        }
        self.macs = macs;
        self.topologies = topologies;
        for point in 0..s.sizes.len() {
            for k in 0..s.reps {
                tracer
                    .span("sim.builder.build", None, rep, |_| self.build(point, k))
                    .map_err(|e| format!("sim-lowrate: n={}: {e}", s.sizes[point]))?;
            }
        }
        Ok(())
    }

    fn window(&mut self, tracer: &Tracer, seconds: f64) -> Window {
        let start = Instant::now();
        let cpu0 = host::cpu_seconds();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut w = Window::default();
        loop {
            let batch = self.batch;
            self.batch += 1;
            let b = self.run_batch(tracer, batch);
            if let Some(e) = &b.error {
                eprintln!("sim-lowrate: {e}");
                // Ops the runner never reached count as failed too.
                let missing = self.ops_per_batch().saturating_sub(b.ops.len() as u64);
                w.attempted += missing;
                w.failed += missing;
            }
            if b.op0.is_some() {
                self.op0 = b.op0;
            }
            if tracer.enabled() {
                self.manifest_bytes.push(b.manifest_bytes as f64);
            }
            for o in b.ops {
                w.attempted += 1;
                // Op numbers run point-major within a batch.
                let input = o.op % self.ops_per_batch();
                let key = format!(
                    "n{}-rep{}",
                    self.spec.sizes[o.point],
                    input % self.spec.reps
                );
                match o
                    .outcome
                    .and_then(|digest| record_digest(&mut self.digests, key, digest))
                {
                    Ok(()) => {
                        w.push(input as usize, o.latency);
                        if tracer.enabled() {
                            self.traced_ops.push((o.op, self.spec.sizes[o.point]));
                        }
                    }
                    Err(e) => {
                        w.failed += 1;
                        eprintln!("sim-lowrate: op {} failed: {e}", o.op);
                    }
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w.cpu_s = host::cpu_seconds() - cpu0;
        w
    }

    fn sampled_check(&mut self) -> Result<(), String> {
        let seed = self.base_seed();
        let mac = &self.macs[0];
        let (mut fast, mut dense) = (self.build(0, seed)?, self.build(0, seed)?);
        fast.run(mac, self.spec.prefix);
        dense.run_dense(mac, self.spec.prefix);
        if fast.report() != dense.report() {
            return Err(format!(
                "n={}: run and run_dense reports differ over {} slots",
                self.spec.sizes[0], self.spec.prefix
            ));
        }
        Ok(())
    }

    fn layers(
        &mut self,
        tracer: &Tracer,
        setup: &[Span],
        reps: usize,
        spans: &[Span],
    ) -> Vec<Metric> {
        let macs: Vec<(&dyn MacProtocol, usize)> = self
            .macs
            .iter()
            .zip(&self.spec.sizes)
            .map(|(m, &n)| (m as &dyn MacProtocol, n))
            .collect();
        let (fill_s, awake) = plan_fill(tracer, &macs);
        let mut m = setup_layers(setup, reps);
        m.push(Metric::secs("sim.plan.fill_s", fill_s));
        m.push(Metric::count("sim.plan.awake_per_slot", awake));
        m.extend(engine_layers(
            spans,
            &self.traced_ops,
            self.spec.horizon,
            awake,
        ));
        // CBR without crash plans or observers is calendarable; skipping
        // also needs the horizon to cover a frame.
        let max_frame = self.macs.iter().map(|m| m.frame_length() as u64).max();
        m.push(Metric::new(
            "sim.path_inferred",
            infer_path(false, max_frame.is_some_and(|f| self.spec.horizon >= f)),
            "code",
        ));
        m.extend(report_counts(self.op0.as_ref()));
        // Campaign time no op covers: each batch span's self time.
        let selfs = trace::self_times_ns(spans);
        let overhead: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "sim.campaign.run")
            .map(|s| selfs[&s.id] as f64 * 1e-9)
            .collect();
        m.push(Metric::secs(
            "sim.campaign.overhead_s",
            stats::mean(&overhead),
        ));
        m.push(Metric::new(
            "sim.campaign.manifest_bytes",
            stats::mean(&self.manifest_bytes),
            "bytes",
        ));
        m
    }

    fn digests(&self) -> BTreeMap<String, u64> {
        self.digests.clone()
    }

    fn threads(&self) -> usize {
        rayon::current_num_threads()
    }

    fn tail_target(&self) -> f64 {
        95.0
    }
}

#[cfg(test)]
mod tests {
    use super::record_digest;
    use std::collections::BTreeMap;

    #[test]
    fn a_repeated_input_must_reproduce_its_digest() {
        let mut d = BTreeMap::new();
        assert_eq!(record_digest(&mut d, "input0".into(), 7), Ok(()));
        assert_eq!(record_digest(&mut d, "input0".into(), 7), Ok(()));
        assert_eq!(record_digest(&mut d, "input1".into(), 8), Ok(()));
        assert!(record_digest(&mut d, "input0".into(), 9).is_err());
    }
}
