//! End-to-end and per-layer benchmark of the ttdc workspace.
//!
//! `run` sets up one workload from a seed, measures it closed-loop for a
//! number of seconds, checks every op's output and returns the figures
//! the benchmark prints. See `README.md` in this directory for the
//! workloads, the metrics and what each layer metric should move.

pub mod design;
pub mod host;
pub mod sim;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::{Span, Tracer};

/// One named figure with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
    pub fn secs(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "s")
    }
    pub fn count(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "count")
    }
}

/// End-to-end metrics, printed with tracing off. The median and tail
/// latency and the throughput go to the provenance line instead: on a
/// host whose speed swings between runs they cannot be resolved within a
/// bound (see `README.md`).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_best_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run. A layer that does not
/// run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("topology.gen_s", "s"),
    ("construct.substrate_s", "s"),
    ("construct.figure2_s", "s"),
    ("sim.builder.build_s", "s"),
    ("sim.plan.fill_s", "s"),
    ("sim.plan.awake_per_slot", "count"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.slots_per_s", "1/s"),
    ("sim.engine.ns_per_awake_node_slot", "ns"),
    ("sim.engine.ns_per_node_slot", "ns"),
    ("sim.engine.report_s", "s"),
    ("sim.engine.half_ratio", "ratio"),
    ("sim.path_inferred", "code"),
    ("sim.report.generated", "count"),
    ("sim.report.delivered", "count"),
    ("sim.report.hop_deliveries", "count"),
    ("sim.report.collisions", "count"),
    ("sim.report.link_drops", "count"),
    ("sim.report.retry_exhausted", "count"),
    ("sim.report.crashes", "count"),
    ("sim.report.backlog", "count"),
    ("sim.campaign.overhead_s", "s"),
    ("sim.campaign.manifest_bytes", "bytes"),
    ("synth.demands.build_s", "s"),
    ("synth.demands.demands", "count"),
    ("synth.demands.candidates", "count"),
    ("synth.search.greedy_s", "s"),
    ("synth.search.plan_root_s", "s"),
    ("synth.search.branch_s_sum", "s"),
    ("synth.search.branch_s_max", "s"),
    ("synth.search.branches", "count"),
    ("synth.search.branches_total", "count"),
    ("synth.search.nodes", "count"),
    ("synth.search.pruned", "count"),
    ("synth.search.prune_rate", "ratio"),
    ("synth.search.nodes_per_s", "1/s"),
    ("synth.polish_s", "s"),
    ("synth.catalog.validate_s", "s"),
    ("requirements.req3_s", "s"),
    ("requirements.configs", "count"),
    ("requirements.configs_per_s", "1/s"),
    ("throughput.avg_s", "s"),
    ("throughput.min_s", "s"),
    ("latency.worst_s", "s"),
    ("latency.mean_s", "s"),
    ("pool.threads", "count"),
    ("pool.cpu_busy_frac", "ratio"),
    ("trace.op_samples", "count"),
    ("trace.op_best_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
    ("trace.op_tail_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead.op_best_ms", "ms"),
    ("trace.overhead.op_p50_ms", "ms"),
    ("trace.overhead.op_tail_ms", "ms"),
    ("trace.overhead.ops_per_s", "1/s"),
    ("trace.untraced.op_samples", "count"),
    ("trace.untraced.op_best_ms", "ms"),
    ("trace.untraced.op_p50_ms", "ms"),
    ("trace.spans", "count"),
    ("run.attempted", "count"),
    ("run.failed", "count"),
    ("run.fail_frac", "ratio"),
];

/// The interface every workload implements.
pub trait Bench {
    /// One set-up repetition (`rep` numbers them). Every repetition
    /// builds the same inputs from the seed; the latest one's feed the
    /// ops, and repetitions run between measured windows.
    fn setup(&mut self, tracer: &Tracer, rep: u64) -> Result<(), String>;
    /// Runs ops closed-loop for `seconds` (at least one op per worker).
    fn window(&mut self, tracer: &Tracer, seconds: f64) -> Window;
    /// The run-level output check made once per run.
    fn sampled_check(&mut self) -> Result<(), String>;
    /// Per-layer metrics from the set-up spans and the traced window.
    fn layers(
        &mut self,
        tracer: &Tracer,
        setup: &[Span],
        reps: usize,
        spans: &[Span],
    ) -> Vec<Metric>;
    /// Op key → output digest, for the cross-run determinism check.
    fn digests(&self) -> BTreeMap<String, u64>;
    /// Ops running at once (workers or pool width).
    fn threads(&self) -> usize;
    /// The tail percentile this workload reports.
    fn tail_target(&self) -> f64;
    /// Remarks for the provenance line.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

pub use stats::Window;

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = ["sim-poisson", "sim-lowrate", "sim-drift", "design"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes with every check on (the benchmark's own tests).
    pub smoke: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value()?.clone(),
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                        return Err("--seconds must be a finite number ≥ 0".into());
                    }
                }
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--smoke" => a.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(a)
    }
}

/// Everything a run prints.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Provenance and remarks, printed on the line before the result.
    pub info: BTreeMap<&'static str, String>,
}

/// The untraced window is cut into this many segments, and each segment
/// starts with a group of set-up repetitions; `setup_s` is the median
/// over segments of each group's fastest repetition. Spreading the
/// set-ups over the run, and keeping each group's fastest, keeps a slow
/// stretch of the host at the start of a run from setting the figure.
const SETUP_SEGMENTS: usize = 10;
/// Set-up repetitions per segment.
const SETUP_GROUP: usize = 10;

fn make_bench(args: &Args) -> Result<Box<dyn Bench>, String> {
    Ok(match args.workload.as_str() {
        "sim-poisson" => Box::new(sim::RosterSim::new(
            sim::RosterSpec::poisson(args.smoke),
            args.seed,
        )),
        "sim-drift" => Box::new(sim::RosterSim::new(
            sim::RosterSpec::drift(args.smoke),
            args.seed,
        )),
        "sim-lowrate" => Box::new(sim::LowRate::new(
            sim::LowRateSpec::new(args.smoke),
            args.seed,
        )),
        "design" => Box::new(design::Design::new(args.seed, args.smoke)?),
        w => return Err(format!("unknown workload {w}")),
    })
}

/// Sets up, measures and checks one workload. `Err` means the run could
/// not be set up; op failures are counted in the outcome instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut bench = make_bench(args)?;
    let tracer = Tracer::new(args.trace);
    let (segments, group) = if args.smoke {
        (1, 1)
    } else {
        (SETUP_SEGMENTS, SETUP_GROUP)
    };
    let reps = segments * group;

    // With tracing on, half the time runs untraced so the run can state
    // its own tracing overhead; end-to-end figures come from untraced
    // runs only. Set-up is traced in both modes, so the traced run's
    // set-up layers come from the same repetitions.
    let off = Tracer::new(false);
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut untraced = Window::default();
    let mut setup_s = Vec::new();
    for seg in 0..segments {
        let mut fastest = f64::INFINITY;
        for g in 0..group {
            let t = Instant::now();
            bench.setup(&tracer, (seg * group + g) as u64)?;
            fastest = fastest.min(t.elapsed().as_secs_f64());
        }
        setup_s.push(fastest);
        untraced.merge(bench.window(&off, untraced_s / segments as f64));
    }
    let setup_spans = tracer.spans();
    let traced = args
        .trace
        .then(|| bench.window(&tracer, args.seconds / 2.0));

    // Peak memory of set-up and ops, read before the run's own checks,
    // whose reference simulations run on the main thread and would add
    // to the peak or not depending on how its heap happens to lie.
    let peak_rss_mb = host::peak_rss_mb();

    let mut problems = Vec::new();
    if let Err(e) = bench.sampled_check() {
        problems.push(e);
    }
    let record = format!(
        "{}-{}-seed{}",
        args.workload,
        if args.smoke { "smoke" } else { "full" },
        args.seed
    );
    let digests = bench.digests();
    for key in host::check_determinism(&record, &digests) {
        problems.push(format!(
            "{key}: output differs from an earlier run of this seed"
        ));
    }
    for p in &problems {
        eprintln!("{}: check failed: {p}", args.workload);
    }

    let windows: Vec<&Window> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed = windows.iter().map(|w| w.failed).sum::<u64>() + problems.len() as u64;
    let tail_target = bench.tail_target();
    let summary = untraced.summary(tail_target);
    let setup_median = stats::median(&setup_s);

    let metrics = match &traced {
        None => {
            let s = summary.as_ref();
            vec![
                Metric::secs("setup_s", setup_median),
                Metric::new("op_best_ms", s.map_or(0.0, |s| s.best_ms), "ms"),
                Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
            ]
        }
        Some(tw) => {
            // Only set-up was traced before the traced window began, so
            // set-up spans hold the lowest ids.
            let spans = tracer.spans().split_off(setup_spans.len());
            let mut layer = bench.layers(&tracer, &setup_spans, reps, &spans);
            let ts = tw.summary(tail_target);
            let get = |s: Option<stats::Summary>, f: fn(&stats::Summary) -> f64| {
                s.as_ref().map_or(0.0, f)
            };
            let diff = |f: fn(&stats::Summary) -> f64| get(ts, f) - get(summary, f);
            let threads = bench.threads();
            layer.extend([
                Metric::count("pool.threads", threads as f64),
                Metric::new(
                    "pool.cpu_busy_frac",
                    tw.cpu_s / (tw.wall_s * threads as f64).max(f64::MIN_POSITIVE),
                    "ratio",
                ),
                Metric::count("trace.op_samples", get(ts, |s| s.samples as f64)),
                Metric::new("trace.op_best_ms", get(ts, |s| s.best_ms), "ms"),
                Metric::new("trace.op_p50_ms", get(ts, |s| s.p50_ms), "ms"),
                Metric::new("trace.op_tail_ms", get(ts, |s| s.tail_ms), "ms"),
                Metric::new("trace.ops_per_s", get(ts, |s| s.ops_per_s), "1/s"),
                Metric::new("trace.overhead.op_best_ms", diff(|s| s.best_ms), "ms"),
                Metric::new("trace.overhead.op_p50_ms", diff(|s| s.p50_ms), "ms"),
                Metric::new("trace.overhead.op_tail_ms", diff(|s| s.tail_ms), "ms"),
                Metric::new("trace.overhead.ops_per_s", diff(|s| s.ops_per_s), "1/s"),
                Metric::count(
                    "trace.untraced.op_samples",
                    get(summary, |s| s.samples as f64),
                ),
                Metric::new(
                    "trace.untraced.op_best_ms",
                    get(summary, |s| s.best_ms),
                    "ms",
                ),
                Metric::new("trace.untraced.op_p50_ms", get(summary, |s| s.p50_ms), "ms"),
                Metric::count("trace.spans", (setup_spans.len() + spans.len()) as f64),
                Metric::count("run.attempted", attempted as f64),
                Metric::count("run.failed", failed as f64),
                Metric::new(
                    "run.fail_frac",
                    failed as f64 / attempted.max(1) as f64,
                    "ratio",
                ),
            ]);
            write_trace(&record, &tracer.spans());
            // Every per-layer name, in the documented order.
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = layer
                        .iter()
                        .find(|m| m.name == name)
                        .map_or(0.0, |m| m.value);
                    Metric::new(name, value, unit)
                })
                .collect()
        }
    };

    let mut info = BTreeMap::new();
    info.insert("workload", args.workload.clone());
    info.insert("seed", args.seed.to_string());
    info.insert("seconds", args.seconds.to_string());
    info.insert("trace", u8::from(args.trace).to_string());
    info.insert(
        "size",
        if args.smoke { "smoke" } else { "full" }.to_string(),
    );
    info.insert("nproc", host::nproc().to_string());
    info.insert("pool_width", bench.threads().to_string());
    info.insert("rustc", host::rustc_version());
    info.insert("git_revision", host::git_revision());
    info.insert("binary_digest", host::binary_digest());
    info.insert("setup_reps", reps.to_string());
    if let Some(s) = summary {
        info.insert("op_samples", s.samples.to_string());
        info.insert("op_p50_ms", s.p50_ms.to_string());
        info.insert("op_tail_ms", s.tail_ms.to_string());
        info.insert("op_tail_percentile", s.tail_pct.to_string());
        info.insert("ops_per_s", s.ops_per_s.to_string());
    }
    info.insert(
        "fail_frac",
        (failed as f64 / attempted.max(1) as f64).to_string(),
    );
    info.insert("determinism_keys", digests.len().to_string());
    info.insert("notes", bench.notes().join("; "));
    Ok(Outcome {
        correct: failed == 0 && summary.is_some(),
        attempted,
        failed,
        metrics,
        info,
    })
}

/// Writes the run's spans once, at the end, under the scratch directory.
fn write_trace(record: &str, spans: &[Span]) {
    let path = host::work_path("trace").map(|d| d.join(format!("{record}.jsonl")));
    match path.and_then(|p| std::fs::write(&p, trace::to_jsonl(spans)).map(|()| p)) {
        Ok(p) => eprintln!("trace: {} spans written to {}", spans.len(), p.display()),
        Err(e) => eprintln!("trace: not written: {e}"),
    }
}

/// A JSON number: finite values as Rust prints them (every digit kept),
/// anything else as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    /// The provenance line: `{"info": {...}}`.
    pub fn info_json(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        format!("{{\"info\":{{{}}}}}", fields.join(","))
    }

    /// The result line the benchmark ends with.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
