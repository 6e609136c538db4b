//! Command execution for the `ttdc` binary.

use crate::args::{CampaignAction, Command, SynthAction, TopologySpec, DEFAULT_CATALOG_DIR, USAGE};
use crate::error::CliError;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::{Path, PathBuf};
use ttdc_core::analysis::optimality_ratio;
use ttdc_core::bounds::alpha_bound;
use ttdc_core::latency::{average_access_delay, worst_case_access_delay};
use ttdc_core::requirements::{requirement3_violation, spot_check_topology_transparent};
use ttdc_core::synth::search::{BranchResult, CoverSolution, SearchOptions};
use ttdc_core::synth::{catalog, synthesize, SynthOptions, SynthProblem, VerifyCache};
use ttdc_core::throughput::{average_throughput, min_throughput};
use ttdc_core::tsma::{build, build_duty_cycled, SourceKind};
use ttdc_core::{construct, io as sched_io, PartitionStrategy, Schedule};
use ttdc_experiments::GridScenario;
use ttdc_sim::campaign::{
    manifest_overview, CampaignOptions, ResumeMode, MERGED_FILE, SUMMARY_FILE,
};
use ttdc_sim::{
    CrashModel, FaultPlan, GeometricNetwork, GilbertElliott, ScheduleMac, SimulatorBuilder,
    Topology, TrafficPattern,
};

type CmdResult = Result<(), CliError>;

fn load_schedule(path: &str) -> Result<Schedule, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    sched_io::from_text(&text).map_err(|e| CliError::Schedule(format!("{path}: {e}")))
}

/// Above this many Requirement-3 configurations, fall back to sampling.
const EXHAUSTIVE_BUDGET: f64 = 5e7;

fn check_transparency(s: &Schedule, d: usize, out: &mut dyn Write) -> bool {
    let n = s.num_nodes() as u64;
    let configs = n as f64 * ttdc_util::binomial_f64(n - 1, d as u64);
    if configs <= EXHAUSTIVE_BUDGET {
        match requirement3_violation(s, d) {
            None => {
                writeln!(out, "topology-transparent for N_{n}^{d}: YES (exhaustive)").ok();
                true
            }
            Some(v) => {
                writeln!(
                    out,
                    "topology-transparent for N_{n}^{d}: NO — node {} cannot reach node {:?} \
                     when its other neighbours are {:?}",
                    v.x, v.y, v.interferers
                )
                .ok();
                false
            }
        }
    } else {
        match spot_check_topology_transparent(s, d, 100_000, 0xC0FFEE) {
            None => {
                writeln!(
                    out,
                    "topology-transparent for N_{n}^{d}: no violation in 100k samples \
                     (instance too large for the exhaustive check)"
                )
                .ok();
                true
            }
            Some(v) => {
                writeln!(
                    out,
                    "topology-transparent for N_{n}^{d}: NO — sampled violation at node {} → {:?}",
                    v.x, v.y
                )
                .ok();
                false
            }
        }
    }
}

/// Executes a parsed command, writing human-readable output to `out` and
/// diagnostics (build provenance) to `err`.
pub fn execute(cmd: &Command, out: &mut dyn Write, err: &mut dyn Write) -> CmdResult {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}").ok();
            Ok(())
        }
        Command::Build {
            nodes,
            degree,
            alpha_t,
            alpha_r,
            source,
            strategy,
            catalog: catalog_flag,
            output,
        } => {
            // Consult the best-known-schedule catalog first: an explicit
            // --catalog DIR always, the default location only if it exists.
            let catalog_dir = match catalog_flag {
                Some(p) => Some(PathBuf::from(p)),
                None => {
                    let p = PathBuf::from(DEFAULT_CATALOG_DIR);
                    p.is_dir().then_some(p)
                }
            };
            let mut from_catalog = None;
            if let Some(dir) = &catalog_dir {
                if *degree >= 1 && degree < nodes && *alpha_t >= 1 && *alpha_r >= 1 {
                    let p = SynthProblem::new(*nodes, *degree, *alpha_t, *alpha_r);
                    match catalog::load_entry(dir, &p).map_err(CliError::Schedule)? {
                        Some(entry) => {
                            let mut cache = VerifyCache::new();
                            catalog::validate_entry(&entry, &mut cache).map_err(|e| {
                                CliError::Schedule(format!(
                                    "{}: {e}",
                                    catalog::entry_path(dir, &p).display()
                                ))
                            })?;
                            from_catalog = Some(entry);
                        }
                        None => {
                            writeln!(
                                err,
                                "catalog  : no entry for n={nodes} D={degree} \
                                 alpha_t={alpha_t} alpha_r={alpha_r} in {} \
                                 (falling back to the Figure 2 construction)",
                                dir.display()
                            )
                            .ok();
                        }
                    }
                }
            }
            let (schedule, headline) = match &from_catalog {
                Some(entry) => {
                    let dir = catalog_dir.as_ref().unwrap();
                    writeln!(
                        err,
                        "source   : catalog ({}; {}, produced by {}, {} search nodes)",
                        catalog::entry_path(dir, &entry.problem).display(),
                        if entry.exact {
                            "proven optimal"
                        } else {
                            "best known"
                        },
                        entry.source,
                        entry.nodes
                    )
                    .ok();
                    writeln!(
                        err,
                        "verified : n={nodes} D={degree} alpha_t={alpha_t} alpha_r={alpha_r} \
                         re-checked by the naive Requirement 1/2/3 + CFF oracles"
                    )
                    .ok();
                    let headline = format!(
                        "built ({alpha_t}, {alpha_r})-schedule for N_{nodes}^{degree}: \
                         {} slots, duty cycle {:.1}% (catalog)",
                        entry.schedule.frame_length(),
                        100.0 * entry.schedule.average_duty_cycle(),
                    );
                    (entry.schedule.clone(), headline)
                }
                None => {
                    let ns = build(*nodes, *degree, *source).map_err(CliError::InvalidValue)?;
                    let c = construct(&ns.schedule, *degree, *alpha_t, *alpha_r, *strategy);
                    let substrate = match ns.kind {
                        SourceKind::Polynomial => "polynomial (orthogonal-array CFF)",
                        SourceKind::Steiner => "steiner (Steiner-triple-system CFF)",
                        SourceKind::Identity => "identity (TDMA)",
                    };
                    writeln!(err, "source   : figure2/{substrate}").ok();
                    writeln!(
                        err,
                        "verified : n={nodes} D={degree} alpha_t={alpha_t} alpha_r={alpha_r} \
                         by construction (Figure 2 over a {degree}-cover-free substrate)"
                    )
                    .ok();
                    let headline = format!(
                        "built ({alpha_t}, {alpha_r})-schedule for N_{nodes}^{degree}: \
                         {} slots, duty cycle {:.1}%, α_T* = {}",
                        c.schedule.frame_length(),
                        100.0 * c.schedule.average_duty_cycle(),
                        c.alpha_t_star
                    );
                    (c.schedule, headline)
                }
            };
            let text = sched_io::to_text(&schedule);
            writeln!(out, "{headline}").ok();
            match output {
                Some(path) => {
                    ttdc_util::write_atomic(Path::new(path), text.as_bytes())
                        .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                    writeln!(out, "wrote {path}").ok();
                }
                None => {
                    write!(out, "{text}").ok();
                }
            }
            Ok(())
        }
        Command::Synth(action) => synth(action, out),
        Command::Verify { degree, file } => {
            let s = load_schedule(file)?;
            writeln!(
                out,
                "{file}: n = {}, L = {}, duty cycle {:.1}%",
                s.num_nodes(),
                s.frame_length(),
                100.0 * s.average_duty_cycle()
            )
            .ok();
            if check_transparency(&s, *degree, out) {
                Ok(())
            } else {
                Err(CliError::VerificationFailed)
            }
        }
        Command::Analyze {
            degree,
            alphas,
            file,
        } => {
            let s = load_schedule(file)?;
            let d = *degree;
            let n = s.num_nodes();
            writeln!(out, "schedule : n = {n}, L = {}", s.frame_length()).ok();
            writeln!(out, "duty     : {:.2}%", 100.0 * s.average_duty_cycle()).ok();
            let transparent = check_transparency(&s, d, out);
            writeln!(out, "avg thr  : {:.6}", average_throughput(&s, d)).ok();
            if n <= 40 {
                writeln!(out, "min thr  : {:.6}", min_throughput(&s, d)).ok();
                if transparent {
                    if let (Some(worst), Some(mean)) =
                        (worst_case_access_delay(&s, d), average_access_delay(&s, d))
                    {
                        writeln!(
                            out,
                            "latency  : worst {worst} slots, mean {mean:.1} (arrival-averaged)"
                        )
                        .ok();
                    }
                }
            } else {
                writeln!(out, "min thr  : skipped (n > 40; exhaustive only)").ok();
            }
            if let Some((at, ar)) = alphas {
                let b = alpha_bound(n, d, *at, *ar);
                writeln!(
                    out,
                    "Thm-4 opt: {:.6} (α_T* = {})",
                    b.thr_star, b.alpha_t_star
                )
                .ok();
                writeln!(
                    out,
                    "opt ratio: {:.3} of the ({at}, {ar})-schedule optimum",
                    optimality_ratio(&s, d, *at, *ar)
                )
                .ok();
            }
            Ok(())
        }
        Command::Simulate {
            degree,
            topology,
            slots,
            rate,
            seed,
            per,
            burst,
            crash,
            drift,
            max_retries,
            trace_out,
            trace_perfetto,
            file,
        } => {
            let s = load_schedule(file)?;
            let n = s.num_nodes();
            let topo = match topology {
                TopologySpec::Ring => Topology::ring(n),
                TopologySpec::Line => Topology::line(n),
                TopologySpec::Star => Topology::star(n),
                TopologySpec::Grid(w, h) => {
                    if w * h != n {
                        return Err(CliError::InvalidValue(format!(
                            "grid {w}x{h} has {} cells but the schedule has n = {n}",
                            w * h
                        )));
                    }
                    Topology::grid(*w, *h)
                }
                TopologySpec::Geometric(gseed) => {
                    let mut rng = SmallRng::seed_from_u64(*gseed);
                    GeometricNetwork::random(n, 0.3, *degree, &mut rng).topology()
                }
            };
            if topo.max_degree() > *degree {
                writeln!(
                    out,
                    "note: topology max degree {} exceeds D = {degree}; guarantees void",
                    topo.max_degree()
                )
                .ok();
            }
            let mut faults = FaultPlan::default().with_per(*per).with_drift(*drift);
            if let Some((p_gb, p_bg)) = burst {
                faults = faults.with_burst(GilbertElliott::bursty(*p_gb, *p_bg));
            }
            if let Some((crash_p, recover_p)) = crash {
                faults = faults.with_crash(CrashModel::new(*crash_p, *recover_p));
            }
            if let Some(limit) = max_retries {
                faults = faults.with_max_retries(*limit);
            }
            let mac = ScheduleMac::new("cli", s);
            let mut builder =
                SimulatorBuilder::new(topo, TrafficPattern::PoissonUnicast { rate: *rate })
                    .seed(*seed)
                    .faults(faults);
            if trace_out.is_some() || trace_perfetto.is_some() {
                builder = builder.trace_capacity(1 << 16);
            }
            let mut sim = builder
                .build()
                .map_err(|e| CliError::InvalidValue(e.to_string()))?;
            sim.run(&mac, *slots);
            let r = sim.report();
            writeln!(out, "slots      : {}", r.slots).ok();
            writeln!(out, "generated  : {}", r.generated).ok();
            writeln!(
                out,
                "delivered  : {} ({:.1}%)",
                r.delivered,
                100.0 * r.delivery_ratio()
            )
            .ok();
            writeln!(out, "collisions : {}", r.collisions).ok();
            writeln!(
                out,
                "latency    : mean {:.1} slots, max {:.0}",
                r.latency.mean(),
                r.latency.max()
            )
            .ok();
            writeln!(
                out,
                "energy     : {:.1} mJ/node (duty {:.1}%)",
                r.energy.mean_mj(),
                100.0 * r.mean_duty_cycle()
            )
            .ok();
            if !faults.is_noop() {
                writeln!(
                    out,
                    "faults     : {} link drops ({:.1}%), {} crashes / {} recoveries, \
                     {} queue-lost, {} retry-exhausted",
                    r.link_drops,
                    100.0 * r.link_drop_rate(),
                    r.crashes,
                    r.recoveries,
                    r.crash_dropped,
                    r.retry_exhausted
                )
                .ok();
            }
            if let Some(path) = trace_out {
                ttdc_util::write_atomic(Path::new(path), r.trace.to_jsonl().as_bytes())
                    .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                writeln!(
                    out,
                    "trace      : wrote {} events to {path} (ring buffer keeps the last {})",
                    r.trace.len(),
                    1usize << 16
                )
                .ok();
            }
            if let Some(path) = trace_perfetto {
                let json = r.trace.to_perfetto(sim.energy_model().slot_seconds);
                ttdc_util::write_atomic(Path::new(path), json.as_bytes())
                    .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                writeln!(
                    out,
                    "perfetto   : wrote {} events to {path} (open in ui.perfetto.dev)",
                    r.trace.len()
                )
                .ok();
            }
            Ok(())
        }
        Command::Campaign(action) => campaign(action, out),
    }
}

/// Runs one `ttdc synth` action against the best-known-schedule catalog.
fn synth(action: &SynthAction, out: &mut dyn Write) -> CmdResult {
    match action {
        SynthAction::Run {
            nodes,
            degree,
            alpha_t,
            alpha_r,
            catalog: dir,
            max_nodes,
            polish,
            threads,
        } => {
            let p = SynthProblem::new(*nodes, *degree, *alpha_t, *alpha_r);
            let dir = Path::new(dir);
            let existing = catalog::load_entry(dir, &p).map_err(CliError::Schedule)?;
            if let Some(e) = &existing {
                writeln!(
                    out,
                    "resuming : catalog holds L = {} ({}) — seeding the incumbent",
                    e.schedule.frame_length(),
                    if e.exact {
                        "proven optimal"
                    } else {
                        "best known"
                    }
                )
                .ok();
            }
            let opts = SynthOptions {
                search: SearchOptions {
                    max_nodes: *max_nodes,
                    incumbent_len: existing.as_ref().map(|e| e.schedule.frame_length()),
                    ..SearchOptions::default()
                },
                polish_iters: polish.unwrap_or(200),
                ..SynthOptions::default()
            };
            let outcome = match threads {
                Some(t) => rayon::ThreadPoolBuilder::new()
                    .num_threads(*t)
                    .build()
                    .map_err(|e| CliError::Other(e.to_string()))?
                    .install(|| synthesize(&p, &opts)),
                None => synthesize(&p, &opts),
            };
            let fig2 = build_duty_cycled(
                *nodes,
                *degree,
                *alpha_t,
                *alpha_r,
                PartitionStrategy::RoundRobin,
            )
            .schedule
            .frame_length();
            let l = outcome.schedule.frame_length();
            writeln!(
                out,
                "synth    : L = {l} ({}), {} nodes expanded, {} pruned{}",
                if outcome.stats.exact {
                    "proven optimal"
                } else {
                    "search budget hit — best known"
                },
                outcome.stats.nodes,
                outcome.stats.pruned,
                if outcome.polish_improved {
                    ", improved by local search"
                } else {
                    ""
                }
            )
            .ok();
            writeln!(
                out,
                "figure2  : L = {fig2} ({})",
                if l < fig2 {
                    format!("synth saves {} slots", fig2 - l)
                } else {
                    "no improvement over the construction".to_string()
                }
            )
            .ok();
            let keep = matches!(&existing, Some(e) if e.schedule.frame_length() <= l);
            if keep {
                writeln!(out, "catalog  : kept the existing entry (not beaten)").ok();
            } else if l > fig2 {
                // A catalog entry longer than the Figure 2 construction
                // would be a frame-length regression for `ttdc build`.
                writeln!(
                    out,
                    "catalog  : not written (figure2 L = {fig2} is still the best known)"
                )
                .ok();
            } else {
                let entry = catalog::CatalogEntry {
                    problem: p,
                    fingerprint: outcome.fingerprint,
                    schedule: outcome.schedule,
                    exact: outcome.stats.exact,
                    nodes: outcome.stats.nodes,
                    source: if outcome.polish_improved {
                        "synth+polish".to_string()
                    } else {
                        "synth".to_string()
                    },
                    config: Some(opts.search.config_string()),
                };
                let mut cache = VerifyCache::new();
                catalog::validate_entry(&entry, &mut cache).map_err(|e| {
                    CliError::Other(format!("refusing to write catalog entry: {e}"))
                })?;
                let path = catalog::write_entry(dir, &entry)
                    .map_err(|e| CliError::Io(format!("{}: {e}", dir.display())))?;
                writeln!(out, "catalog  : wrote {}", path.display()).ok();
            }
            Ok(())
        }
        SynthAction::Campaign {
            nodes,
            degree,
            alpha_t,
            alpha_r,
            catalog: cat_dir,
            budget,
            polish: polish_iters,
            dir,
        } => synth_campaign(
            &SynthProblem::new(*nodes, *degree, *alpha_t, *alpha_r),
            Path::new(cat_dir),
            budget.unwrap_or(DEFAULT_CAMPAIGN_BUDGET),
            polish_iters.unwrap_or(200),
            Path::new(dir),
            out,
        ),
        SynthAction::Status { catalog: dir, json } => {
            let dir = Path::new(dir);
            let entries = catalog::load_all(dir);
            if entries.is_empty() {
                writeln!(out, "catalog {}: empty", dir.display()).ok();
                if let Some(path) = json {
                    let empty = serde_json::json!({"catalog": dir.display().to_string(),
                        "entries": Vec::<serde_json::Value>::new(), "failures": 0});
                    ttdc_util::write_atomic(
                        Path::new(path),
                        serde_json::to_string_pretty(&empty)
                            .expect("infallible")
                            .as_bytes(),
                    )
                    .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                }
                return Ok(());
            }
            let mut cache = VerifyCache::new();
            let mut failures = 0usize;
            let mut report = Vec::new();
            for (path, parsed) in &entries {
                let name = path
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string());
                match parsed {
                    Err(e) => {
                        failures += 1;
                        writeln!(out, "{name}: UNREADABLE — {e}").ok();
                        report.push(serde_json::json!({
                            "file": name, "status": "unreadable", "error": e,
                        }));
                    }
                    Ok(entry) => {
                        let p = &entry.problem;
                        let l = entry.schedule.frame_length();
                        let fig2 = build_duty_cycled(
                            p.n,
                            p.d,
                            p.alpha_t,
                            p.alpha_r,
                            PartitionStrategy::RoundRobin,
                        )
                        .schedule
                        .frame_length();
                        let (status, verdict) = match catalog::validate_entry(entry, &mut cache) {
                            // A catalog entry that is *worse* than the
                            // Figure 2 construction is a frame-length
                            // regression: `ttdc build` would prefer it and
                            // get a longer frame.
                            Ok(()) if l > fig2 => {
                                failures += 1;
                                (
                                    "regression",
                                    format!("REGRESSION — longer than figure2 (L = {fig2})"),
                                )
                            }
                            Ok(()) => ("ok", "verify OK".to_string()),
                            Err(e) => {
                                failures += 1;
                                ("invalid", format!("INVALID — {e}"))
                            }
                        };
                        writeln!(
                            out,
                            "{name}: n={} D={} alpha=({},{}) L={l} vs figure2 L={fig2} \
                             ({}, source={}, {} nodes) — {verdict}",
                            p.n,
                            p.d,
                            p.alpha_t,
                            p.alpha_r,
                            if entry.exact { "exact" } else { "best-known" },
                            entry.source,
                            entry.nodes
                        )
                        .ok();
                        report.push(serde_json::json!({
                            "file": name,
                            "status": status,
                            "n": p.n, "degree": p.d,
                            "alpha_t": p.alpha_t, "alpha_r": p.alpha_r,
                            "frame_length": l,
                            "figure2_frame_length": fig2,
                            "exact": entry.exact,
                            "source": entry.source.clone(),
                            "search_nodes": entry.nodes,
                            "search_config": entry
                                .config
                                .clone()
                                .map_or(serde_json::Value::Null, serde_json::Value::String),
                            "fingerprint": format!("0x{:016x}", entry.fingerprint),
                        }));
                    }
                }
            }
            if let Some(path) = json {
                let doc = serde_json::json!({
                    "catalog": dir.display().to_string(),
                    "entries": report,
                    "failures": failures,
                });
                ttdc_util::write_atomic(
                    Path::new(path),
                    serde_json::to_string_pretty(&doc)
                        .expect("infallible")
                        .as_bytes(),
                )
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                writeln!(out, "json     : wrote {path}").ok();
            }
            if failures > 0 {
                writeln!(out, "{failures} catalog entr(y/ies) failed validation").ok();
                return Err(CliError::VerificationFailed);
            }
            writeln!(out, "{} entr(y/ies), all verified", entries.len()).ok();
            Ok(())
        }
    }
}

/// Default per-root-branch node budget for `ttdc synth campaign`.
const DEFAULT_CAMPAIGN_BUDGET: u64 = 2_000_000;

/// Manifest `kind` for synthesis campaigns.
const SYNTH_CAMPAIGN_KIND: &str = "synth-campaign";

/// Env var: abort the process after this many branch checkpoints (test/CI
/// hook that simulates a SIGKILL at a fixed point in the campaign).
pub const SYNTH_KILL_AFTER_ENV: &str = "TTDC_SYNTH_KILL_AFTER";

/// Runs one parameter point as a checkpointed, kill-resumable search
/// campaign: each root branch is searched under its own node budget with a
/// *fresh* incumbent (so its result is independent of execution order and
/// kill history), checkpointed to `dir/manifest.jsonl`, and the surviving
/// branches reduce to the same winner an uninterrupted run would find.
/// One checkpointed root branch as a synth-campaign manifest record.
fn encode_branch_record(r: &BranchResult) -> serde_json::Value {
    serde_json::json!({
        "best": r.best.as_ref().map_or(serde_json::Value::Null, |b| {
            serde_json::Value::Array(b.slots.iter().map(|&c| serde_json::Value::from(c)).collect())
        }),
        "nodes": r.nodes,
        "pruned": r.pruned,
        "exhausted": r.exhausted,
    })
}

/// Reads back a record written by [`encode_branch_record`]. Every field
/// is required and typed: a record without `exhausted` must not read as
/// "not budget-limited", or a budget-hit campaign would be reported as
/// proven optimal.
fn decode_branch_record(id: &str, payload: &serde_json::Value) -> Result<BranchResult, CliError> {
    let bad = |what: String| CliError::Campaign(format!("branch {id}: {what}"));
    let field = |k: &str| {
        payload
            .get(k)
            .ok_or_else(|| bad(format!("record has no `{k}` field")))
    };
    let count = |k: &str| {
        field(k)?
            .as_u64()
            .ok_or_else(|| bad(format!("`{k}` is not a non-negative integer")))
    };
    let best = match field("best")? {
        serde_json::Value::Null => None,
        serde_json::Value::Array(ids) => Some(CoverSolution {
            slots: ids
                .iter()
                .map(|v| v.as_u64().and_then(|c| u32::try_from(c).ok()))
                .collect::<Option<Vec<u32>>>()
                .ok_or_else(|| bad("`best` holds an invalid slot id".into()))?,
        }),
        _ => return Err(bad("`best` is neither null nor a list of slot ids".into())),
    };
    Ok(BranchResult {
        best,
        nodes: count("nodes")?,
        pruned: count("pruned")?,
        exhausted: field("exhausted")?
            .as_bool()
            .ok_or_else(|| bad("`exhausted` is not a boolean".into()))?,
    })
}

fn synth_campaign(
    p: &SynthProblem,
    cat_dir: &Path,
    budget: u64,
    polish_iters: u64,
    dir: &Path,
    out: &mut dyn Write,
) -> CmdResult {
    use std::sync::atomic::AtomicUsize;
    use ttdc_core::synth::demands::{CandidateSpace, DemandSpace};
    use ttdc_core::synth::search::{plan_root, search_root_branch};
    use ttdc_sim::campaign::Manifest;

    let existing = catalog::load_entry(cat_dir, p).map_err(CliError::Schedule)?;
    let space = DemandSpace::new(p.n, p.d);
    let cands = CandidateSpace::new(&space, p.alpha_t, p.alpha_r);
    let opts = SearchOptions {
        max_nodes: Some(budget),
        incumbent_len: existing.as_ref().map(|e| e.schedule.frame_length()),
        ..SearchOptions::default()
    };
    let plan = plan_root(&space, &cands, &opts);
    writeln!(
        out,
        "campaign : n={} D={} alpha=({},{}) — {} root branch(es) ({} before symmetry), \
         budget {budget} nodes each, seed L = {}",
        p.n,
        p.d,
        p.alpha_t,
        p.alpha_r,
        plan.branch_cands.len(),
        plan.root_branches_total,
        plan.seed_len,
    )
    .ok();

    // The fingerprint binds everything that shapes a branch result; a
    // manifest from different parameters, budget, seed or search config
    // must not be resumed into.
    let config = opts.config_string();
    let fp = ttdc_util::fnv1a64(
        format!(
            "synth-campaign n={} d={} at={} ar={} budget={} seed_len={} branches={} {config}",
            p.n,
            p.d,
            p.alpha_t,
            p.alpha_r,
            budget,
            plan.seed_len,
            plan.branch_cands.len(),
        )
        .as_bytes(),
    );
    let manifest_path = dir.join("manifest.jsonl");
    let mut manifest = if manifest_path.exists() {
        let m = Manifest::load(&manifest_path, SYNTH_CAMPAIGN_KIND, Some(fp))
            .map_err(|e| CliError::Campaign(e.to_string()))?;
        writeln!(
            out,
            "resuming : {}/{} branch(es) already checkpointed",
            m.len(),
            plan.branch_cands.len()
        )
        .ok();
        m
    } else {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Io(format!("{}: {e}", dir.display())))?;
        Manifest::new(
            SYNTH_CAMPAIGN_KIND,
            fp,
            serde_json::json!({
                "n": p.n, "degree": p.d, "alpha_t": p.alpha_t, "alpha_r": p.alpha_r,
                "budget": budget, "seed_len": plan.seed_len, "config": config.clone(),
            }),
        )
    };

    let kill_after: Option<usize> = std::env::var(SYNTH_KILL_AFTER_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    let mut checkpoints_this_run = 0usize;
    for index in 0..plan.branch_cands.len() {
        let id = format!("b{index}");
        if manifest.get(&id).is_some() {
            continue;
        }
        // A fresh incumbent per branch: the checkpointed result must not
        // depend on which other branches happened to finish first.
        let shared = AtomicUsize::new(plan.seed_len);
        let r = search_root_branch(&space, &cands, &opts, &plan, index, &shared);
        manifest.put(&id, encode_branch_record(&r));
        manifest
            .save(&manifest_path)
            .map_err(|e| CliError::Campaign(e.to_string()))?;
        checkpoints_this_run += 1;
        if let Some(limit) = kill_after {
            if checkpoints_this_run >= limit {
                eprintln!(
                    "synth campaign: {SYNTH_KILL_AFTER_ENV}={limit} reached after \
                     {checkpoints_this_run} checkpoint(s); aborting"
                );
                std::process::abort();
            }
        }
    }

    // Ordered reduce over the checkpointed branches, identical to
    // `minimum_cover`'s: start from the greedy seed, adopt any branch best
    // that wins under the (len, lex) rule, tally effort.
    let mut best = plan.greedy.clone();
    let mut total_nodes = 0u64;
    let mut total_pruned = 0u64;
    let mut any_budget_hit = false;
    for index in 0..plan.branch_cands.len() {
        let id = format!("b{index}");
        let payload = manifest
            .get(&id)
            .ok_or_else(|| CliError::Campaign(format!("manifest lost branch {id}")))?;
        let r = decode_branch_record(&id, payload)?;
        total_nodes += r.nodes;
        total_pruned += r.pruned;
        any_budget_hit |= r.exhausted;
        if let Some(sol) = r.best.filter(|sol| sol.better_than(&best)) {
            best = sol;
        }
    }
    let exact = !any_budget_hit;
    let mut sol = best;
    let mut polish_improved = false;
    if !exact && polish_iters > 0 {
        let polished = ttdc_core::synth::polish(&space, &cands, &sol, 0x5EED, polish_iters);
        if polished.slots.len() < sol.slots.len() {
            sol = polished;
            polish_improved = true;
        }
    }
    let schedule = cands.schedule(p.n, &sol.slots);
    let l = schedule.frame_length();
    writeln!(
        out,
        "campaign : L = {l} ({}), {total_nodes} nodes expanded, {total_pruned} pruned{}",
        if exact {
            "proven optimal"
        } else {
            "branch budgets hit — best known"
        },
        if polish_improved {
            ", improved by local search"
        } else {
            ""
        }
    )
    .ok();

    let fig2 = build_duty_cycled(
        p.n,
        p.d,
        p.alpha_t,
        p.alpha_r,
        PartitionStrategy::RoundRobin,
    )
    .schedule
    .frame_length();
    writeln!(
        out,
        "figure2  : L = {fig2} ({})",
        if l < fig2 {
            format!("campaign saves {} slots", fig2 - l)
        } else {
            "no improvement over the construction".to_string()
        }
    )
    .ok();
    let keep = matches!(&existing, Some(e) if e.schedule.frame_length() <= l);
    if keep {
        writeln!(out, "catalog  : kept the existing entry (not beaten)").ok();
    } else if l > fig2 {
        writeln!(
            out,
            "catalog  : not written (figure2 L = {fig2} is still the best known)"
        )
        .ok();
    } else {
        let entry = catalog::CatalogEntry {
            problem: *p,
            fingerprint: schedule.canonical_fingerprint(),
            schedule,
            exact,
            nodes: total_nodes,
            source: if polish_improved {
                "campaign+polish".to_string()
            } else {
                "campaign".to_string()
            },
            config: Some(config),
        };
        let mut cache = VerifyCache::new();
        catalog::validate_entry(&entry, &mut cache)
            .map_err(|e| CliError::Other(format!("refusing to write catalog entry: {e}")))?;
        let path = catalog::write_entry(cat_dir, &entry)
            .map_err(|e| CliError::Io(format!("{}: {e}", cat_dir.display())))?;
        writeln!(out, "catalog  : wrote {}", path.display()).ok();
    }
    Ok(())
}

/// Runs one `ttdc campaign` action through the crash-resilient runner.
fn campaign(action: &CampaignAction, out: &mut dyn Write) -> CmdResult {
    match action {
        CampaignAction::Run {
            grid,
            dir,
            reps,
            seed,
            shard_size,
        } => {
            let mut g = ttdc_experiments::grid(grid).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown grid {grid:?}; available: {}",
                    ttdc_experiments::grid_names().join(", ")
                ))
            })?;
            if let Some(r) = reps {
                g.spec.reps = *r;
            }
            if let Some(s) = seed {
                g.spec.base_seed = *s;
            }
            if let Some(k) = shard_size {
                g.spec.shard_size = *k;
            }
            run_grid(&g, Path::new(dir), ResumeMode::Fresh, out)
        }
        CampaignAction::Resume { dir } => {
            let path = Path::new(dir);
            let (m, _, _) =
                manifest_overview(path).map_err(|e| CliError::Campaign(e.to_string()))?;
            let name = m
                .header
                .get("campaign")
                .and_then(|v| v.as_str())
                .ok_or_else(|| CliError::Campaign(format!("{dir}: manifest names no campaign")))?
                .to_string();
            let mut g = ttdc_experiments::grid(&name).ok_or_else(|| {
                CliError::Campaign(format!(
                    "{dir}: manifest names unknown grid {name:?}; available: {}",
                    ttdc_experiments::grid_names().join(", ")
                ))
            })?;
            // Adopt the manifest's sharding constants so a campaign started
            // with --reps/--seed/--shard-size overrides resumes with the
            // same work units; the fingerprint check inside the runner still
            // rejects any real drift.
            let h = |k: &str| m.header.get(k).and_then(|v| v.as_u64());
            if let Some(v) = h("reps") {
                g.spec.reps = v;
            }
            if let Some(v) = h("base_seed") {
                g.spec.base_seed = v;
            }
            if let Some(v) = h("shard_size") {
                g.spec.shard_size = v;
            }
            if let Some(v) = h("slots_hint") {
                g.spec.slots_hint = v;
            }
            run_grid(&g, path, ResumeMode::Resume, out)
        }
        CampaignAction::Status { dir } => {
            let path = Path::new(dir);
            let (m, total, quarantined) =
                manifest_overview(path).map_err(|e| CliError::Campaign(e.to_string()))?;
            let name = m
                .header
                .get("campaign")
                .and_then(|v| v.as_str())
                .unwrap_or("?");
            writeln!(
                out,
                "campaign {name:?}: {}/{} shard(s) checkpointed, {} quarantined",
                m.len(),
                total,
                quarantined
            )
            .ok();
            if m.len() < total {
                writeln!(out, "resume with: ttdc campaign resume {dir}").ok();
            }
            Ok(())
        }
    }
}

/// Executes a grid, writes the merged outputs, and reports progress.
/// A degraded campaign (quarantined shards) still exits 0 — partial
/// results beat none, and the merged output records the gap.
fn run_grid(g: &GridScenario, dir: &Path, mode: ResumeMode, out: &mut dyn Write) -> CmdResult {
    let spec = &g.spec;
    writeln!(
        out,
        "campaign {:?}: {} point(s) × {} replication(s) in {} shard(s)",
        spec.name,
        spec.points.len(),
        spec.reps,
        spec.shards().len()
    )
    .ok();
    let outcome = g
        .run(Some(dir), mode, &CampaignOptions::default())
        .map_err(|e| CliError::Campaign(e.to_string()))?;
    outcome
        .write_outputs(spec, dir)
        .map_err(|e| CliError::Io(format!("{}: {e}", dir.display())))?;
    writeln!(
        out,
        "executed {} shard(s), reused {} from the checkpoint",
        outcome.executed_shards, outcome.reused_shards
    )
    .ok();
    for q in &outcome.quarantined {
        writeln!(
            out,
            "quarantined shard {} (point {:?}): {} — reproduce with seed {}",
            q.shard, spec.points[q.point].label, q.message, q.seed
        )
        .ok();
    }
    if outcome.degraded {
        writeln!(
            out,
            "campaign degraded: the merged output is missing the quarantined shard(s)"
        )
        .ok();
    }
    writeln!(
        out,
        "wrote {} and {}",
        dir.join(MERGED_FILE).display(),
        dir.join(SUMMARY_FILE).display()
    )
    .ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn run_str(args: &[&str]) -> (i32, String) {
        let mut buf = Vec::new();
        let code = run(args.iter().map(|s| s.to_string()), &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    fn run_streams(args: &[&str]) -> (i32, String, String) {
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = crate::run_with_streams(args.iter().map(|s| s.to_string()), &mut out, &mut err);
        (
            code,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("ttdc-cli-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_str(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn bad_args_exit_2() {
        let (code, out) = run_str(&["bogus"]);
        assert_eq!(code, 2);
        assert!(out.contains("error:") && out.contains("USAGE"));
    }

    #[test]
    fn build_verify_analyze_simulate_pipeline() {
        let file = tmp("pipeline.sched");
        let (code, out) = run_str(&[
            "build",
            "--nodes",
            "16",
            "--degree",
            "2",
            "--alpha-t",
            "2",
            "--alpha-r",
            "3",
            "--output",
            &file,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("duty cycle"));

        let (code, out) = run_str(&["verify", "--degree", "2", &file]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("YES (exhaustive)"));

        let (code, out) = run_str(&[
            "analyze",
            "--degree",
            "2",
            "--alpha-t",
            "2",
            "--alpha-r",
            "3",
            &file,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("avg thr") && out.contains("opt ratio") && out.contains("latency"));

        let (code, out) = run_str(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--slots",
            "5000",
            "--rate",
            "0.005",
            &file,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("delivered"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn build_to_stdout_emits_schedule_format() {
        let (code, out) = run_str(&[
            "build",
            "--nodes",
            "9",
            "--degree",
            "2",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
            "--source",
            "steiner",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("ttdc-schedule v1"));
    }

    #[test]
    fn verify_fails_on_non_transparent_schedule() {
        // Build with degree 2, verify against degree 4: the q=3 family
        // cannot support D=4 with all 9 nodes... build n=9 via polynomial
        // (q=5 supports D≤4), so craft a failing case via identity-derived
        // truncation instead: a schedule where a node never listens.
        let file = tmp("broken.sched");
        std::fs::write(
            &file,
            "ttdc-schedule v1\nn=3 L=3\nT=0 R=2\nT=1 R=0\nT=2 R=0,1\n",
        )
        .unwrap();
        let (code, out) = run_str(&["verify", "--degree", "1", &file]);
        assert_eq!(code, 6, "{out}");
        assert!(out.contains("NO"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn missing_file_exits_4() {
        let (code, out) = run_str(&["verify", "--degree", "2", "/nonexistent/x.sched"]);
        assert_eq!(code, 4);
        assert!(out.contains("error:"));
    }

    #[test]
    fn malformed_schedule_exits_5() {
        let file = tmp("malformed.sched");
        std::fs::write(&file, "this is not a schedule\n").unwrap();
        let (code, out) = run_str(&["verify", "--degree", "2", &file]);
        assert_eq!(code, 5, "{out}");
        assert!(out.contains("error:"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn grid_size_mismatch_is_rejected() {
        let file = tmp("grid.sched");
        run_str(&[
            "build",
            "--nodes",
            "9",
            "--degree",
            "2",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
            "--output",
            &file,
        ]);
        let (code, out) = run_str(&["simulate", "--degree", "2", "--topology", "grid=4x4", &file]);
        assert_eq!(code, 3);
        assert!(out.contains("grid 4x4"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn simulate_with_faults_reports_degradation() {
        let file = tmp("faults.sched");
        run_str(&[
            "build",
            "--nodes",
            "16",
            "--degree",
            "2",
            "--alpha-t",
            "2",
            "--alpha-r",
            "3",
            "--output",
            &file,
        ]);
        let (code, out) = run_str(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--slots",
            "4000",
            "--rate",
            "0.01",
            "--per",
            "0.2",
            "--crash-rate",
            "0.002,0.1",
            "--drift",
            "0.001",
            "--max-retries",
            "5",
            &file,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("faults"), "{out}");
        assert!(out.contains("link drops"), "{out}");
        assert!(out.contains("retry-exhausted"), "{out}");

        // Fault-free runs don't print the faults line.
        let (code, out) = run_str(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--slots",
            "1000",
            &file,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("faults"), "{out}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn invalid_fault_knobs_are_reported_not_panicked() {
        // Out-of-domain values are caught at parse time (exit 3), before
        // any schedule is read.
        let (code, out) = run_str(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--per",
            "1.5",
            "whatever.sched",
        ]);
        assert_eq!(code, 3, "{out}");
        assert!(out.contains("per-link error rate"), "{out}");
        let (code, out) = run_str(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--rate",
            "NaN",
            "whatever.sched",
        ]);
        assert_eq!(code, 3, "{out}");
        assert!(out.contains("--rate"), "{out}");
    }

    #[test]
    fn trace_out_writes_jsonl() {
        let file = tmp("trace.sched");
        let trace = tmp("trace.jsonl");
        run_str(&[
            "build",
            "--nodes",
            "9",
            "--degree",
            "2",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
            "--output",
            &file,
        ]);
        let (code, out) = run_str(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--slots",
            "500",
            "--rate",
            "0.05",
            "--trace-out",
            &trace,
            &file,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("trace"), "{out}");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(!body.is_empty());
        for line in body.lines() {
            assert!(
                line.starts_with("{\"slot\":") && line.ends_with('}'),
                "malformed JSONL line: {line}"
            );
        }
        assert!(body.contains("\"event\":\"generated\""), "{body}");
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn trace_perfetto_writes_trace_event_json() {
        let file = tmp("perfetto.sched");
        let trace = tmp("perfetto.json");
        run_str(&[
            "build",
            "--nodes",
            "9",
            "--degree",
            "2",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
            "--output",
            &file,
        ]);
        let (code, out) = run_str(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--slots",
            "500",
            "--rate",
            "0.05",
            "--trace-perfetto",
            &trace,
            &file,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("perfetto"), "{out}");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");
        assert!(body.trim_end().ends_with("]}"), "{body}");
        // Node tracks plus at least one duration slice made it through.
        assert!(body.contains("\"thread_name\""), "{body}");
        assert!(body.contains("\"ph\":\"X\""), "{body}");
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn geometric_simulation_runs() {
        let file = tmp("geo.sched");
        run_str(&[
            "build",
            "--nodes",
            "12",
            "--degree",
            "3",
            "--alpha-t",
            "2",
            "--alpha-r",
            "3",
            "--output",
            &file,
        ]);
        let (code, out) = run_str(&[
            "simulate",
            "--degree",
            "3",
            "--topology",
            "geometric=5",
            "--slots",
            "3000",
            &file,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("energy"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn build_reports_source_and_parameters_on_stderr() {
        let (code, out, err) = run_streams(&[
            "build",
            "--nodes",
            "16",
            "--degree",
            "2",
            "--alpha-t",
            "2",
            "--alpha-r",
            "3",
        ]);
        assert_eq!(code, 0, "{err}");
        // The schedule goes to stdout, the provenance to stderr.
        assert!(out.contains("ttdc-schedule v1"), "{out}");
        assert!(!out.contains("source   :"), "{out}");
        assert!(
            err.contains("source   : figure2/polynomial (orthogonal-array CFF)"),
            "{err}"
        );
        assert!(
            err.contains("verified : n=16 D=2 alpha_t=2 alpha_r=3"),
            "{err}"
        );
        // Runtime errors also land on stderr, not stdout.
        let (code, out, err) = run_streams(&["verify", "--degree", "2", "/nonexistent/x.sched"]);
        assert_eq!(code, 4);
        assert!(!out.contains("error:"), "{out}");
        assert!(err.contains("error:"), "{err}");
    }

    #[test]
    fn synth_status_fails_on_a_missing_catalog_directory() {
        // A mistyped --catalog path must fail the gate, not read as an
        // empty catalog that trivially passes.
        let (code, out) = run_str(&["synth", "status", "--catalog", "/no/such/dir"]);
        assert_ne!(code, 0, "{out}");
        assert!(
            out.contains("cannot read catalog directory /no/such/dir"),
            "{out}"
        );
    }

    #[test]
    fn synth_run_status_and_catalog_build_round_trip() {
        let dir = tmp("catalog");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // An empty catalog reports as such.
        let (code, out) = run_str(&["synth", "status", "--catalog", &dir]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("empty"), "{out}");

        // First run: exact search, entry written.
        let point = [
            "--nodes",
            "5",
            "--degree",
            "1",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
        ];
        let mut argv = vec!["synth", "run"];
        argv.extend_from_slice(&point);
        argv.extend_from_slice(&["--catalog", &dir, "--threads", "2"]);
        let (code, out) = run_str(&argv);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("proven optimal"), "{out}");
        assert!(out.contains("catalog  : wrote"), "{out}");

        // Second run resumes from the catalog and cannot beat the optimum.
        let (code, out) = run_str(&argv);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("resuming : catalog holds"), "{out}");
        assert!(out.contains("kept the existing entry"), "{out}");

        // Status re-verifies the committed entry.
        let (code, out) = run_str(&["synth", "status", "--catalog", &dir]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verify OK"), "{out}");
        assert!(out.contains("all verified"), "{out}");

        // `ttdc build --catalog` consults the entry and says so on stderr.
        let mut argv = vec!["build"];
        argv.extend_from_slice(&point);
        argv.extend_from_slice(&["--catalog", &dir]);
        let (code, out, err) = run_streams(&argv);
        assert_eq!(code, 0, "{err}");
        assert!(err.contains("source   : catalog ("), "{err}");
        assert!(err.contains("re-checked by the naive"), "{err}");
        assert!(out.contains("(catalog)"), "{out}");
        assert!(out.contains("ttdc-schedule v1"), "{out}");

        // A point the catalog does not hold falls back, with a note.
        let (code, _, err) = run_streams(&[
            "build",
            "--nodes",
            "6",
            "--degree",
            "1",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
            "--catalog",
            &dir,
        ]);
        assert_eq!(code, 0, "{err}");
        assert!(err.contains("catalog  : no entry"), "{err}");
        assert!(err.contains("source   : figure2/"), "{err}");

        // A tampered entry fails status (exit 6) and fails build (exit 5).
        let entry_path = format!("{dir}/n005_d1_at1_ar2.sched");
        let good = std::fs::read_to_string(&entry_path).unwrap();
        let tampered: String = good
            .lines()
            .map(|l| {
                if let Some(hex) = l.strip_prefix("# fingerprint=0x") {
                    let flipped = if hex.ends_with('0') { "1" } else { "0" };
                    format!("# fingerprint=0x{}{flipped}\n", &hex[..hex.len() - 1])
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        std::fs::write(&entry_path, tampered).unwrap();
        let (code, out) = run_str(&["synth", "status", "--catalog", &dir]);
        assert_eq!(code, 6, "{out}");
        assert!(out.contains("INVALID"), "{out}");
        let mut argv = vec!["build"];
        argv.extend_from_slice(&point);
        argv.extend_from_slice(&["--catalog", &dir]);
        let (code, _, err) = run_streams(&argv);
        assert_eq!(code, 5, "{err}");
        assert!(err.contains("fingerprint"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_run_status_resume_round_trip() {
        let dir = tmp("campaign-smoke");
        std::fs::remove_dir_all(&dir).ok();

        let (code, out) = run_str(&["campaign", "run", "--grid", "smoke", &dir]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("executed 8 shard(s)"), "{out}");
        assert!(out.contains("merged.jsonl"), "{out}");
        let merged = std::fs::read_to_string(format!("{dir}/merged.jsonl")).unwrap();
        assert!(merged.contains("\"schema_version\""), "{merged}");

        let (code, out) = run_str(&["campaign", "status", &dir]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("8/8 shard(s) checkpointed"), "{out}");

        // Fresh mode refuses a directory that already holds a manifest.
        let (code, out) = run_str(&["campaign", "run", "--grid", "smoke", &dir]);
        assert_eq!(code, 7, "{out}");
        assert!(out.contains("resume"), "{out}");

        // Resuming a complete campaign reuses every shard and rewrites the
        // same merged output.
        let (code, out) = run_str(&["campaign", "resume", &dir]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("executed 0 shard(s), reused 8"), "{out}");
        assert_eq!(
            std::fs::read_to_string(format!("{dir}/merged.jsonl")).unwrap(),
            merged,
            "resume must reproduce the merged output byte-for-byte"
        );
        std::fs::remove_dir_all(&dir).ok();

        // Unknown grids are usage errors that list the real ones.
        let (code, out) = run_str(&["campaign", "run", "--grid", "nope", &tmp("cx")]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("smoke"), "{out}");

        // Status and resume on an empty directory are campaign errors.
        let empty = tmp("campaign-empty");
        std::fs::create_dir_all(&empty).unwrap();
        let (code, _) = run_str(&["campaign", "status", &empty]);
        assert_eq!(code, 7);
        let (code, _) = run_str(&["campaign", "resume", &empty]);
        assert_eq!(code, 7);
        std::fs::remove_dir_all(&empty).ok();
    }

    fn branch_record() -> ttdc_core::synth::search::BranchResult {
        ttdc_core::synth::search::BranchResult {
            best: Some(ttdc_core::synth::search::CoverSolution {
                slots: vec![0, 5, 11],
            }),
            nodes: 3_001,
            pruned: 2_007,
            exhausted: true,
        }
    }

    fn with_field(key: &str, value: Option<serde_json::Value>) -> serde_json::Value {
        let mut record = super::encode_branch_record(&branch_record());
        let serde_json::Value::Object(fields) = &mut record else {
            unreachable!("a branch record is an object");
        };
        match value {
            Some(v) => fields.insert(key.to_string(), v),
            None => fields.remove(key),
        };
        record
    }

    #[test]
    fn branch_records_round_trip() {
        let r = branch_record();
        let back = super::decode_branch_record("b0", &super::encode_branch_record(&r));
        assert_eq!(back, Ok(r));
        let empty = ttdc_core::synth::search::BranchResult {
            best: None,
            exhausted: false,
            ..branch_record()
        };
        let back = super::decode_branch_record("b0", &super::encode_branch_record(&empty));
        assert_eq!(back, Ok(empty));
    }

    #[test]
    fn branch_record_missing_a_field_is_a_campaign_error() {
        // A record without `exhausted` must not read as "not
        // budget-limited": that would commit a budget-hit run as proven
        // optimal.
        for key in ["exhausted", "nodes", "pruned", "best"] {
            match super::decode_branch_record("b3", &with_field(key, None)) {
                Err(crate::error::CliError::Campaign(m)) => {
                    assert!(m.contains("branch b3") && m.contains(key), "{key}: {m}")
                }
                other => panic!("{key}: expected a campaign error, got {other:?}"),
            }
        }
    }

    #[test]
    fn branch_record_with_a_mistyped_field_is_a_campaign_error() {
        use serde_json::Value;
        let cases = [
            ("nodes", Value::from("3001")),
            ("nodes", Value::from(1.5)),
            ("pruned", Value::from(-1.0)),
            ("exhausted", Value::from(1u64)),
            ("best", Value::from("0 5 11")),
            (
                "best",
                Value::Array(vec![Value::from(0u64), Value::from(-2.0)]),
            ),
            ("best", Value::Array(vec![Value::from(4_294_967_296u64)])),
        ];
        for (key, value) in cases {
            match super::decode_branch_record("b1", &with_field(key, Some(value.clone()))) {
                Err(crate::error::CliError::Campaign(m)) => {
                    assert!(m.contains("branch b1") && m.contains(key), "{key}: {m}")
                }
                other => panic!("{key} = {value:?}: expected a campaign error, got {other:?}"),
            }
        }
    }
}
