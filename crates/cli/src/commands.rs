//! Command execution for the `ttdc` binary.

use crate::args::{
    point, CampaignAction, Command, SynthAction, TopologySpec, DEFAULT_CATALOG_DIR, USAGE,
};
use crate::error::CliError;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::{Path, PathBuf};
use ttdc_core::analysis::optimality_ratio;
use ttdc_core::bounds::alpha_bound;
use ttdc_core::latency::{average_access_delay, worst_case_access_delay};
use ttdc_core::requirements::{requirement3_violation, spot_check_topology_transparent};
use ttdc_core::synth::search::SearchOptions;
use ttdc_core::synth::{
    catalog, synthesize_checkpointed, SynthError, SynthEvent, SynthOptions, SynthProblem,
    VerifyCache,
};
use ttdc_core::throughput::{average_throughput, min_throughput};
use ttdc_core::tsma::{build, SourceKind};
use ttdc_core::{construct, io as sched_io, Schedule};
use ttdc_experiments::GridScenario;
use ttdc_sim::campaign::{manifest_overview, ResumeMode, MERGED_FILE, SUMMARY_FILE};
use ttdc_sim::{
    CrashModel, FaultPlan, GeometricNetwork, GilbertElliott, ScheduleMac, SimulatorBuilder,
    Topology, TrafficPattern,
};

type CmdResult = Result<(), CliError>;

fn load_schedule(path: &str) -> Result<Schedule, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    sched_io::from_text(&text).map_err(|e| CliError::Schedule(format!("{path}: {e}")))
}

/// Loads the schedule a `--degree D` verb reads and checks `1 ≤ D < n`
/// against its node count, the domain every Requirement and bound over
/// `N_n^D` is defined on.
fn load_schedule_for_degree(path: &str, d: usize) -> Result<Schedule, CliError> {
    let s = load_schedule(path)?;
    let n = s.num_nodes();
    if d < 1 || d >= n {
        return Err(CliError::InvalidValue(format!(
            "--degree: need 1 ≤ D < n, got D = {d} for the n = {n} schedule {path}"
        )));
    }
    Ok(s)
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
            let p = SynthProblem::new(*nodes, *degree, *alpha_t, *alpha_r);
            let mut from_catalog = None;
            if let Some(dir) = &catalog_dir {
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
                            "catalog  : no entry for {p} in {} \
                             (falling back to the Figure 2 construction)",
                            dir.display()
                        )
                        .ok();
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
            let s = load_schedule_for_degree(file, *degree)?;
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
            let s = load_schedule_for_degree(file, *degree)?;
            let d = *degree;
            let n = s.num_nodes();
            if let Some((at, ar)) = alphas {
                point(n, d, *at, *ar)?;
            }
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
            let s = load_schedule_for_degree(file, *degree)?;
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
            checkpoint,
        } => {
            let p = SynthProblem::new(*nodes, *degree, *alpha_t, *alpha_r);
            let dir = Path::new(dir);
            let existing = catalog::load_entry(dir, &p).map_err(CliError::Schedule)?;
            let opts = SynthOptions {
                search: SearchOptions {
                    // The driver refuses a checkpoint without a budget, so
                    // a campaign without `--budget` gets the default one.
                    max_nodes: max_nodes
                        .or(checkpoint.is_some().then_some(DEFAULT_CAMPAIGN_BUDGET)),
                    incumbent_len: existing.as_ref().map(|e| e.schedule.frame_length()),
                },
                polish_iters: polish.unwrap_or(200),
                ..SynthOptions::default()
            };
            let (label, budget_hit) = match checkpoint {
                Some(_) => ("campaign", "branch budgets hit"),
                None => ("synth", "search budget hit"),
            };
            if let (None, Some(e)) = (checkpoint, &existing) {
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
            let report = |event: SynthEvent| {
                let line = match event {
                    SynthEvent::Planned(plan) if checkpoint.is_some() => format!(
                        "campaign : n={nodes} D={degree} alpha=({alpha_t},{alpha_r}) — {} root \
                         branch(es) ({} before symmetry), budget {} nodes each, seed L = {}",
                        plan.branch_cands.len(),
                        plan.root_branches_total,
                        opts.search.max_nodes.unwrap_or_default(),
                        plan.seed_len,
                    ),
                    SynthEvent::Planned(_) => return,
                    SynthEvent::Resumed {
                        checkpointed,
                        branches,
                    } => format!(
                        "resuming : {checkpointed}/{branches} branch(es) already checkpointed"
                    ),
                };
                writeln!(out, "{line}").ok();
            };
            let run =
                || synthesize_checkpointed(&p, &opts, checkpoint.as_deref().map(Path::new), report);
            let outcome = match threads {
                Some(t) => rayon::ThreadPoolBuilder::new()
                    .num_threads(*t)
                    .build()
                    .map_err(|e| CliError::Other(e.to_string()))?
                    .install(run),
                None => run(),
            }
            .map_err(|e| match e {
                SynthError::Io(m) => CliError::Io(m),
                e => CliError::Campaign(e.to_string()),
            })?;
            let l = outcome.schedule.frame_length();
            writeln!(
                out,
                "{label:<9}: L = {l} ({}), {} nodes expanded, {} pruned{}",
                if outcome.stats.exact {
                    "proven optimal".to_string()
                } else {
                    format!("{budget_hit} — best known")
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
            let config = opts.search.config_string();
            let (commit, fig2) =
                catalog::commit(dir, existing.as_ref(), &p, outcome, label, config).map_err(
                    |e| match e {
                        catalog::CommitError::Invalid(e) => {
                            CliError::Other(format!("refusing to write catalog entry: {e}"))
                        }
                        catalog::CommitError::Io(e) => CliError::Io(e),
                    },
                )?;
            writeln!(
                out,
                "figure2  : L = {fig2} ({})",
                if l < fig2 {
                    format!("{label} saves {} slots", fig2 - l)
                } else {
                    "no improvement over the construction".to_string()
                }
            )
            .ok();
            match commit {
                catalog::Commit::Kept => {
                    writeln!(out, "catalog  : kept the existing entry (not beaten)")
                }
                catalog::Commit::Figure2Shorter => writeln!(
                    out,
                    "catalog  : not written (figure2 L = {fig2} is still the best known)"
                ),
                catalog::Commit::Wrote(path) => {
                    writeln!(out, "catalog  : wrote {}", path.display())
                }
            }
            .ok();
            Ok(())
        }
        SynthAction::Status { catalog: dir, json } => {
            let dir = Path::new(dir);
            let audits = catalog::audit(dir);
            if audits.is_empty() {
                writeln!(out, "catalog {}: empty", dir.display()).ok();
            }
            let failures = audits
                .iter()
                .filter(|(_, checked)| !matches!(checked, Ok((.., catalog::Verdict::Ok))))
                .count();
            let mut report = Vec::new();
            for (path, checked) in &audits {
                let name = path
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string());
                let (entry, fig2, verdict) = match checked {
                    Err(e) => {
                        writeln!(out, "{name}: UNREADABLE — {e}").ok();
                        report.push(serde_json::json!({
                            "file": name, "status": "unreadable", "error": e,
                        }));
                        continue;
                    }
                    Ok(checked) => checked,
                };
                let (status, verdict) = match verdict {
                    catalog::Verdict::Ok => ("ok", "verify OK".to_string()),
                    catalog::Verdict::LongerThanFigure2 => (
                        "regression",
                        format!("REGRESSION — longer than figure2 (L = {fig2})"),
                    ),
                    catalog::Verdict::Invalid(e) | catalog::Verdict::Misfiled(e) => {
                        ("invalid", format!("INVALID — {e}"))
                    }
                };
                let p = &entry.problem;
                let l = entry.schedule.frame_length();
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
                    "figure2_frame_length": *fig2,
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
                if !audits.is_empty() {
                    writeln!(out, "json     : wrote {path}").ok();
                }
            }
            if failures > 0 {
                writeln!(out, "{failures} catalog entr(y/ies) failed validation").ok();
                return Err(CliError::VerificationFailed);
            }
            if !audits.is_empty() {
                writeln!(out, "{} entr(y/ies), all verified", audits.len()).ok();
            }
            Ok(())
        }
    }
}

/// Default per-root-branch node budget for `ttdc synth campaign`.
const DEFAULT_CAMPAIGN_BUDGET: u64 = 2_000_000;

fn campaign_err(e: impl std::fmt::Display) -> CliError {
    CliError::Campaign(e.to_string())
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
            let (m, _, _) = manifest_overview(path).map_err(campaign_err)?;
            let name = m.spec_str("campaign").map_err(campaign_err)?;
            let mut g = ttdc_experiments::grid(name).ok_or_else(|| {
                CliError::Campaign(format!(
                    "{dir}: manifest names unknown grid {name:?}; available: {}",
                    ttdc_experiments::grid_names().join(", ")
                ))
            })?;
            // Adopt the manifest's sharding constants so a campaign started
            // with --reps/--seed/--shard-size overrides resumes with the
            // same work units; the fingerprint check inside the runner still
            // rejects any real drift.
            let h = |k: &str| m.spec_u64(k).map_err(campaign_err);
            g.spec.reps = h("reps")?;
            g.spec.base_seed = h("base_seed")?;
            g.spec.shard_size = h("shard_size")?;
            g.spec.slots_hint = h("slots_hint")?;
            run_grid(&g, path, ResumeMode::Resume, out)
        }
        CampaignAction::Status { dir } => {
            let path = Path::new(dir);
            let (m, total, quarantined) = manifest_overview(path).map_err(campaign_err)?;
            let name = m.spec_str("campaign").map_err(campaign_err)?;
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
    let outcome = g.run(Some(dir), mode).map_err(campaign_err)?;
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
    fn out_of_domain_degree_and_alphas_exit_3() {
        let file = tmp("domain.sched");
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
        for case in [
            "verify --degree 0",
            "verify --degree 9",
            "analyze --degree 0",
            "analyze --degree 9",
            "analyze --degree 2 --alpha-t 0 --alpha-r 2",
            "analyze --degree 2 --alpha-t 20 --alpha-r 20",
            "simulate --degree 0 --topology geometric=1",
        ] {
            let argv: Vec<&str> = case.split(' ').chain([file.as_str()]).collect();
            let (code, out) = run_str(&argv);
            assert_eq!(code, 3, "{argv:?}: {out}");
            assert!(out.contains("error: "), "{argv:?}: {out}");
        }
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

    #[test]
    fn a_resealed_branch_record_that_is_no_cover_exits_7_before_any_result() {
        use ttdc_util::{Manifest, MANIFEST_FILE};
        let point = [
            "--nodes",
            "5",
            "--degree",
            "1",
            "--alpha-t",
            "2",
            "--alpha-r",
            "2",
        ];
        for (i, best) in [vec![30u32, 34, 9999], vec![30, 34]]
            .into_iter()
            .enumerate()
        {
            let (catalog, dir) = (tmp(&format!("reseal-cat-{i}")), tmp(&format!("reseal-{i}")));
            let campaign = [
                &["synth", "campaign"],
                &point[..],
                &["--catalog", &catalog, &dir],
            ];
            let (code, out) = run_str(&campaign.concat());
            assert_eq!(code, 0, "{out}");
            // Edit branch b0's cover and reseal the line: the manifest's
            // checksum then passes.
            let path = std::path::Path::new(&dir).join(MANIFEST_FILE);
            let mut m = Manifest::load(&path, "synth-campaign", None).unwrap();
            let mut b0 = m.get("b0").unwrap().clone();
            let serde_json::Value::Object(fields) = &mut b0 else {
                unreachable!("a branch record is an object");
            };
            fields.insert("best".into(), serde_json::Value::from(best.clone()));
            m.put("b0", b0);
            std::fs::write(&path, m.to_jsonl()).unwrap();
            std::fs::remove_dir_all(&catalog).unwrap();
            let (code, out) = run_str(&campaign.concat());
            assert_eq!(code, 7, "{best:?}: {out}");
            assert!(out.contains("error: branch b0: `best`"), "{best:?}: {out}");
            assert!(
                !out.contains("campaign : L ="),
                "{best:?}: a result printed: {out}"
            );
            assert!(!std::path::Path::new(&catalog).exists(), "{best:?}: {out}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
