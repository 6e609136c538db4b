//! The crash-resilient campaign executor.
//!
//! Work flows through four stages, each deterministic given the spec:
//!
//! 1. **Shard** — [`CampaignSpec::shards`] partitions the grid × the
//!    replication range into checkpoint-sized units; replication `r` of a
//!    point always uses seed `base_seed + r` no matter which shard it
//!    lands in.
//! 2. **Execute** — missing shards fan out over the rayon pool. Every
//!    replication runs under `catch_unwind`. A replication is a pure
//!    function of (point, seed), so a panic would repeat on any retry: the
//!    first one quarantines its whole shard (recording the poisoned seed
//!    and the panic message for reproduction) instead of aborting the
//!    campaign.
//! 3. **Checkpoint** — each completed shard's record goes through the
//!    shared [`Checkpoint`] writer, which seals it into the JSONL manifest
//!    and rewrites the manifest atomically, so a SIGKILL at any instant
//!    leaves a loadable prefix of the work.
//! 4. **Merge** — shard records are decoded *from their manifest
//!    encoding* (fresh or reloaded — one code path) and folded into one
//!    [`McSummary`] per point in shard order, which is replication order;
//!    the Welford pushes therefore happen in exactly the order
//!    [`summarize`] uses over [`run_replications`]' seed-ordered reports,
//!    making the merged output bit-identical to that two-step reference
//!    for *any* shard size, thread count, or kill/resume history.
//!
//! [`summarize`]: crate::montecarlo::summarize
//! [`run_replications`]: crate::montecarlo::run_replications

use rayon::prelude::*;
use serde_json::{json, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use ttdc_util::{f64_from_bits_json, f64_to_bits_json, Checkpoint, Manifest, ManifestError};

use super::spec::{CampaignSpec, Shard, CAMPAIGN_SCHEMA_VERSION};
use crate::metrics::SimReport;
use crate::montecarlo::McSummary;

pub use ttdc_util::MANIFEST_FILE;
/// File name of the merged per-point JSONL output.
pub const MERGED_FILE: &str = "merged.jsonl";
/// File name of the human-oriented summary.
pub const SUMMARY_FILE: &str = "summary.json";
/// Manifest `kind` for simulation campaigns.
pub const CAMPAIGN_KIND: &str = "campaign";
/// Env var: abort the process after this many checkpoints (test/CI hook
/// that simulates a SIGKILL at a fixed point in the campaign).
pub const KILL_AFTER_ENV: &str = "TTDC_CAMPAIGN_KILL_AFTER";

/// How [`run_campaign`] treats an existing checkpoint directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeMode {
    /// Require a fresh directory: error if a manifest already exists.
    Fresh,
    /// Require an existing manifest: error if there is nothing to resume.
    Resume,
    /// Resume if a compatible manifest exists, start fresh otherwise.
    Auto,
}

/// Campaign options: none are left. The struct stays only because
/// `e2ebench/` compiles against `CampaignOptions::default()`; it goes with
/// the next change allowed to edit `e2ebench/`.
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {}

/// Optional per-replication metrics beyond the [`McSummary`] seven,
/// extracted from each [`SimReport`] and checkpointed bit-exactly.
pub struct ExtraMetrics<'a> {
    /// Display names, one per extracted value.
    pub names: Vec<String>,
    /// Extractor; must return `names.len()` values.
    pub extract: &'a (dyn Fn(&SimReport) -> Vec<f64> + Sync),
}

/// A shard abandoned because one of its replications panicked.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantinedShard {
    /// Shard index (manifest record id).
    pub shard: usize,
    /// Grid-point index.
    pub point: usize,
    /// Seed of the replication that panicked — rerun the scenario with
    /// this seed to reproduce.
    pub seed: u64,
    /// The panic payload, if it was a string.
    pub message: String,
}

/// The merged result of a campaign.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One summary per grid point, merged in replication order from the
    /// completed (non-quarantined) shards.
    pub summaries: Vec<McSummary>,
    /// Per point, per completed replication (in replication order), the
    /// [`ExtraMetrics`] values; empty inner vecs when no extras given.
    pub extras: Vec<Vec<Vec<f64>>>,
    /// `true` if any shard was quarantined: the campaign completed but
    /// some replications are missing from the merge.
    pub degraded: bool,
    /// Every quarantined shard, in shard order.
    pub quarantined: Vec<QuarantinedShard>,
    /// Shards executed by this invocation.
    pub executed_shards: usize,
    /// Shards reused from the checkpoint manifest.
    pub reused_shards: usize,
}

/// Why a campaign could not run to completion.
#[derive(Debug)]
pub enum CampaignError {
    /// The spec fails [`CampaignSpec::validate`].
    InvalidSpec(String),
    /// Manifest load/save failure (corruption, schema or spec mismatch).
    Manifest(ManifestError),
    /// `Fresh` mode found an existing manifest.
    AlreadyStarted(PathBuf),
    /// `Resume` mode found no manifest.
    NothingToResume(PathBuf),
    /// A manifest record contradicts the spec's sharding rule or lacks
    /// a field the merge needs.
    BadRecord {
        /// The offending record id.
        id: String,
        /// What is wrong with it.
        why: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::InvalidSpec(m) => write!(f, "invalid campaign spec: {m}"),
            CampaignError::Manifest(e) => write!(f, "{e}"),
            CampaignError::AlreadyStarted(p) => write!(
                f,
                "{} already holds a campaign manifest; use resume (or a fresh directory)",
                p.display()
            ),
            CampaignError::NothingToResume(p) => {
                write!(f, "{} holds no campaign manifest to resume", p.display())
            }
            CampaignError::BadRecord { id, why } => write!(f, "manifest record {id:?}: {why}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ManifestError> for CampaignError {
    fn from(e: ManifestError) -> Self {
        CampaignError::Manifest(e)
    }
}

/// The seven standard metrics of one replication, in [`summarize`] push
/// order — the crate's one streaming replication fold.
///
/// [`summarize`]: crate::montecarlo::summarize
struct RepMetrics {
    delivery_ratio: f64,
    latency_and_epd: Option<(f64, f64)>,
    energy_mean_mj: f64,
    collisions: f64,
    duty_cycle: f64,
    energy_fairness: f64,
    extras: Vec<f64>,
}

impl RepMetrics {
    fn from_report(r: &SimReport, extras: Option<&ExtraMetrics>) -> Self {
        RepMetrics {
            delivery_ratio: r.delivery_ratio(),
            latency_and_epd: (r.delivered > 0)
                .then(|| (r.latency.mean(), r.energy_per_delivery_mj())),
            energy_mean_mj: r.energy.mean_mj(),
            collisions: r.collisions as f64,
            duty_cycle: r.mean_duty_cycle(),
            energy_fairness: r.energy.fairness_index(),
            extras: extras.map(|e| (e.extract)(r)).unwrap_or_default(),
        }
    }

    fn to_json(&self) -> Value {
        let b = f64_to_bits_json;
        let (lat, epd) = match self.latency_and_epd {
            Some((l, e)) => (b(l), b(e)),
            None => (Value::Null, Value::Null),
        };
        json!({
            "m": Value::Array(vec![
                b(self.delivery_ratio),
                lat,
                epd,
                b(self.energy_mean_mj),
                b(self.collisions),
                b(self.duty_cycle),
                b(self.energy_fairness),
            ]),
            "x": Value::Array(self.extras.iter().map(|&v| b(v)).collect()),
        })
    }

    fn from_json(v: &Value) -> Option<Self> {
        let m = v.get("m")?.as_array()?;
        if m.len() != 7 {
            return None;
        }
        let f = |i: usize| f64_from_bits_json(&m[i]);
        let latency_and_epd = match (&m[1], &m[2]) {
            (Value::Null, Value::Null) => None,
            (l, e) => Some((f64_from_bits_json(l)?, f64_from_bits_json(e)?)),
        };
        let extras = v
            .get("x")?
            .as_array()?
            .iter()
            .map(f64_from_bits_json)
            .collect::<Option<Vec<_>>>()?;
        Some(RepMetrics {
            delivery_ratio: f(0)?,
            latency_and_epd,
            energy_mean_mj: f(3)?,
            collisions: f(4)?,
            duty_cycle: f(5)?,
            energy_fairness: f(6)?,
            extras,
        })
    }

    /// Pushes this replication into `s` — the exact order [`summarize`]
    /// uses, preserving Welford bit-identity.
    ///
    /// [`summarize`]: crate::montecarlo::summarize
    fn push_into(&self, s: &mut McSummary) {
        s.delivery_ratio.push(self.delivery_ratio);
        if let Some((latency, epd)) = self.latency_and_epd {
            s.latency_mean.push(latency);
            s.energy_per_delivery_mj.push(epd);
        }
        s.energy_mean_mj.push(self.energy_mean_mj);
        s.collisions.push(self.collisions);
        s.duty_cycle.push(self.duty_cycle);
        s.energy_fairness.push(self.energy_fairness);
    }
}

fn record_id(shard: usize) -> String {
    format!("s{shard}")
}

fn header_json(spec: &CampaignSpec) -> Value {
    json!({
        "campaign": spec.name.clone(),
        "points": spec.points.len() as u64,
        "reps": spec.reps,
        "base_seed": spec.base_seed,
        "shard_size": spec.shard_size,
        "slots_hint": spec.slots_hint,
    })
}

/// Runs (or resumes) a campaign.
///
/// `scenario(point, seed)` must be a pure function of its arguments —
/// that is what makes re-execution after a crash and any sharding
/// converge on the same bytes. With `dir = None` the campaign runs purely
/// in memory (no checkpoints); shard records still round-trip through
/// their manifest encoding so the merge is byte-for-byte the same code
/// path either way.
pub fn run_campaign<F>(
    spec: &CampaignSpec,
    dir: Option<&Path>,
    mode: ResumeMode,
    _opts: &CampaignOptions,
    extras: Option<&ExtraMetrics>,
    scenario: F,
) -> Result<CampaignOutcome, CampaignError>
where
    F: Fn(usize, u64) -> SimReport + Sync,
{
    spec.validate().map_err(CampaignError::InvalidSpec)?;
    let shards = spec.shards();
    let manifest_path = dir.map(|d| d.join(MANIFEST_FILE));
    match (mode, manifest_path.as_deref().filter(|p| p.exists())) {
        (ResumeMode::Fresh, Some(p)) => return Err(CampaignError::AlreadyStarted(p.to_path_buf())),
        (ResumeMode::Resume, None) => {
            let d = dir.expect("Resume mode requires a directory");
            return Err(CampaignError::NothingToResume(d.to_path_buf()));
        }
        _ => {}
    }
    let kill_after = std::env::var(KILL_AFTER_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    let checkpoint = Checkpoint::open(
        manifest_path.as_deref(),
        CAMPAIGN_KIND,
        spec.fingerprint(),
        header_json(spec),
        kill_after,
    )?;

    // Checkpointed shards are reused; the missing ones fan out.
    let mut todo = Vec::new();
    for shard in &shards {
        match checkpoint.get(&record_id(shard.index)) {
            Some(payload) => validate_shard_payload(&payload, shard)?,
            None => todo.push(*shard),
        }
    }
    let executed = todo.len();
    todo.into_par_iter()
        .map(|shard| {
            let payload = run_shard(spec, &shard, extras, &scenario);
            checkpoint.record(record_id(shard.index), payload);
        })
        .collect::<Vec<()>>();

    let mut outcome = merge(spec, &shards, &checkpoint.finish()?)?;
    outcome.executed_shards = executed;
    outcome.reused_shards = shards.len() - executed;
    Ok(outcome)
}

/// Reads a campaign directory's manifest without a spec: completed /
/// total / quarantined shard counts for `ttdc campaign status`.
pub fn manifest_overview(dir: &Path) -> Result<(Manifest, usize, usize), CampaignError> {
    let m = Manifest::load(&dir.join(MANIFEST_FILE), CAMPAIGN_KIND, None)?;
    let (points, reps, shard_size) = (
        m.spec_u64("points")?,
        m.spec_u64("reps")?,
        m.spec_u64("shard_size")?,
    );
    let total = (shard_size > 0)
        .then(|| points.checked_mul(reps.div_ceil(shard_size)))
        .flatten()
        .and_then(|t| usize::try_from(t).ok())
        .ok_or_else(|| ManifestError::Corrupt {
            line: 1,
            why: format!(
                "header spec gives no shard count (points {points}, reps {reps}, \
                 shard_size {shard_size})"
            ),
        })?;
    let quarantined = m
        .records()
        .iter()
        .filter(|r| r.payload.get("status").and_then(Value::as_str) == Some("quarantined"))
        .count();
    Ok((m, total, quarantined))
}

fn validate_shard_payload(payload: &Value, shard: &Shard) -> Result<(), CampaignError> {
    let ok = payload.get("point").and_then(Value::as_u64) == Some(shard.point as u64)
        && payload.get("rep_lo").and_then(Value::as_u64) == Some(shard.rep_lo)
        && payload.get("rep_hi").and_then(Value::as_u64) == Some(shard.rep_hi);
    if ok {
        Ok(())
    } else {
        Err(CampaignError::BadRecord {
            id: record_id(shard.index),
            why: "does not match the spec's sharding rule".into(),
        })
    }
}

/// Executes one shard, every replication under `catch_unwind`; the first
/// panic quarantines the shard.
fn run_shard<F>(
    spec: &CampaignSpec,
    shard: &Shard,
    extras: Option<&ExtraMetrics>,
    scenario: &F,
) -> Value
where
    F: Fn(usize, u64) -> SimReport + Sync,
{
    let mut reps = Vec::with_capacity(shard.len() as usize);
    for rep in shard.rep_lo..shard.rep_hi {
        let seed = spec.base_seed + rep;
        match catch_unwind(AssertUnwindSafe(|| scenario(shard.point, seed))) {
            Ok(report) => reps.push(RepMetrics::from_report(&report, extras).to_json()),
            Err(panic) => {
                let message = panic_message(&panic);
                eprintln!(
                    "campaign: shard {} quarantined (seed {seed}: {message})",
                    shard.index
                );
                // `attempts` is part of format v1; a shard runs once.
                return json!({
                    "point": shard.point as u64,
                    "rep_lo": shard.rep_lo,
                    "rep_hi": shard.rep_hi,
                    "status": "quarantined",
                    "attempts": 1u64,
                    "panic_seed": seed.to_string(),
                    "panic_msg": message,
                });
            }
        }
    }
    json!({
        "point": shard.point as u64,
        "rep_lo": shard.rep_lo,
        "rep_hi": shard.rep_hi,
        "status": "ok",
        "attempts": 1u64,
        "reps": Value::Array(reps),
    })
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Folds the shard records (fresh or reloaded) into per-point summaries
/// in replication order.
fn merge(
    spec: &CampaignSpec,
    shards: &[Shard],
    manifest: &Manifest,
) -> Result<CampaignOutcome, CampaignError> {
    let mut summaries = vec![McSummary::default(); spec.points.len()];
    let mut extras = vec![Vec::new(); spec.points.len()];
    let mut quarantined = Vec::new();
    for shard in shards {
        let id = record_id(shard.index);
        let bad = |why: &str| CampaignError::BadRecord {
            id: id.clone(),
            why: why.into(),
        };
        let payload = manifest.get(&id).ok_or_else(|| bad("is missing"))?;
        let text = |key: &str| payload.get(key).and_then(Value::as_str);
        match text("status") {
            Some("ok") => {
                let reps = payload
                    .get("reps")
                    .and_then(Value::as_array)
                    .filter(|reps| reps.len() as u64 == shard.len())
                    .ok_or_else(|| bad("has no `reps` list of the shard's length"))?;
                for rep in reps {
                    let m = RepMetrics::from_json(rep)
                        .ok_or_else(|| bad("holds a replication that does not decode"))?;
                    m.push_into(&mut summaries[shard.point]);
                    extras[shard.point].push(m.extras);
                }
            }
            Some("quarantined") => quarantined.push(QuarantinedShard {
                shard: shard.index,
                point: shard.point,
                seed: text("panic_seed")
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("has no decimal `panic_seed`"))?,
                message: text("panic_msg")
                    .ok_or_else(|| bad("has no `panic_msg` string"))?
                    .to_string(),
            }),
            _ => return Err(bad("has no `status` of \"ok\" or \"quarantined\"")),
        }
    }
    Ok(CampaignOutcome {
        summaries,
        extras,
        degraded: !quarantined.is_empty(),
        quarantined,
        executed_shards: 0,
        reused_shards: 0,
    })
}

impl CampaignOutcome {
    /// The merged per-point JSONL: one line per grid point plus a trailer
    /// with the degradation state. Deterministic given the spec and the
    /// scenario — byte-identical across any kill/resume/sharding history,
    /// which is what the resume tests and the CI smoke job diff.
    pub fn merged_jsonl(&self, spec: &CampaignSpec) -> String {
        let mut out = String::new();
        for (i, (point, summary)) in spec.points.iter().zip(&self.summaries).enumerate() {
            let params: Value = Value::Object(
                point
                    .params
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                    .collect(),
            );
            let line = json!({
                "schema_version": CAMPAIGN_SCHEMA_VERSION,
                "point": point.label.clone(),
                "index": i as u64,
                "params": params,
                "summary": summary.to_json(),
            });
            out.push_str(&serde_json::to_string(&line).expect("infallible"));
            out.push('\n');
        }
        let trailer = json!({
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "degraded": self.degraded,
            "quarantined": Value::Array(
                self.quarantined
                    .iter()
                    .map(|q| {
                        json!({
                            "shard": q.shard as u64,
                            "point": q.point as u64,
                            "seed": q.seed.to_string(),
                            "message": q.message.clone(),
                            "attempts": 1u64,
                        })
                    })
                    .collect::<Vec<_>>(),
            ),
        });
        out.push_str(&serde_json::to_string(&trailer).expect("infallible"));
        out.push('\n');
        out
    }

    /// A pretty human-oriented summary document.
    pub fn summary_json(&self, spec: &CampaignSpec) -> String {
        let points: Vec<Value> = spec
            .points
            .iter()
            .zip(&self.summaries)
            .map(|(p, s)| {
                json!({
                    "point": p.label.clone(),
                    "delivery_ratio": s.delivery_ratio.mean(),
                    "latency_mean": s.latency_mean.mean(),
                    "energy_mean_mj": s.energy_mean_mj.mean(),
                    "replications": s.delivery_ratio.count(),
                })
            })
            .collect();
        let doc = json!({
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "campaign": spec.name.clone(),
            "degraded": self.degraded,
            "quarantined_shards": self.quarantined.len() as u64,
            "points": Value::Array(points),
        });
        let mut s = serde_json::to_string_pretty(&doc).expect("infallible");
        s.push('\n');
        s
    }

    /// Writes [`MERGED_FILE`] and [`SUMMARY_FILE`] into `dir` atomically.
    pub fn write_outputs(&self, spec: &CampaignSpec, dir: &Path) -> std::io::Result<()> {
        ttdc_util::write_atomic(&dir.join(MERGED_FILE), self.merged_jsonl(spec).as_bytes())?;
        ttdc_util::write_atomic(&dir.join(SUMMARY_FILE), self.summary_json(spec).as_bytes())
    }
}
