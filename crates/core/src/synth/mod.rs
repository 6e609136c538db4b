//! Schedule synthesis: exact branch-and-bound search for minimum-length
//! `(α_T, α_R)`-schedules, with a randomized local-search polish for
//! budget-limited runs and a best-known-schedule catalog as output.
//!
//! The pipeline (see DESIGN.md "Schedule synthesis"):
//!
//! 1. [`demands`] reduces Requirement 3 to set cover: demand triples
//!    `(x, Y, y)` vs candidate slots `(T, R)` with per-slot α caps.
//! 2. [`search`] runs parallel branch-and-bound over that space with
//!    incremental `CoverCounter` deficits, admissible pruning, root
//!    symmetry reduction, and a deterministic incumbent rule (bit-identical
//!    winner at any thread count).
//! 3. [`synthesize_checkpointed`] drives it: root plan, branch fan-out,
//!    every branch record through one codec (into a kill-resumable
//!    manifest when given a checkpoint directory) and the ordered reduce;
//!    [`synthesize`] is the driver without a checkpoint. Budget-limited
//!    incumbents get a [`polish`](fn@polish) (ruin-and-recreate local
//!    search, deterministic in its seed).
//! 4. [`catalog`] persists winners with provenance, and
//!    [`catalog::audit`] gives each file its verdict for `ttdc synth
//!    status` and E18; `ttdc build` consults the catalog before falling
//!    back to the Figure 2 construction.
//!
//! Every schedule leaving this module is re-checked against the *naive*
//! Requirement-3 oracle (via [`VerifyCache`]) before anyone trusts it.

pub mod catalog;
pub mod demands;
pub mod search;

use crate::requirements::requirement3_violation_naive;
use crate::schedule::Schedule;
use demands::{CandidateSpace, DemandSpace};
use search::{
    plan_root, reduce_branches, run_branches, BranchResult, CoverSolution, RootPlan, SearchOptions,
    SearchStats,
};
use serde_json::{json, Value};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use ttdc_util::{
    fnv1a64, splitmix64, BitSet, Checkpoint, CoverCounter, ManifestError, MANIFEST_FILE,
};

/// A synthesis target: the four paper parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SynthProblem {
    /// Number of nodes.
    pub n: usize,
    /// Maximum degree to be transparent for.
    pub d: usize,
    /// Per-slot transmitter cap.
    pub alpha_t: usize,
    /// Per-slot receiver cap.
    pub alpha_r: usize,
}

impl SynthProblem {
    /// Validated constructor; panics where [`SynthProblem::try_new`]
    /// errs.
    pub fn new(n: usize, d: usize, alpha_t: usize, alpha_r: usize) -> SynthProblem {
        SynthProblem::try_new(n, d, alpha_t, alpha_r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The point, or why it is out of the domain (`1 ≤ D < n`,
    /// `α_T, α_R ≥ 1`, and `α_T + α_R ≤ n`, which the Figure 2 construction
    /// every result is measured against needs).
    pub fn try_new(
        n: usize,
        d: usize,
        alpha_t: usize,
        alpha_r: usize,
    ) -> Result<SynthProblem, String> {
        if d < 1 || n <= d {
            return Err(format!("need 1 ≤ D < n, got n = {n}, D = {d}"));
        }
        if alpha_t < 1 || alpha_r < 1 {
            return Err(format!(
                "need α_T ≥ 1 and α_R ≥ 1, got α_T = {alpha_t}, α_R = {alpha_r}"
            ));
        }
        if alpha_t.saturating_add(alpha_r) > n {
            return Err(format!(
                "need α_T + α_R ≤ n, got α_T = {alpha_t}, α_R = {alpha_r}, n = {n}"
            ));
        }
        Ok(SynthProblem {
            n,
            d,
            alpha_t,
            alpha_r,
        })
    }
}

/// `n=… D=… alpha_t=… alpha_r=…`: the parameter line of a catalog header.
impl std::fmt::Display for SynthProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} D={} alpha_t={} alpha_r={}",
            self.n, self.d, self.alpha_t, self.alpha_r
        )
    }
}

/// Synthesis knobs: the search options plus the local-search budget.
#[derive(Clone, Copy, Debug)]
pub struct SynthOptions {
    /// Branch-and-bound configuration.
    pub search: SearchOptions,
    /// Ruin-and-recreate iterations applied to a budget-limited result
    /// (exact results are already optimal and skip the polish).
    pub polish_iters: u64,
    /// Seed for the polish's move generator.
    pub seed: u64,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            search: SearchOptions::default(),
            polish_iters: 200,
            seed: 0x5EED,
        }
    }
}

/// What a synthesis run produced.
#[derive(Clone, Debug)]
pub struct SynthOutcome {
    /// The best schedule found (slots in canonical candidate-id order).
    pub schedule: Schedule,
    /// Search effort and exactness.
    pub stats: SearchStats,
    /// Whether the local search improved on the branch-and-bound result.
    pub polish_improved: bool,
    /// `schedule.canonical_fingerprint()`, the catalog key.
    pub fingerprint: u64,
}

/// Runs the synthesizer for one parameter point: [`synthesize_checkpointed`]
/// without a checkpoint. Deterministic at any rayon thread count; call
/// inside `pool.install` to control parallelism.
pub fn synthesize(p: &SynthProblem, o: &SynthOptions) -> SynthOutcome {
    synthesize_checkpointed(p, o, None, |_| {})
        .expect("a run without a checkpoint reads back only the records it wrote")
}

/// Env var: abort the process after this many branch checkpoints (test/CI
/// hook that simulates a SIGKILL at a fixed point in a checkpointed run).
pub const SYNTH_KILL_AFTER_ENV: &str = "TTDC_SYNTH_KILL_AFTER";

/// What [`synthesize_checkpointed`] reports before any branch is searched.
#[derive(Clone, Copy, Debug)]
pub enum SynthEvent<'a> {
    /// The root fan-out is planned.
    Planned(&'a RootPlan),
    /// `checkpointed` of the `branches` root branches are read back from
    /// the checkpoint instead of searched (not sent when none are).
    Resumed {
        checkpointed: usize,
        branches: usize,
    },
}

/// Why a checkpointed synthesis run could not run or resume.
#[derive(Debug, PartialEq)]
pub enum SynthError {
    /// A checkpoint without a per-branch node budget: only a budgeted
    /// branch's record is independent of the branches that ran before it.
    NoBudget,
    /// The checkpoint directory could not be created.
    Io(String),
    /// The manifest could not be loaded or saved.
    Manifest(ManifestError),
    /// A branch record that is no branch result of this point's search.
    Record(String),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::NoBudget => write!(f, "a checkpointed synthesis needs a node budget"),
            SynthError::Io(m) | SynthError::Record(m) => write!(f, "{m}"),
            SynthError::Manifest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// The one synthesis driver: root plan, branch fan-out over the rayon
/// pool, ordered reduce, then polish (if budget-limited), schedule and
/// fingerprint. Every branch record goes through one codec, saved to
/// `dir/manifest.jsonl` when `dir` is given: a rerun then searches only
/// the branches the manifest lacks. A checkpoint needs a node budget
/// (`o.search.max_nodes`), which makes a branch's record depend on nothing
/// but its index. `on_event` hears the plan and the resume first.
pub fn synthesize_checkpointed(
    p: &SynthProblem,
    o: &SynthOptions,
    dir: Option<&Path>,
    mut on_event: impl FnMut(SynthEvent),
) -> Result<SynthOutcome, SynthError> {
    // Only a checkpointed run's manifest is ever read back, so the budget
    // an unbudgeted in-memory run hashes is immaterial.
    let budget = match (dir, o.search.max_nodes) {
        (Some(_), None) => return Err(SynthError::NoBudget),
        (_, budget) => budget.unwrap_or(0),
    };
    let space = DemandSpace::new(p.n, p.d);
    let cands = CandidateSpace::new(&space, p.alpha_t, p.alpha_r);
    let plan = plan_root(&space, &cands, &o.search);
    let (branches, seed_len) = (plan.branch_cands.len(), plan.seed_len);
    on_event(SynthEvent::Planned(&plan));

    // The fingerprint binds everything that shapes a branch record; a
    // manifest from different parameters, budget, seed or search config
    // must not be resumed into.
    let config = o.search.config_string();
    let fingerprint = fnv1a64(
        format!(
            "synth-campaign n={} d={} at={} ar={} budget={budget} seed_len={seed_len} \
             branches={branches} {config}",
            p.n, p.d, p.alpha_t, p.alpha_r,
        )
        .as_bytes(),
    );
    if let Some(d) = dir {
        std::fs::create_dir_all(d).map_err(|e| SynthError::Io(format!("{}: {e}", d.display())))?;
    }
    let checkpoint = Checkpoint::open(
        dir.map(|d| d.join(MANIFEST_FILE)).as_deref(),
        "synth-campaign",
        fingerprint,
        json!({
            "n": p.n, "degree": p.d, "alpha_t": p.alpha_t, "alpha_r": p.alpha_r,
            "budget": budget, "seed_len": seed_len, "config": config,
        }),
        dir.and_then(|_| std::env::var(SYNTH_KILL_AFTER_ENV).ok())
            .and_then(|v| v.parse().ok()),
    )
    .map_err(SynthError::Manifest)?;

    let branch_id = |index: usize| format!("b{index}");
    let missing: Vec<usize> = (0..branches)
        .filter(|&i| checkpoint.get(&branch_id(i)).is_none())
        .collect();
    if missing.len() < branches {
        on_event(SynthEvent::Resumed {
            checkpointed: branches - missing.len(),
            branches,
        });
    }
    run_branches(&space, &cands, &o.search, &plan, &missing, |index, r| {
        checkpoint.record(branch_id(index), encode_branch_record(r))
    });
    let manifest = checkpoint.finish().map_err(SynthError::Manifest)?;
    let results = (0..branches)
        .map(|i| {
            let id = branch_id(i);
            decode_branch_record(&id, manifest.get(&id).unwrap_or(&Value::Null), &cands)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (mut sol, stats) = reduce_branches(&plan, results);

    let mut polish_improved = false;
    if !stats.exact && o.polish_iters > 0 {
        let polished = polish(&space, &cands, &sol, o.seed, o.polish_iters);
        if polished.slots.len() < sol.slots.len() {
            sol = polished;
            polish_improved = true;
        }
    }
    let schedule = cands.schedule(p.n, &sol.slots);
    debug_assert!(
        requirement3_violation_naive(&schedule, p.d).is_none(),
        "synthesized schedule fails the naive Requirement-3 oracle"
    );
    Ok(SynthOutcome {
        fingerprint: schedule.canonical_fingerprint(),
        schedule,
        stats,
        polish_improved,
    })
}

/// One root branch's result as a manifest record.
fn encode_branch_record(r: &BranchResult) -> Value {
    json!({
        "best": r.best.as_ref().map_or(Value::Null, |b| Value::from(b.slots.clone())),
        "nodes": r.nodes,
        "pruned": r.pruned,
        "exhausted": r.exhausted,
    })
}

/// Reads back a record written by [`encode_branch_record`] for a branch of
/// the search over `cands`. Every field is required and typed: a record
/// without `exhausted` must not read as "not budget-limited", or a
/// budget-hit run would be reported as proven optimal.
fn decode_branch_record(
    id: &str,
    payload: &Value,
    cands: &CandidateSpace,
) -> Result<BranchResult, SynthError> {
    let bad = |what: String| SynthError::Record(format!("branch {id}: {what}"));
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
        Value::Null => None,
        Value::Array(ids) => {
            let slots = ids
                .iter()
                .map(|v| v.as_u64().and_then(|c| u32::try_from(c).ok()))
                .collect::<Option<Vec<u32>>>()
                .ok_or_else(|| bad("`best` holds an invalid slot id".into()))?;
            // Safety: a line whose checksum was recomputed after an edit
            // passes the manifest seal, and the reduce may adopt `best` as
            // the winner, so it must be a cover of this point.
            let mut covered = BitSet::new(cands.suppliers.len());
            for &c in &slots {
                let Some(cand) = cands.cands.get(c as usize) else {
                    let len = cands.cands.len();
                    return Err(bad(format!(
                        "`best` names slot {c} of {len} candidate slots"
                    )));
                };
                covered.union_with(&cand.coverage);
            }
            if covered.len() < cands.suppliers.len() {
                return Err(bad("`best` leaves a demand uncovered".into()));
            }
            Some(CoverSolution { slots })
        }
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

/// Drops every redundant slot (all of its demands have another supplier,
/// per `CoverCounter` multiplicities), scanning from the highest candidate
/// id down so the surviving set is deterministic.
fn eliminate_redundant(cands: &CandidateSpace, counter: &mut CoverCounter, slots: &mut Vec<u32>) {
    let mut i = slots.len();
    while i > 0 {
        i -= 1;
        let cov = &cands.cands[slots[i] as usize].coverage;
        if counter.is_redundant(cov) {
            counter.remove(cov);
            slots.remove(i);
        }
    }
}

/// Randomized ruin-and-recreate local search: remove one random slot,
/// greedily re-cover, strip redundancy, keep the result if strictly
/// shorter. Deterministic in `seed`; never returns a longer cover than
/// `start`.
pub fn polish(
    space: &DemandSpace,
    cands: &CandidateSpace,
    start: &CoverSolution,
    seed: u64,
    iters: u64,
) -> CoverSolution {
    let target = BitSet::from_iter(space.len(), 0..space.len());
    let mut rng = seed;
    let mut current = start.slots.clone();
    let mut counter = CoverCounter::new(space.len());
    for _ in 0..iters {
        if current.len() <= 1 {
            break;
        }
        let drop_at = (splitmix64(&mut rng) % current.len() as u64) as usize;
        let mut trial: Vec<u32> = current
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop_at)
            .map(|(_, &c)| c)
            .collect();
        counter.set_target(&target);
        for &c in &trial {
            counter.add(&cands.cands[c as usize].coverage);
        }
        // Greedy re-cover (max gain, tie lowest id), skipping the slot we
        // just ruined so the move can actually change the structure.
        let banned = current[drop_at];
        while !counter.is_covered() {
            let mut best = usize::MAX;
            let mut best_gain = 0;
            for (c, cand) in cands.cands.iter().enumerate() {
                if c as u32 == banned {
                    continue;
                }
                let gain = cand.coverage.intersection_len(counter.uncovered());
                if gain > best_gain {
                    best_gain = gain;
                    best = c;
                }
            }
            if best == usize::MAX {
                // Only the banned slot can cover the rest: revert.
                trial.clear();
                break;
            }
            counter.add(&cands.cands[best].coverage);
            trial.push(best as u32);
        }
        if trial.is_empty() {
            continue;
        }
        eliminate_redundant(cands, &mut counter, &mut trial);
        if trial.len() < current.len() {
            trial.sort_unstable();
            current = trial;
        }
    }
    CoverSolution { slots: current }
}

/// Entries a [`VerifyCache`] holds before evicting: long campaigns verify
/// an unbounded stream of distinct incumbents, and an uncapped memo would
/// grow with them for the life of the process.
pub const VERIFY_CACHE_CAPACITY: usize = 1024;

/// Memoized naive-oracle verification keyed by canonical fingerprint and
/// degree: relabel-equivalent schedules share one oracle run. Used by the
/// catalog validator and `ttdc build`'s catalog consult, where the same
/// design may be checked repeatedly in one process. Bounded: once
/// `capacity` distinct keys are resident the oldest insertion is evicted
/// (FIFO — re-verifying an evicted schedule is merely slow, never wrong,
/// so the simplest policy that bounds memory wins).
pub struct VerifyCache {
    map: HashMap<(u64, usize), bool>,
    /// Insertion order of resident keys, oldest at the front.
    order: VecDeque<(u64, usize)>,
    capacity: usize,
}

impl Default for VerifyCache {
    fn default() -> Self {
        VerifyCache::with_capacity(VERIFY_CACHE_CAPACITY)
    }
}

impl VerifyCache {
    /// An empty cache with the default capacity.
    pub fn new() -> VerifyCache {
        VerifyCache::default()
    }

    /// An empty cache evicting beyond `capacity` entries (`≥ 1`).
    pub fn with_capacity(capacity: usize) -> VerifyCache {
        assert!(capacity >= 1, "a zero-capacity cache cannot memoize");
        VerifyCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Number of distinct `(fingerprint, D)` pairs currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing has been verified yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Naive-oracle Requirement-3 check, memoized on
    /// `(canonical_fingerprint, d)`. The oracle is the *reference*
    /// verifier — a cache hit is as trustworthy as the original run
    /// (fingerprint collisions aside, see [`crate::fingerprint`]).
    pub fn is_topology_transparent(&mut self, s: &Schedule, d: usize) -> bool {
        let key = (s.canonical_fingerprint(), d);
        if let Some(&hit) = self.map.get(&key) {
            return hit;
        }
        let ok = requirement3_violation_naive(s, d).is_none();
        if self.map.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, ok);
        self.order.push_back(key);
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use search::greedy_cover;

    #[test]
    fn synthesize_small_point_is_transparent_and_exact() {
        let p = SynthProblem::new(5, 2, 1, 2);
        let out = synthesize(&p, &SynthOptions::default());
        assert!(out.stats.exact);
        assert!(requirement3_violation_naive(&out.schedule, 2).is_none());
        assert!(out.schedule.is_alpha_schedule(1, 2));
        assert_eq!(out.fingerprint, out.schedule.canonical_fingerprint());
    }

    #[test]
    fn verify_cache_memoizes_by_fingerprint() {
        let p = SynthProblem::new(5, 1, 1, 2);
        let out = synthesize(&p, &SynthOptions::default());
        let mut cache = VerifyCache::new();
        assert!(cache.is_empty());
        assert!(cache.is_topology_transparent(&out.schedule, 1));
        assert_eq!(cache.len(), 1);
        // Same schedule again: still one entry.
        assert!(cache.is_topology_transparent(&out.schedule, 1));
        assert_eq!(cache.len(), 1);
        // Different degree is a different key, and the cached verdict
        // matches a fresh oracle run. (At α_T = 1 every slot has a lone
        // transmitter, so the D=1 optimum happens to stay transparent at
        // D=4 — the value itself is not the point, the keying is.)
        let transparent_at_4 = cache.is_topology_transparent(&out.schedule, 4);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            transparent_at_4,
            requirement3_violation_naive(&out.schedule, 4).is_none()
        );
    }

    #[test]
    fn verify_cache_evicts_oldest_beyond_capacity() {
        let p = SynthProblem::new(5, 1, 1, 2);
        let out = synthesize(&p, &SynthOptions::default());
        let s = &out.schedule;
        let mut cache = VerifyCache::with_capacity(2);
        // Three distinct keys (same schedule, different degree) through a
        // two-entry cache: residency never exceeds capacity.
        let d1 = cache.is_topology_transparent(s, 1);
        let d2 = cache.is_topology_transparent(s, 2);
        assert_eq!(cache.len(), 2);
        let d3 = cache.is_topology_transparent(s, 3);
        assert_eq!(cache.len(), 2, "oldest entry evicted, not grown past cap");
        // Hits on resident keys do not evict.
        assert_eq!(cache.is_topology_transparent(s, 3), d3);
        assert_eq!(cache.len(), 2);
        // The evicted key re-verifies to the same verdict (eviction is a
        // speed matter, never a correctness one) and re-enters FIFO order.
        assert_eq!(cache.is_topology_transparent(s, 1), d1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.is_topology_transparent(s, 2), d2);
        assert_eq!(
            d1,
            requirement3_violation_naive(s, 1).is_none(),
            "cached verdict matches a fresh oracle run"
        );
    }

    #[test]
    fn polish_never_lengthens_and_stays_valid() {
        let p = SynthProblem::new(6, 2, 1, 2);
        let space = DemandSpace::new(p.n, p.d);
        let cands = CandidateSpace::new(&space, p.alpha_t, p.alpha_r);
        let start = greedy_cover(&space, &cands);
        let polished = polish(&space, &cands, &start, 7, 100);
        assert!(polished.slots.len() <= start.slots.len());
        let s = cands.schedule(p.n, &polished.slots);
        assert!(requirement3_violation_naive(&s, p.d).is_none());
        // Deterministic in the seed.
        let again = polish(&space, &cands, &start, 7, 100);
        assert_eq!(polished, again);
    }

    /// A real cover of (5, 1, 2, 2) as a budget-hit branch result, and the
    /// candidate space it belongs to.
    fn branch_record() -> (BranchResult, CandidateSpace) {
        let space = DemandSpace::new(5, 1);
        let cands = CandidateSpace::new(&space, 2, 2);
        let record = BranchResult {
            best: Some(greedy_cover(&space, &cands)),
            nodes: 3_001,
            pruned: 2_007,
            exhausted: true,
        };
        (record, cands)
    }

    fn with_field(key: &str, value: Option<Value>) -> Value {
        let mut record = encode_branch_record(&branch_record().0);
        let Value::Object(fields) = &mut record else {
            unreachable!("a branch record is an object");
        };
        match value {
            Some(v) => fields.insert(key.to_string(), v),
            None => fields.remove(key),
        };
        record
    }

    fn record_error(id: &str, payload: &Value) -> String {
        match decode_branch_record(id, payload, &branch_record().1) {
            Err(SynthError::Record(m)) => m,
            other => panic!("{payload:?}: expected a record error, got {other:?}"),
        }
    }

    #[test]
    fn branch_records_round_trip() {
        let (r, cands) = branch_record();
        let back = decode_branch_record("b0", &encode_branch_record(&r), &cands);
        assert_eq!(back, Ok(r.clone()));
        let empty = BranchResult {
            best: None,
            exhausted: false,
            ..r
        };
        let back = decode_branch_record("b0", &encode_branch_record(&empty), &cands);
        assert_eq!(back, Ok(empty));
    }

    #[test]
    fn branch_record_missing_a_field_is_a_campaign_error() {
        // A record without `exhausted` must not read as "not
        // budget-limited": that would commit a budget-hit run as proven
        // optimal.
        for key in ["exhausted", "nodes", "pruned", "best"] {
            let m = record_error("b3", &with_field(key, None));
            assert!(m.contains("branch b3") && m.contains(key), "{key}: {m}");
        }
    }

    #[test]
    fn branch_record_with_a_mistyped_field_is_a_campaign_error() {
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
            let m = record_error("b1", &with_field(key, Some(value.clone())));
            assert!(
                m.contains("branch b1") && m.contains(key),
                "{key} = {value:?}: {m}"
            );
        }
    }

    #[test]
    fn a_branch_record_must_be_a_cover_of_this_point() {
        // (5, 1, 2, 2) has 60 candidate slots: 9999 names none of them,
        // and slots 30 and 34 alone cover only some demands.
        let m = record_error(
            "b0",
            &with_field("best", Some(Value::from(vec![30u32, 34, 9999]))),
        );
        assert!(
            m.contains("slot 9999") && m.contains("60 candidate slots"),
            "{m}"
        );
        let m = record_error(
            "b0",
            &with_field("best", Some(Value::from(vec![30u32, 34]))),
        );
        assert!(m.contains("uncovered"), "{m}");
        // A record the manifest lost reads as an empty one.
        assert!(record_error("b2", &Value::Null).contains("branch b2: record has no `best`"));
    }

    #[test]
    fn a_checkpoint_without_a_budget_is_an_error() {
        let p = SynthProblem::new(5, 1, 2, 2);
        let dir = std::env::temp_dir().join(format!("ttdc-synth-no-budget-{}", std::process::id()));
        let got = synthesize_checkpointed(&p, &SynthOptions::default(), Some(&dir), |_| {
            panic!("nothing may run without a budget")
        });
        assert_eq!(got.unwrap_err(), SynthError::NoBudget);
        assert!(
            !dir.exists(),
            "a refused run must leave no checkpoint behind"
        );
    }
}
