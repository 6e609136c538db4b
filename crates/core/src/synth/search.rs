//! Parallel branch-and-bound minimum set cover over candidate slots.
//!
//! The search state is a partial schedule (a set of chosen candidate ids)
//! whose demand coverage lives in a [`CoverCounter`]: descending adds a
//! candidate's coverage with [`CoverCounter::add_tracked`], backtracking
//! unwinds it through the O(1)-mark undo trail — no rescan of the partial
//! solution. Branching picks the uncovered demand with the fewest
//! remaining suppliers (a zero-supplier demand refutes the subtree), and
//! sibling branches ban earlier-tried candidates so no slot set is visited
//! twice.
//!
//! **Bound hierarchy.** Three admissible lower bounds on the slots any
//! completion still needs, in increasing strength and cost:
//!
//! * *Ceiling*: `⌈deficit / max_gain⌉` — one division.
//! * *Matching*: a greedy packing of uncovered demands no single candidate
//!   can co-cover ([`ttdc_util::greedy_packing`] over the precomputed
//!   [`CandidateSpace::reach`] conflict masks); each packed demand needs
//!   its own slot. Always `≥` the ceiling (the maximum of both is
//!   returned).
//! * *LP*: an exact scaled-integer dual-ascent on the residual set-cover
//!   LP ([`ttdc_util::DualAscent`]), restricted to unbanned suppliers.
//!   Each uncovered demand's dual seed needs the largest residual gain
//!   among its suppliers, read from the node's gain pass (below), so the
//!   bound costs one walk over the uncovered demands' supplier lists into
//!   per-worker buffers. It is paid at every expanded node.
//!
//! A subtree is cut only when `depth + bound` *strictly* exceeds the best
//! known length, so every optimum-length solution survives pruning
//! regardless of incumbent timing — the keystone of cross-thread
//! determinism.
//!
//! **Residual gains.** On entry to every expanded node (when the LP bound,
//! lex pruning or dominance is on, as by default) the worker fills
//! `gain[c] = |coverage(c) ∩ uncovered|` for every candidate: one popcount
//! over `⌈demands / 64⌉` words each. The LP seed, the lex-prune threshold
//! and both dominance filters read these gains instead of intersecting
//! coverages again. A node reads its gains before its children run, and
//! the child loop only adds, undoes and bans, so one buffer per worker
//! serves the whole branch.
//!
//! **Dominance.** A candidate whose residual coverage is a subset of an
//! earlier (lower-id) candidate's residual coverage is eliminated:
//! replacing it by the dominator turns any cover through it into one that
//! is no longer and lexicographically smaller, so the `(len, lex)`-minimal
//! winner never routes through a dominated candidate. Dominance
//! elimination is therefore *winner-preserving*, not just
//! length-preserving. Two filters apply it: each node's branch suppliers
//! are tested against the earlier ones kept, and a global pass tests every
//! unbanned candidate in id order against the candidates kept so far (by
//! transitivity, testing only kept ones bans the same set as testing every
//! earlier one). Both skip a pair at once when the candidate's gain
//! exceeds the other's, since a subset is never larger. The global pass is
//! *indexed*: per uncovered demand it lists the kept candidates whose
//! residual contains it. A zero-gain candidate is dominated iff anything
//! has been kept. Otherwise a dominator must contain every demand of the
//! candidate's residual, so testing the candidate against the shortest of
//! those demands' lists alone gives the same verdict, and an empty list
//! means it is kept.
//!
//! **Symmetry.** At the root, candidates covering the branch demand are
//! deduplicated by their class signature under the demand's stabilizer
//! (node classes `{x}`, `{y}`, `Y∖{y}`, rest): two candidates with equal
//! per-class transmit/receive counts are images of each other under a
//! node relabeling that maps the demand space onto itself, so their
//! subtrees contain covers of exactly the same lengths.
//!
//! **Deterministic incumbent.** A solution is the *sorted* vector of its
//! candidate ids; solutions compare by `(length, lex order of ids)`. Each
//! root branch reports its branch-local minimum (found in canonical DFS
//! order), and the ordered reduction over branches ([`reduce_branches`])
//! takes the global minimum — a rule with no dependence on thread count or
//! completion order. The shared atomic incumbent length only tightens
//! pruning of strictly-worse subtrees, so it can accelerate the search but
//! never change its answer. Budgeted branches ignore the shared incumbent
//! entirely: budget cutoffs must not depend on cross-thread timing. So a
//! budgeted branch's result depends on nothing but its index, which is
//! what lets a checkpointed campaign run any subset of the branches
//! ([`run_branches`]) and reduce them with records saved by earlier runs.

use super::demands::{CandidateSpace, DemandSpace};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use ttdc_util::{greedy_packing, BitSet, CoverCounter, DualAscent, LpItem};

/// Which admissible lower bound the pruning rule pays for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundKind {
    /// `⌈deficit / max_gain⌉` — the PR 9 baseline.
    Ceiling,
    /// Greedy conflict packing over [`CandidateSpace::reach`]; dominates
    /// the ceiling bound.
    Matching,
    /// Matching plus the dual-ascent LP bound, at every node.
    Lp,
}

/// Knobs for [`minimum_cover`]. Defaults give the full pruned,
/// symmetry-reduced, winner-preserving exact search.
#[derive(Clone, Copy, Debug)]
pub struct SearchOptions {
    /// Apply lower-bound pruning (off = the exhaustive baseline
    /// the `bench_all` `synth` family compares against).
    pub prune: bool,
    /// Which bound the pruning rule uses (ignored when `prune` is off).
    pub bound: BoundKind,
    /// Eliminate branch candidates residual-dominated by an earlier one
    /// (winner-preserving).
    pub dominance: bool,
    /// Cut subtrees that can at best *tie* the branch-local incumbent's
    /// length but cannot beat it lexicographically (winner-preserving:
    /// only completions strictly worse under the `(len, lex)` rule are
    /// discarded; depends on branch-local state only, so thread-count
    /// determinism is unaffected).
    pub lex_prune: bool,
    /// Collapse root branches that are node-relabelings of each other.
    pub symmetry: bool,
    /// Per-root-branch node budget; `None` = run to exactness. When set,
    /// branches ignore the shared incumbent (budget cutoffs must not
    /// depend on cross-thread timing), so results stay deterministic.
    pub max_nodes: Option<u64>,
    /// Known upper bound on the optimum (e.g. a catalog entry being
    /// resumed): seeds the incumbent length, tightening pruning from the
    /// start. The bound itself is not returned as a solution.
    pub incumbent_len: Option<usize>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            prune: true,
            bound: BoundKind::Lp,
            dominance: true,
            lex_prune: true,
            symmetry: true,
            max_nodes: None,
            incumbent_len: None,
        }
    }
}

impl SearchOptions {
    /// Provenance string recorded in catalog headers and hashed into the
    /// synth-campaign fingerprint: every knob that shapes the search tree.
    pub fn config_string(&self) -> String {
        let bound = match self.bound {
            BoundKind::Ceiling => "ceiling",
            BoundKind::Matching => "matching",
            BoundKind::Lp => "lp",
        };
        format!(
            "bound={bound} prune={} dominance={} lex_prune={} symmetry={}",
            self.prune, self.dominance, self.lex_prune, self.symmetry
        )
    }
}

/// Dual-ascent sweeps after the fractional seed, in the search's LP bound.
const LP_PASSES: usize = 1;

/// Search effort counters. `nodes`/`pruned` are totals over all branches
/// (they may vary run-to-run at >1 thread — incumbent timing changes what
/// gets pruned — but the winning solution never does).
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Search-tree nodes expanded.
    pub nodes: u64,
    /// Subtrees cut by the lower bound.
    pub pruned: u64,
    /// `false` when some branch hit its node budget: the result is the
    /// best found, not a proven optimum.
    pub exact: bool,
    /// Root branches explored (after symmetry deduplication).
    pub root_branches: usize,
    /// Root branches before symmetry deduplication.
    pub root_branches_total: usize,
}

/// A cover: sorted candidate ids. Compares by `(len, lex)` — the
/// deterministic incumbent rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverSolution {
    /// Candidate ids, ascending.
    pub slots: Vec<u32>,
}

impl CoverSolution {
    /// The deterministic incumbent rule: `(len, lex)` strict order.
    pub fn better_than(&self, other: &CoverSolution) -> bool {
        (self.slots.len(), &self.slots) < (other.slots.len(), &other.slots)
    }
}

/// Greedy max-marginal-gain cover (tie: lowest candidate id). Always
/// succeeds — every demand has at least one supplier — and seeds the
/// incumbent so pruning bites from the first branch.
pub fn greedy_cover(space: &DemandSpace, cands: &CandidateSpace) -> CoverSolution {
    let target = BitSet::from_iter(space.len(), 0..space.len());
    let mut counter = CoverCounter::new(space.len());
    counter.set_target(&target);
    let mut slots = Vec::new();
    while !counter.is_covered() {
        let mut best = usize::MAX;
        let mut best_gain = 0;
        for (c, cand) in cands.cands.iter().enumerate() {
            let gain = cand.coverage.intersection_len(counter.uncovered());
            if gain > best_gain {
                best_gain = gain;
                best = c;
            }
        }
        assert!(best != usize::MAX, "uncoverable demand (no supplier)");
        counter.add(&cands.cands[best].coverage);
        slots.push(best as u32);
    }
    slots.sort_unstable();
    CoverSolution { slots }
}

/// The PR 9 baseline bound: `⌈deficit / max_gain⌉`.
#[inline]
pub fn ceiling_bound(deficit: usize, max_gain: usize) -> usize {
    deficit.div_ceil(max_gain)
}

/// Greedy conflict-packing bound over the uncovered demands, maxed with
/// the ceiling bound so it dominates it unconditionally. `blocked` is
/// reusable scratch over the demand universe.
pub fn matching_bound(cands: &CandidateSpace, unc: &BitSet, blocked: &mut BitSet) -> usize {
    greedy_packing(unc, &cands.reach, blocked).max(ceiling_bound(unc.len(), cands.max_gain))
}

/// Dual-ascent LP bound on the residual cover restricted to unbanned
/// suppliers. Exact integer arithmetic throughout — see
/// [`ttdc_util::lp`] for the admissibility argument. Returns
/// [`DualAscent::INFEASIBLE`] when an uncovered demand has lost every
/// supplier to bans.
///
/// Each demand's dual seed needs the largest residual gain
/// `|coverage ∩ unc|` among its suppliers. This entry point computes every
/// candidate's gain once and allocates its own buffers; the search reads
/// the gains its per-node pass already holds and reuses per-worker
/// buffers, through the same implementation.
pub fn lp_bound(
    cands: &CandidateSpace,
    unc: &BitSet,
    banned: &[bool],
    passes: usize,
    lp: &mut DualAscent,
) -> usize {
    let mut gain = Vec::new();
    fill_gains(cands, unc, &mut gain);
    residual_lp_bound(
        cands,
        unc,
        banned,
        &gain,
        passes,
        lp,
        &mut LpScratch::default(),
    )
}

/// Reusable buffers for the LP bound's residual instance: the supplier
/// arena and one [`LpItem`] per uncovered demand.
#[derive(Default)]
struct LpScratch {
    arena: Vec<u32>,
    items: Vec<LpItem>,
}

/// The LP bound over precomputed residual gains (`gain[c] = |coverage(c)
/// ∩ unc|`).
fn residual_lp_bound(
    cands: &CandidateSpace,
    unc: &BitSet,
    banned: &[bool],
    gain: &[u32],
    passes: usize,
    lp: &mut DualAscent,
    scratch: &mut LpScratch,
) -> usize {
    let LpScratch { arena, items } = scratch;
    arena.clear();
    items.clear();
    for i in unc.iter() {
        let start = arena.len() as u32;
        let mut max_gain = 0u32;
        for &c in &cands.suppliers[i] {
            if banned[c as usize] {
                continue;
            }
            max_gain = max_gain.max(gain[c as usize]);
            arena.push(c);
        }
        items.push(LpItem {
            start,
            len: arena.len() as u32 - start,
            max_gain,
        });
    }
    lp.bound(arena, items, passes)
}

/// Fills `gain[c]` with `|coverage(c) ∩ unc|` for every candidate: one
/// popcount over `⌈demands / 64⌉` words each.
fn fill_gains(cands: &CandidateSpace, unc: &BitSet, gain: &mut Vec<u32>) {
    gain.clear();
    gain.extend(
        cands
            .cands
            .iter()
            .map(|c| c.coverage.intersection_len(unc) as u32),
    );
}

/// `true` iff `a`'s residual coverage (within `unc`) is a subset of
/// `b`'s — the word-level dominance test, allocation-free.
#[inline]
fn residual_dominated(a: &BitSet, b: &BitSet, unc: &BitSet) -> bool {
    a.words()
        .iter()
        .zip(b.words())
        .zip(unc.words())
        .all(|((&aw, &bw), &uw)| aw & uw & !bw == 0)
}

/// Class signature of a candidate under the root demand's stabilizer:
/// per-class (`x`, `y`, `Y∖{y}`, rest) transmit and receive counts.
fn root_signature(space: &DemandSpace, cands: &CandidateSpace, root: usize, c: u32) -> [usize; 8] {
    let dem = &space.demands()[root];
    let cand = &cands.cands[c as usize];
    let n = space.num_nodes();
    let mut sig = [0usize; 8];
    for v in 0..n {
        let class = if v == dem.x {
            0
        } else if v == dem.y {
            1
        } else if dem.group.contains(v) {
            2
        } else {
            3
        };
        if cand.t.contains(v) {
            sig[class] += 1;
        }
        if cand.r.contains(v) {
            sig[4 + class] += 1;
        }
    }
    sig
}

struct Worker<'a> {
    cands: &'a CandidateSpace,
    opts: &'a SearchOptions,
    shared_len: &'a AtomicUsize,
    counter: CoverCounter,
    banned: Vec<bool>,
    chosen: Vec<u32>,
    best: Option<CoverSolution>,
    /// Numeric incumbent the branch started from (greedy / resume seed).
    seed_len: usize,
    nodes: u64,
    pruned: u64,
    exhausted: bool,
    /// Scratch for the matching bound's packing.
    blocked: BitSet,
    /// Scratch for the LP bound's dual loads.
    lp: DualAscent,
    /// Scratch for the LP bound's residual instance.
    lp_scratch: LpScratch,
    /// This node's residual gains, `gain[c] = |coverage(c) ∩ uncovered|`,
    /// filled on entry to every expanded node. Only the node's own bound,
    /// lex and dominance steps read them, all before its children run, so
    /// one buffer serves the whole branch.
    gain: Vec<u32>,
    /// `kept_by[i]`: candidates the global dominance pass has kept so far
    /// whose residual coverage contains demand `i`. Only the lists of
    /// uncovered demands are live; each pass clears them first.
    kept_by: Vec<Vec<u32>>,
}

impl<'a> Worker<'a> {
    /// A worker at the empty partial schedule with nothing banned.
    fn new(
        space: &'a DemandSpace,
        cands: &'a CandidateSpace,
        opts: &'a SearchOptions,
        shared_len: &'a AtomicUsize,
        seed_len: usize,
    ) -> Self {
        let mut counter = CoverCounter::new(space.len());
        counter.set_target(&BitSet::full(space.len()));
        Worker {
            cands,
            opts,
            shared_len,
            counter,
            banned: vec![false; cands.cands.len()],
            chosen: Vec::new(),
            best: None,
            seed_len,
            nodes: 0,
            pruned: 0,
            exhausted: false,
            blocked: BitSet::new(space.len()),
            lp: DualAscent::new(cands.cands.len()),
            lp_scratch: LpScratch::default(),
            gain: Vec::with_capacity(cands.cands.len()),
            kept_by: vec![Vec::new(); space.len()],
        }
    }

    fn bound_len(&self) -> usize {
        let local = self
            .best
            .as_ref()
            .map_or(self.seed_len, |b| b.slots.len().min(self.seed_len));
        if self.opts.max_nodes.is_some() {
            local
        } else {
            local.min(self.shared_len.load(Ordering::Relaxed))
        }
    }

    /// Admissible lower bound on the slots any completion of this node
    /// still needs, per the configured bound hierarchy.
    fn lower_bound(&mut self) -> usize {
        let mut lower = ceiling_bound(self.counter.deficit(), self.cands.max_gain);
        if matches!(self.opts.bound, BoundKind::Matching | BoundKind::Lp) {
            lower = lower.max(greedy_packing(
                self.counter.uncovered(),
                &self.cands.reach,
                &mut self.blocked,
            ));
        }
        if self.opts.bound == BoundKind::Lp {
            lower = lower.max(residual_lp_bound(
                self.cands,
                self.counter.uncovered(),
                &self.banned,
                &self.gain,
                LP_PASSES,
                &mut self.lp,
                &mut self.lp_scratch,
            ));
        }
        lower
    }

    /// Applies dominance elimination to the branch suppliers, banning
    /// eliminated candidates for this node's whole subtree (the caller
    /// unbans all of `sups` afterwards). Keeps the lowest-id representative
    /// of every dominance chain.
    fn eliminate(&mut self, sups: &[u32]) -> Vec<u32> {
        let mut kept: Vec<u32> = Vec::with_capacity(sups.len());
        for &c in sups {
            if self.dominated_by_kept(c, &kept) {
                self.banned[c as usize] = true;
            } else {
                kept.push(c);
            }
        }
        kept
    }

    fn dominated_by_kept(&self, c: u32, kept: &[u32]) -> bool {
        if !self.opts.dominance {
            return false;
        }
        let unc = self.counter.uncovered();
        let cov = &self.cands.cands[c as usize].coverage;
        let g = self.gain[c as usize];
        // A residual subset is never larger: the gain test settles most
        // pairs without touching the coverage words.
        kept.iter().any(|&k| {
            g <= self.gain[k as usize]
                && residual_dominated(cov, &self.cands.cands[k as usize].coverage, unc)
        })
    }

    /// `true` when this node's subtree can no longer beat the branch-local
    /// best under `(len, lex)`. Only fires in the *tie regime* — the
    /// admissible bound says every completion is at least as long as the
    /// local best — where the lex-smallest conceivable completion is
    /// `chosen` merged with the smallest unbanned ids; if even that fails
    /// to beat the best, nothing in the subtree can. Deeper bans only
    /// shrink the options, so the verdict holds for the whole subtree.
    fn lex_hopeless(&self, depth: usize, lower: usize) -> bool {
        let Some(best) = &self.best else {
            return false;
        };
        let blen = best.slots.len();
        if depth + lower != blen {
            return false; // a strictly shorter completion may still exist
        }
        let mut chosen = self.chosen.clone();
        chosen.sort_unstable();
        let need = blen - depth;
        // A tie-length completion adds `need` candidates whose residual
        // coverages union to the whole deficit, and each contributes at
        // most `max_gain` — so every member must cover at least
        // `deficit − (need−1)·max_gain` uncovered demands (and at least
        // one: a zero-gain member could be dropped, beating the
        // admissible bound — impossible). The lex-smallest conceivable
        // fill therefore skips candidates below that threshold.
        let t_min = self
            .counter
            .deficit()
            .saturating_sub((need - 1) * self.cands.max_gain)
            .max(1);
        let mut fill: Vec<u32> = Vec::with_capacity(need);
        for id in 0..self.cands.cands.len() as u32 {
            if fill.len() == need {
                break;
            }
            if !self.banned[id as usize]
                && chosen.binary_search(&id).is_err()
                && self.gain[id as usize] as usize >= t_min
            {
                fill.push(id);
            }
        }
        if fill.len() < need {
            return true; // not enough distinct ids left even to tie
        }
        let (mut i, mut j) = (0, 0);
        for &b in &best.slots {
            let m = if i < chosen.len() && (j >= fill.len() || chosen[i] < fill[j]) {
                let v = chosen[i];
                i += 1;
                v
            } else {
                let v = fill[j];
                j += 1;
                v
            };
            if m < b {
                return false; // the subtree can still win the tie
            }
            if m > b {
                return true;
            }
        }
        true // exact tie: cannot *strictly* beat the best
    }

    /// Global dominance pass: bans every unbanned candidate whose residual
    /// coverage is a subset of an earlier unbanned candidate's (keeping the
    /// lowest id of every chain). Returns the banned ids for the caller to
    /// restore. Winner-preserving by the same substitution argument as the
    /// branch-supplier filter.
    ///
    /// Indexed, with the same verdicts as testing each candidate against
    /// every kept one: a zero-gain candidate is dominated by anything kept;
    /// otherwise a dominator must contain each demand of the candidate's
    /// residual, so only the kept list of one such demand — the shortest —
    /// needs testing, and an empty list means the candidate is kept.
    fn global_eliminate(&mut self) -> Vec<u32> {
        let unc = self.counter.uncovered();
        for i in unc.iter() {
            self.kept_by[i].clear();
        }
        let mut any_kept = false;
        let mut eliminated: Vec<u32> = Vec::new();
        for c in 0..self.cands.cands.len() as u32 {
            if self.banned[c as usize] {
                continue;
            }
            let cov = &self.cands.cands[c as usize].coverage;
            let dominated = if self.gain[c as usize] == 0 {
                any_kept
            } else {
                let mut pick = usize::MAX;
                let mut pick_len = usize::MAX;
                cov.intersect_for_each(unc, |i| {
                    let len = self.kept_by[i].len();
                    if len < pick_len {
                        (pick, pick_len) = (i, len);
                    }
                    len > 0
                });
                pick_len > 0 && self.dominated_by_kept(c, &self.kept_by[pick])
            };
            if dominated {
                self.banned[c as usize] = true;
                eliminated.push(c);
            } else {
                any_kept = true;
                let kept_by = &mut self.kept_by;
                cov.intersect_for_each(unc, |i| {
                    kept_by[i].push(c);
                    true
                });
            }
        }
        eliminated
    }

    fn dfs(&mut self) {
        self.nodes += 1;
        if let Some(budget) = self.opts.max_nodes {
            if self.nodes > budget {
                self.exhausted = true;
                return;
            }
        }
        if self.counter.is_covered() {
            let mut slots = self.chosen.clone();
            slots.sort_unstable();
            let sol = CoverSolution { slots };
            let better = match &self.best {
                Some(b) => sol.better_than(b),
                None => sol.slots.len() <= self.seed_len,
            };
            if better {
                self.shared_len
                    .fetch_min(sol.slots.len(), Ordering::Relaxed);
                self.best = Some(sol);
            }
            return;
        }
        let depth = self.chosen.len();
        let lp_here = self.opts.prune && self.opts.bound == BoundKind::Lp;
        if lp_here || self.opts.lex_prune || self.opts.dominance {
            fill_gains(self.cands, self.counter.uncovered(), &mut self.gain);
        }
        let lower = if self.opts.prune {
            self.lower_bound()
        } else {
            1 // not covered ⇒ at least one more slot; keeps ties exact
        };
        if depth + lower > self.bound_len() {
            self.pruned += 1;
            return;
        }
        if self.opts.lex_prune && self.lex_hopeless(depth, lower) {
            self.pruned += 1;
            return;
        }
        let globally_eliminated = if self.opts.dominance {
            self.global_eliminate()
        } else {
            Vec::new()
        };
        // Branch demand: uncovered, fewest unbanned suppliers, tie lowest.
        let mut branch = usize::MAX;
        let mut branch_count = usize::MAX;
        for i in self.counter.uncovered().iter() {
            let count = self.cands.suppliers[i]
                .iter()
                .filter(|&&c| !self.banned[c as usize])
                .count();
            if count < branch_count {
                branch_count = count;
                branch = i;
                if count == 0 {
                    break;
                }
            }
        }
        if branch_count == 0 {
            // Dead end: demand lost all suppliers to bans.
            for &c in &globally_eliminated {
                self.banned[c as usize] = false;
            }
            return;
        }
        let sups: Vec<u32> = self.cands.suppliers[branch]
            .iter()
            .copied()
            .filter(|&c| !self.banned[c as usize])
            .collect();
        let kept = self.eliminate(&sups);
        let cands = self.cands;
        for &c in &kept {
            if self.exhausted {
                break;
            }
            let mark = self.counter.mark();
            // Coverage is over the full demand set — already a subset of
            // the target, no masking needed.
            self.counter.add_tracked(&cands.cands[c as usize].coverage);
            self.chosen.push(c);
            self.dfs();
            self.chosen.pop();
            self.counter.undo_to(mark);
            self.banned[c as usize] = true;
        }
        for &c in &sups {
            self.banned[c as usize] = false;
        }
        for &c in &globally_eliminated {
            self.banned[c as usize] = false;
        }
    }
}

/// The deterministic root fan-out: branch demand, symmetry-reduced branch
/// candidates, the greedy seed and the numeric incumbent every branch
/// starts from. Computed once, then each branch can run (and be
/// checkpointed) independently — the campaign runner's unit of work.
#[derive(Clone, Debug)]
pub struct RootPlan {
    /// The root branch demand (globally fewest suppliers, tie lowest id).
    pub root: usize,
    /// Branch candidates after symmetry deduplication, ascending.
    pub branch_cands: Vec<u32>,
    /// Supplier count before symmetry deduplication.
    pub root_branches_total: usize,
    /// The greedy seed cover (a valid solution even if every branch is
    /// budget-starved).
    pub greedy: CoverSolution,
    /// `min(greedy length, incumbent_len)` — the numeric incumbent every
    /// branch starts from.
    pub seed_len: usize,
}

/// One root branch's outcome: its branch-local `(len, lex)` minimum (if
/// it beat the seed) plus effort counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchResult {
    /// Best cover known to the branch. With lex pruning this starts from
    /// the greedy seed (so it is `Some` even when the subtree held nothing
    /// better); otherwise `None` means nothing beat the seed.
    pub best: Option<CoverSolution>,
    /// Nodes expanded in this branch.
    pub nodes: u64,
    /// Subtrees cut in this branch.
    pub pruned: u64,
    /// `true` when the branch hit its node budget.
    pub exhausted: bool,
}

/// Computes the deterministic root fan-out for `(space, cands, opts)`.
pub fn plan_root(space: &DemandSpace, cands: &CandidateSpace, opts: &SearchOptions) -> RootPlan {
    let greedy = greedy_cover(space, cands);
    let seed_len = greedy
        .slots
        .len()
        .min(opts.incumbent_len.unwrap_or(usize::MAX));
    // Root branch demand: globally fewest suppliers, tie lowest id.
    let root = (0..space.len())
        .min_by_key(|&i| (cands.suppliers[i].len(), i))
        .expect("demand space is never empty");
    let all_sups = &cands.suppliers[root];
    let branch_cands: Vec<u32> = if opts.symmetry {
        let mut seen: Vec<[usize; 8]> = Vec::new();
        let mut kept = Vec::new();
        for &c in all_sups {
            let sig = root_signature(space, cands, root, c);
            if !seen.contains(&sig) {
                seen.push(sig);
                kept.push(c);
            }
        }
        kept
    } else {
        all_sups.clone()
    };
    RootPlan {
        root,
        branch_cands,
        root_branches_total: all_sups.len(),
        greedy,
        seed_len,
    }
}

/// Runs root branch `index` of `plan` to completion (or budget). Branch
/// `i` bans the candidates of branches `0..i` — they were (or will be)
/// fully explored elsewhere, so no slot set is visited twice. `shared_len`
/// is the cross-branch incumbent length; a budgeted branch never reads it,
/// so its result is independent of execution order and kill history.
pub fn search_root_branch(
    space: &DemandSpace,
    cands: &CandidateSpace,
    opts: &SearchOptions,
    plan: &RootPlan,
    index: usize,
    shared_len: &AtomicUsize,
) -> BranchResult {
    let mut w = Worker::new(space, cands, opts, shared_len, plan.seed_len);
    for &prev in &plan.branch_cands[..index] {
        w.banned[prev as usize] = true;
    }
    let c = plan.branch_cands[index];
    w.counter.add(&cands.cands[c as usize].coverage);
    w.chosen.push(c);
    // With lex pruning on, seed the branch-local incumbent with the greedy
    // solution so the tie regime is active from the very first node (the
    // greedy seed is often already optimal in length, and without a
    // concrete incumbent the whole first dive enumerates optimal-length
    // covers un-lex-pruned). The seed is identical for every branch, so
    // branch results stay independent of execution order, and the final
    // reduce starts from the greedy cover anyway, so winners are unchanged.
    w.best = opts.lex_prune.then(|| plan.greedy.clone());
    w.dfs();
    BranchResult {
        best: w.best,
        nodes: w.nodes,
        pruned: w.pruned,
        exhausted: w.exhausted,
    }
}

/// Runs the root branches `indices` of `plan` over the rayon pool, one
/// task each, sharing one incumbent length, and hands each result to
/// `on_done` as its branch finishes. Returns the results in `indices`
/// order.
pub fn run_branches(
    space: &DemandSpace,
    cands: &CandidateSpace,
    opts: &SearchOptions,
    plan: &RootPlan,
    indices: &[usize],
    on_done: impl Fn(usize, &BranchResult) + Sync,
) -> Vec<BranchResult> {
    let shared_len = AtomicUsize::new(plan.seed_len);
    indices
        .to_vec()
        .into_par_iter()
        .with_min_len(1)
        .map(|i| {
            let r = search_root_branch(space, cands, opts, plan, i, &shared_len);
            on_done(i, &r);
            r
        })
        .collect()
}

/// The ordered reduce over every root branch's result: starts from the
/// greedy seed, adopts each branch best that wins under the `(len, lex)`
/// rule, and totals the effort.
pub fn reduce_branches(
    plan: &RootPlan,
    results: impl IntoIterator<Item = BranchResult>,
) -> (CoverSolution, SearchStats) {
    let mut best = plan.greedy.clone();
    let mut stats = SearchStats {
        exact: true,
        root_branches: plan.branch_cands.len(),
        root_branches_total: plan.root_branches_total,
        ..SearchStats::default()
    };
    for r in results {
        stats.nodes += r.nodes;
        stats.pruned += r.pruned;
        stats.exact &= !r.exhausted;
        if let Some(sol) = r.best.filter(|sol| sol.better_than(&best)) {
            best = sol;
        }
    }
    (best, stats)
}

/// Exact (or budgeted) minimum set cover: every root branch of
/// [`plan_root`] through [`run_branches`] and [`reduce_branches`]. See the
/// module docs for the determinism argument.
pub fn minimum_cover(
    space: &DemandSpace,
    cands: &CandidateSpace,
    opts: &SearchOptions,
) -> (CoverSolution, SearchStats) {
    let plan = plan_root(space, cands, opts);
    let all: Vec<usize> = (0..plan.branch_cands.len()).collect();
    reduce_branches(
        &plan,
        run_branches(space, cands, opts, &plan, &all, |_, _| {}),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(n: usize, d: usize, at: usize, ar: usize, opts: &SearchOptions) -> (usize, Vec<u32>) {
        let space = DemandSpace::new(n, d);
        let cands = CandidateSpace::new(&space, at, ar);
        let (sol, stats) = minimum_cover(&space, &cands, opts);
        assert!(stats.exact);
        (sol.slots.len(), sol.slots)
    }

    #[test]
    fn pruned_and_exhaustive_agree_on_optimum_length() {
        for (n, d, at, ar) in [(4, 1, 1, 1), (5, 1, 1, 2), (5, 2, 1, 2)] {
            let full = SearchOptions::default();
            let bare = SearchOptions {
                prune: false,
                dominance: false,
                lex_prune: false,
                symmetry: false,
                ..SearchOptions::default()
            };
            let (l1, _) = solve(n, d, at, ar, &full);
            let (l2, _) = solve(n, d, at, ar, &bare);
            assert_eq!(l1, l2, "({n},{d},{at},{ar})");
        }
    }

    #[test]
    fn every_bound_kind_and_dominance_preserve_the_winner() {
        // Bound pruning and dominance elimination are winner-preserving:
        // same (len, lex) winner as the prune-free search under the same
        // root symmetry.
        for (n, d, at, ar) in [(4, 1, 1, 1), (5, 1, 1, 2), (5, 2, 1, 2), (4, 2, 2, 2)] {
            let bare = SearchOptions {
                prune: false,
                dominance: false,
                lex_prune: false,
                ..SearchOptions::default()
            };
            let reference = solve(n, d, at, ar, &bare);
            for bound in [BoundKind::Ceiling, BoundKind::Matching, BoundKind::Lp] {
                for dominance in [false, true] {
                    let opts = SearchOptions {
                        bound,
                        dominance,
                        ..SearchOptions::default()
                    };
                    assert_eq!(
                        solve(n, d, at, ar, &opts),
                        reference,
                        "({n},{d},{at},{ar}) {bound:?} dominance={dominance}"
                    );
                }
            }
        }
    }

    #[test]
    fn config_string_names_every_tree_shaping_knob() {
        let base = SearchOptions::default();
        let variants = [
            SearchOptions {
                prune: false,
                ..base
            },
            SearchOptions {
                dominance: false,
                ..base
            },
            SearchOptions {
                lex_prune: false,
                ..base
            },
            SearchOptions {
                symmetry: false,
                ..base
            },
            SearchOptions {
                bound: BoundKind::Ceiling,
                ..base
            },
            SearchOptions {
                bound: BoundKind::Matching,
                ..base
            },
        ];
        let mut seen = vec![base.config_string()];
        for v in variants {
            let s = v.config_string();
            assert!(!seen.contains(&s), "{s:?} names two configurations");
            seen.push(s);
        }
    }

    #[test]
    fn solution_covers_every_demand() {
        let space = DemandSpace::new(5, 2);
        let cands = CandidateSpace::new(&space, 1, 2);
        let (sol, _) = minimum_cover(&space, &cands, &SearchOptions::default());
        let mut covered = BitSet::new(space.len());
        for &c in &sol.slots {
            covered.union_with(&cands.cands[c as usize].coverage);
        }
        assert_eq!(covered.len(), space.len());
    }

    #[test]
    fn incumbent_seed_never_changes_the_answer() {
        let space = DemandSpace::new(5, 1);
        let cands = CandidateSpace::new(&space, 1, 2);
        let (a, _) = minimum_cover(&space, &cands, &SearchOptions::default());
        let seeded = SearchOptions {
            incumbent_len: Some(a.slots.len()),
            ..SearchOptions::default()
        };
        let (b, _) = minimum_cover(&space, &cands, &seeded);
        assert_eq!(a, b);
    }

    #[test]
    fn budgeted_search_is_marked_inexact() {
        let space = DemandSpace::new(6, 2);
        let cands = CandidateSpace::new(&space, 1, 2);
        let opts = SearchOptions {
            max_nodes: Some(5),
            ..SearchOptions::default()
        };
        let (sol, stats) = minimum_cover(&space, &cands, &opts);
        // The greedy seed guarantees a valid cover even when every branch
        // runs out of budget.
        assert!(!sol.slots.is_empty());
        assert!(!stats.exact || stats.nodes <= 5 * stats.root_branches as u64);
    }

    /// The dominance pass the indexed one replaces: every unbanned
    /// candidate tested against every candidate kept before it.
    fn quadratic_eliminate(cands: &CandidateSpace, unc: &BitSet, banned: &[bool]) -> Vec<u32> {
        let mut kept: Vec<u32> = Vec::new();
        let mut eliminated = Vec::new();
        for c in 0..cands.cands.len() as u32 {
            if banned[c as usize] {
                continue;
            }
            let cov = &cands.cands[c as usize].coverage;
            if kept
                .iter()
                .any(|&k| residual_dominated(cov, &cands.cands[k as usize].coverage, unc))
            {
                eliminated.push(c);
            } else {
                kept.push(c);
            }
        }
        eliminated
    }

    #[test]
    fn indexed_dominance_bans_exactly_what_the_quadratic_pass_bans() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Demand universes of one word (20 demands), two words (90, 120)
        // and four words (210).
        for (n, d, at, ar) in [(5, 1, 1, 2), (10, 1, 1, 3), (6, 2, 1, 3), (7, 2, 1, 2)] {
            let space = DemandSpace::new(n, d);
            let cands = CandidateSpace::new(&space, at, ar);
            let opts = SearchOptions::default();
            let shared = AtomicUsize::new(usize::MAX);
            let mut w = Worker::new(&space, &cands, &opts, &shared, usize::MAX);
            let mut rng = SmallRng::seed_from_u64((n * 1000 + d * 100 + at * 10 + ar) as u64);
            for state in 0..60 {
                let mark = w.counter.mark();
                for _ in 0..rng.gen_range(0..8usize) {
                    let c = rng.gen_range(0..cands.cands.len());
                    w.counter.add_tracked(&cands.cands[c].coverage);
                }
                let p_ban = [0.0, 0.1, 0.5][state % 3];
                for b in w.banned.iter_mut() {
                    *b = rng.gen_bool(p_ban);
                }
                let mut expect_banned = w.banned.clone();

                fill_gains(&cands, w.counter.uncovered(), &mut w.gain);
                for (c, cand) in cands.cands.iter().enumerate() {
                    assert_eq!(
                        w.gain[c] as usize,
                        cand.coverage.intersection_len(w.counter.uncovered()),
                        "({n},{d},{at},{ar}) state {state}: gain of {c}"
                    );
                }
                let expect = quadratic_eliminate(&cands, w.counter.uncovered(), &w.banned);
                let got = w.global_eliminate();
                assert_eq!(got, expect, "({n},{d},{at},{ar}) state {state}");
                for &c in &expect {
                    expect_banned[c as usize] = true;
                }
                assert_eq!(w.banned, expect_banned, "({n},{d},{at},{ar}) state {state}");
                w.counter.undo_to(mark);
            }
        }
    }

    #[test]
    fn branch_results_are_independent_of_execution_order() {
        // The campaign contract: a branch searched with its own local
        // incumbent yields the same result no matter what ran before it.
        let space = DemandSpace::new(5, 1);
        let cands = CandidateSpace::new(&space, 1, 2);
        let opts = SearchOptions::default();
        let plan = plan_root(&space, &cands, &opts);
        let forward: Vec<BranchResult> = (0..plan.branch_cands.len())
            .map(|i| {
                let local = AtomicUsize::new(plan.seed_len);
                search_root_branch(&space, &cands, &opts, &plan, i, &local)
            })
            .collect();
        let backward: Vec<BranchResult> = (0..plan.branch_cands.len())
            .rev()
            .map(|i| {
                let local = AtomicUsize::new(plan.seed_len);
                search_root_branch(&space, &cands, &opts, &plan, i, &local)
            })
            .collect();
        let mut backward = backward;
        backward.reverse();
        assert_eq!(forward, backward);
    }
}
