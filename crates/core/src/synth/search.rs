//! Parallel branch-and-bound minimum set cover over candidate slots.
//!
//! The search state is a partial schedule (a set of chosen candidate ids)
//! whose demand coverage lives in a [`CoverCounter`]: descending adds a
//! candidate's coverage with [`CoverCounter::add_tracked`], backtracking
//! unwinds it through the O(1)-mark undo trail — no rescan of the partial
//! solution. Branching picks the uncovered demand with the fewest
//! remaining suppliers, and sibling branches ban earlier-tried candidates
//! so no slot set is visited twice. Every ban a node makes, dominance and
//! sibling alike, goes on one ban trail that the node unwinds to its entry
//! length before it returns. A demand whose suppliers are all banned makes
//! the LP bound infeasible, so its subtree is pruned before it branches.
//!
//! The search has one shape: both bounds, lex pruning, the dominance pass
//! and root symmetry run at every search. [`SearchOptions`] only
//! budgets it and seeds its incumbent. [`exhaustive_cover`] is the
//! prune-free reference the tests and the `bench_all` `synth` family
//! compare it against.
//!
//! **Bounds.** Two admissible lower bounds on the slots any completion
//! still needs, paid at every expanded node; the larger one is used:
//!
//! * *Ceiling*: `⌈deficit / max_gain⌉` — one division.
//! * *LP*: an exact scaled-integer dual-ascent on the residual set-cover
//!   LP ([`ttdc_util::DualAscent`]), restricted to unbanned suppliers.
//!   Each uncovered demand's dual seed needs the largest residual gain
//!   among its suppliers, read from the node's gain pass (below), so the
//!   bound costs one walk over the uncovered demands' supplier lists into
//!   per-worker buffers.
//!
//! A subtree is cut only when `depth + bound` *strictly* exceeds the best
//! known length, so every optimum-length solution survives pruning
//! regardless of incumbent timing — the keystone of cross-thread
//! determinism.
//!
//! **Residual gains.** On entry to every expanded node the worker fills
//! `gain[c] = |coverage(c) ∩ uncovered|` for every candidate: one popcount
//! over `⌈demands / 64⌉` words each. The LP seed, the lex-prune threshold
//! and the dominance pass read these gains instead of intersecting
//! coverages again. A node reads its gains before its children run, and
//! the child loop only adds, undoes and bans, so one buffer per worker
//! serves the whole branch.
//!
//! **Lex pruning.** A subtree that can at best *tie* the branch-local
//! incumbent's length but cannot beat it lexicographically is cut: only
//! completions strictly worse under the `(len, lex)` rule are discarded,
//! and the test reads branch-local state only, so thread-count
//! determinism is unaffected.
//!
//! **Dominance.** A candidate whose residual coverage is a subset of an
//! earlier (lower-id) candidate's residual coverage is eliminated:
//! replacing it by the dominator turns any cover through it into one that
//! is no longer and lexicographically smaller, so the `(len, lex)`-minimal
//! winner never routes through a dominated candidate. Dominance
//! elimination is therefore *winner-preserving*, not just
//! length-preserving. One pass per node applies it: it tests every
//! unbanned candidate in id order against the candidates kept so far (by
//! transitivity, testing only kept ones bans the same set as testing every
//! earlier one), and the branch suppliers are then walked without a second
//! test, since any of them dominated by an earlier one is already banned.
//! It skips a pair at once when the candidate's gain exceeds the other's,
//! since a subset is never larger. The pass is *indexed*: per uncovered
//! demand it lists the kept candidates whose residual contains it. A
//! zero-gain candidate is dominated iff anything has been kept. Otherwise
//! a dominator must contain every demand of the candidate's residual, so
//! testing the candidate against the shortest of those demands' lists
//! alone gives the same verdict, and an empty list means it is kept.
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
use ttdc_util::{BitSet, CoverCounter, DualAscent, LpItem};

/// What a [`minimum_cover`] call may vary: its budget and its incumbent
/// seed. The tree it searches is fixed (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchOptions {
    /// Per-root-branch node budget; `None` = run to exactness. When set,
    /// branches ignore the shared incumbent (budget cutoffs must not
    /// depend on cross-thread timing), so results stay deterministic.
    pub max_nodes: Option<u64>,
    /// Known upper bound on the optimum (e.g. a catalog entry being
    /// resumed): seeds the incumbent length, tightening pruning from the
    /// start. The bound itself is not returned as a solution.
    pub incumbent_len: Option<usize>,
}

impl SearchOptions {
    /// Provenance string recorded in catalog headers and hashed into the
    /// synth-campaign fingerprint. It names the search's one tree shape in
    /// the spelling it had while that shape was selectable, so catalog
    /// headers and campaign manifests written then still match.
    pub fn config_string(&self) -> String {
        "bound=lp prune=true dominance=true lex_prune=true symmetry=true".to_string()
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

/// Prune-free reference search: the `(len, lex)` winner over every cover
/// and the number of nodes it expanded. It branches on the uncovered
/// demand with the fewest unbanned suppliers, bans each sibling once
/// tried, and cuts a node only when one more slot would exceed the best
/// length found so far, starting from the greedy cover. It shares no
/// bound, dominance, lex or symmetry code with [`minimum_cover`], which
/// tests and benches check against it.
pub fn exhaustive_cover(space: &DemandSpace, cands: &CandidateSpace) -> (CoverSolution, u64) {
    struct Enumeration<'a> {
        cands: &'a CandidateSpace,
        counter: CoverCounter,
        banned: Vec<bool>,
        chosen: Vec<u32>,
        best: CoverSolution,
        nodes: u64,
    }
    impl Enumeration<'_> {
        fn dfs(&mut self) {
            self.nodes += 1;
            if self.counter.is_covered() {
                let mut slots = self.chosen.clone();
                slots.sort_unstable();
                let sol = CoverSolution { slots };
                if sol.better_than(&self.best) {
                    self.best = sol;
                }
                return;
            }
            if self.chosen.len() + 1 > self.best.slots.len() {
                return;
            }
            let unbanned = |i: usize| {
                self.cands.suppliers[i]
                    .iter()
                    .copied()
                    .filter(|&c| !self.banned[c as usize])
            };
            let branch = self
                .counter
                .uncovered()
                .iter()
                .min_by_key(|&i| unbanned(i).count())
                .expect("an uncovered node has an uncovered demand");
            let sups: Vec<u32> = unbanned(branch).collect();
            for &c in &sups {
                let mark = self.counter.mark();
                self.counter
                    .add_tracked(&self.cands.cands[c as usize].coverage);
                self.chosen.push(c);
                self.dfs();
                self.chosen.pop();
                self.counter.undo_to(mark);
                self.banned[c as usize] = true;
            }
            for &c in &sups {
                self.banned[c as usize] = false;
            }
        }
    }
    let mut counter = CoverCounter::new(space.len());
    counter.set_target(&BitSet::full(space.len()));
    let mut e = Enumeration {
        cands,
        counter,
        banned: vec![false; cands.cands.len()],
        chosen: Vec::new(),
        best: greedy_cover(space, cands),
        nodes: 0,
    };
    e.dfs();
    (e.best, e.nodes)
}

/// The counting bound: `⌈deficit / max_gain⌉`.
#[inline]
pub fn ceiling_bound(deficit: usize, max_gain: usize) -> usize {
    deficit.div_ceil(max_gain)
}

/// Dual-ascent LP bound on the residual cover restricted to unbanned
/// suppliers, with the search's one ascent sweep. Exact integer arithmetic
/// throughout — see [`ttdc_util::lp`] for the admissibility argument.
/// Returns [`DualAscent::INFEASIBLE`] when an uncovered demand has lost
/// every supplier to bans.
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
    lp: &mut DualAscent,
) -> usize {
    let mut gain = Vec::new();
    fill_gains(cands, unc, &mut gain);
    residual_lp_bound(cands, unc, banned, &gain, lp, &mut LpScratch::default())
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
    lp.bound(arena, items, LP_PASSES)
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
    /// Ban trail: the ids `banned` marks, in ban order. A node records its
    /// length on entry and [`Worker::unban_to`] restores it, the ban-side
    /// twin of the counter's mark/undo.
    bans: Vec<u32>,
    chosen: Vec<u32>,
    /// Branch-local incumbent under the `(len, lex)` rule.
    best: CoverSolution,
    /// Numeric incumbent the branch started from (greedy / resume seed).
    seed_len: usize,
    nodes: u64,
    pruned: u64,
    exhausted: bool,
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
    /// Scratch for the lex test: `chosen`, sorted.
    lex_chosen: Vec<u32>,
    /// Scratch for the lex test: the smallest ids that could complete it.
    lex_fill: Vec<u32>,
}

impl<'a> Worker<'a> {
    /// A worker at the empty partial schedule with nothing banned and
    /// `best` as its incumbent.
    fn new(
        space: &'a DemandSpace,
        cands: &'a CandidateSpace,
        opts: &'a SearchOptions,
        shared_len: &'a AtomicUsize,
        best: CoverSolution,
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
            bans: Vec::new(),
            chosen: Vec::new(),
            best,
            seed_len,
            nodes: 0,
            pruned: 0,
            exhausted: false,
            lp: DualAscent::new(cands.cands.len()),
            lp_scratch: LpScratch::default(),
            gain: Vec::with_capacity(cands.cands.len()),
            kept_by: vec![Vec::new(); space.len()],
            lex_chosen: Vec::new(),
            lex_fill: Vec::new(),
        }
    }

    fn bound_len(&self) -> usize {
        let local = self.best.slots.len().min(self.seed_len);
        if self.opts.max_nodes.is_some() {
            local
        } else {
            local.min(self.shared_len.load(Ordering::Relaxed))
        }
    }

    /// Admissible lower bound on the slots any completion of this node
    /// still needs: the larger of the ceiling and LP bounds.
    fn lower_bound(&mut self) -> usize {
        ceiling_bound(self.counter.deficit(), self.cands.max_gain).max(residual_lp_bound(
            self.cands,
            self.counter.uncovered(),
            &self.banned,
            &self.gain,
            &mut self.lp,
            &mut self.lp_scratch,
        ))
    }

    fn ban(&mut self, c: u32) {
        self.banned[c as usize] = true;
        self.bans.push(c);
    }

    /// Lifts every ban made since the trail had length `mark`.
    fn unban_to(&mut self, mark: usize) {
        for &c in &self.bans[mark..] {
            self.banned[c as usize] = false;
        }
        self.bans.truncate(mark);
    }

    fn dominated_by_kept(&self, c: u32, kept: &[u32]) -> bool {
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
    fn lex_hopeless(&mut self, depth: usize, lower: usize) -> bool {
        let best = &self.best;
        let blen = best.slots.len();
        if depth + lower != blen {
            return false; // a strictly shorter completion may still exist
        }
        let chosen = &mut self.lex_chosen;
        chosen.clone_from(&self.chosen);
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
        let fill = &mut self.lex_fill;
        fill.clear();
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
    /// lowest id of every chain), pushing each ban onto the trail.
    ///
    /// Indexed, with the same verdicts as testing each candidate against
    /// every kept one: a zero-gain candidate is dominated by anything kept;
    /// otherwise a dominator must contain each demand of the candidate's
    /// residual, so only the kept list of one such demand — the shortest —
    /// needs testing, and an empty list means the candidate is kept.
    fn global_eliminate(&mut self) {
        let unc = self.counter.uncovered();
        for i in unc.iter() {
            self.kept_by[i].clear();
        }
        let mut any_kept = false;
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
                self.bans.push(c);
            } else {
                any_kept = true;
                let kept_by = &mut self.kept_by;
                cov.intersect_for_each(unc, |i| {
                    kept_by[i].push(c);
                    true
                });
            }
        }
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
            if sol.better_than(&self.best) {
                self.shared_len
                    .fetch_min(sol.slots.len(), Ordering::Relaxed);
                self.best = sol;
            }
            return;
        }
        let depth = self.chosen.len();
        fill_gains(self.cands, self.counter.uncovered(), &mut self.gain);
        let lower = self.lower_bound();
        if depth + lower > self.bound_len() || self.lex_hopeless(depth, lower) {
            self.pruned += 1;
            return;
        }
        let ban_mark = self.bans.len();
        self.global_eliminate();
        // Branch demand: uncovered, fewest unbanned suppliers, tie lowest.
        let cands = self.cands;
        let unbanned = |i: usize| {
            cands.suppliers[i]
                .iter()
                .filter(|&&c| !self.banned[c as usize])
                .count()
        };
        let (branch, branch_count) = self
            .counter
            .uncovered()
            .iter()
            .map(|i| (i, unbanned(i)))
            .min_by_key(|&(_, count)| count)
            .expect("an uncovered node has an uncovered demand");
        debug_assert!(
            branch_count > 0,
            "a demand with no unbanned supplier makes the LP bound INFEASIBLE, \
             so its node is pruned before branching"
        );
        // Each child lifts its own bans before it returns, so the suppliers
        // walked here are the ones the dominance pass left, minus the
        // siblings already tried.
        for &c in &cands.suppliers[branch] {
            if self.exhausted {
                break;
            }
            if self.banned[c as usize] {
                continue;
            }
            let mark = self.counter.mark();
            // Coverage is over the full demand set — already a subset of
            // the target, no masking needed.
            self.counter.add_tracked(&cands.cands[c as usize].coverage);
            self.chosen.push(c);
            self.dfs();
            self.chosen.pop();
            self.counter.undo_to(mark);
            self.ban(c);
        }
        self.unban_to(ban_mark);
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
    /// Best cover known to the branch. It starts from the greedy seed, so
    /// it is `Some` even when the subtree held nothing better.
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
    let mut seen: Vec<[usize; 8]> = Vec::new();
    let mut branch_cands = Vec::new();
    for &c in all_sups {
        let sig = root_signature(space, cands, root, c);
        if !seen.contains(&sig) {
            seen.push(sig);
            branch_cands.push(c);
        }
    }
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
    // Seed the branch-local incumbent with the greedy solution so lex
    // pruning's tie regime is active from the very first node (the greedy
    // seed is often already optimal in length, and without a concrete
    // incumbent the whole first dive enumerates optimal-length covers
    // un-lex-pruned). The seed is identical for every branch, so branch
    // results stay independent of execution order, and the final reduce
    // starts from the greedy cover anyway, so winners are unchanged.
    let greedy = plan.greedy.clone();
    let mut w = Worker::new(space, cands, opts, shared_len, greedy, plan.seed_len);
    for &prev in &plan.branch_cands[..index] {
        w.ban(prev);
    }
    let c = plan.branch_cands[index];
    w.counter.add(&cands.cands[c as usize].coverage);
    w.chosen.push(c);
    w.dfs();
    BranchResult {
        best: Some(w.best),
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

    #[test]
    fn pruned_and_exhaustive_agree_on_optimum_length() {
        // Bound pruning, lex pruning, dominance elimination and root
        // symmetry are winner-preserving: same (len, lex) winner as the
        // prune-free enumeration.
        for (n, d, at, ar) in [(4, 1, 1, 1), (5, 1, 1, 2), (5, 2, 1, 2), (4, 2, 2, 2)] {
            let space = DemandSpace::new(n, d);
            let cands = CandidateSpace::new(&space, at, ar);
            let (reference, _) = exhaustive_cover(&space, &cands);
            let (sol, stats) = minimum_cover(&space, &cands, &SearchOptions::default());
            assert!(stats.exact);
            assert_eq!(sol, reference, "({n},{d},{at},{ar})");
        }
    }

    #[test]
    fn config_string_keeps_the_catalog_and_manifest_spelling() {
        // Catalog `# search` lines and synth-campaign fingerprints carry
        // this string; a drift breaks the resume of existing campaigns.
        assert_eq!(
            SearchOptions::default().config_string(),
            "bound=lp prune=true dominance=true lex_prune=true symmetry=true"
        );
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
            let greedy = greedy_cover(&space, &cands);
            let mut w = Worker::new(&space, &cands, &opts, &shared, greedy, usize::MAX);
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
                let before = w.banned.clone();
                let mut expect_banned = before.clone();

                fill_gains(&cands, w.counter.uncovered(), &mut w.gain);
                for (c, cand) in cands.cands.iter().enumerate() {
                    assert_eq!(
                        w.gain[c] as usize,
                        cand.coverage.intersection_len(w.counter.uncovered()),
                        "({n},{d},{at},{ar}) state {state}: gain of {c}"
                    );
                }
                let expect = quadratic_eliminate(&cands, w.counter.uncovered(), &w.banned);
                let ban_mark = w.bans.len();
                w.global_eliminate();
                assert_eq!(
                    w.bans[ban_mark..],
                    expect,
                    "({n},{d},{at},{ar}) state {state}"
                );
                for &c in &expect {
                    expect_banned[c as usize] = true;
                }
                assert_eq!(w.banned, expect_banned, "({n},{d},{at},{ar}) state {state}");
                w.unban_to(ban_mark);
                assert_eq!(w.banned, before, "({n},{d},{at},{ar}) state {state}");
                w.counter.undo_to(mark);
            }
        }
    }

    #[test]
    fn a_demand_without_suppliers_is_pruned_before_branching() {
        // `dfs` has no dead-end branch: the LP bound turns a demand whose
        // every supplier is banned into an infeasible node, which the bound
        // test prunes before a branch demand is picked.
        let space = DemandSpace::new(5, 1);
        let cands = CandidateSpace::new(&space, 1, 2);
        let opts = SearchOptions::default();
        let shared = AtomicUsize::new(usize::MAX);
        let greedy = greedy_cover(&space, &cands);
        let seed_len = greedy.slots.len();
        let mut w = Worker::new(&space, &cands, &opts, &shared, greedy, seed_len);
        for &c in &cands.suppliers[0] {
            w.ban(c);
        }
        fill_gains(&cands, w.counter.uncovered(), &mut w.gain);
        assert!(w.lower_bound() >= DualAscent::INFEASIBLE);
        w.dfs();
        assert_eq!((w.nodes, w.pruned), (1, 1));
        assert_eq!(w.bans.len(), cands.suppliers[0].len());
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
