//! The `design` workload: the schedule designer's loop with no simulator.
//! Each op synthesizes one parameter point, validates the winner with the
//! naive oracles, builds Figure 2 for the same point and verifies and
//! analyzes it.

use crate::host::{self, mix};
use crate::stats::Window;
use crate::trace::{Span, Tracer};
use crate::{Bench, Metric};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use ttdc_core::latency::{average_access_delay, worst_case_access_delay};
use ttdc_core::requirements::requirement3_violation;
use ttdc_core::synth::catalog::{self, CatalogEntry};
use ttdc_core::synth::demands::{CandidateSpace, DemandSpace};
use ttdc_core::synth::search::{
    greedy_cover, plan_root, search_root_branch, BranchResult, SearchOptions,
};
use ttdc_core::synth::{polish, synthesize, SynthOptions, SynthProblem, VerifyCache};
use ttdc_core::tsma::{self, SourceKind};
use ttdc_core::{average_throughput, construct, min_throughput, PartitionStrategy, Schedule};

/// One parameter point with the optimum the search itself proves (or,
/// for a budgeted point, the length budget plus polish reach). These
/// are pinned from the search, not from the committed catalog, which is
/// behind on several points (see the benchmark's README).
#[derive(Clone, Copy, Debug)]
pub struct DesignPoint {
    pub problem: SynthProblem,
    /// Exact re-proof seeded at the pinned optimum, or a per-branch node
    /// budget with polish.
    pub max_nodes: Option<u64>,
    pub pinned_len: usize,
}

impl DesignPoint {
    const fn exact(n: usize, d: usize, at: usize, ar: usize, len: usize) -> DesignPoint {
        DesignPoint {
            problem: SynthProblem {
                n,
                d,
                alpha_t: at,
                alpha_r: ar,
            },
            max_nodes: None,
            pinned_len: len,
        }
    }

    const fn budgeted(
        n: usize,
        d: usize,
        at: usize,
        ar: usize,
        budget: u64,
        len: usize,
    ) -> DesignPoint {
        DesignPoint {
            max_nodes: Some(budget),
            ..DesignPoint::exact(n, d, at, ar, len)
        }
    }

    fn options(&self) -> SynthOptions {
        SynthOptions {
            search: SearchOptions {
                // An exact point re-proves its pinned optimum: seeding the
                // incumbent makes the node count independent of timing.
                incumbent_len: self.max_nodes.is_none().then_some(self.pinned_len),
                max_nodes: self.max_nodes,
                ..SearchOptions::default()
            },
            ..SynthOptions::default()
        }
    }

    fn key(&self) -> String {
        let p = &self.problem;
        format!("n{}-d{}-at{}-ar{}", p.n, p.d, p.alpha_t, p.alpha_r)
    }
}

/// The measured points, each a few milliseconds of work so that a run
/// repeats every point hundreds of times: a small exact re-proof, a
/// budgeted search with polish, and an exact re-proof at n = 10 whose
/// Requirement 3 checks and Figure 2 construction are the largest.
pub fn points(smoke: bool) -> Vec<DesignPoint> {
    if smoke {
        vec![
            DesignPoint::exact(6, 2, 1, 3, 12),
            DesignPoint::budgeted(8, 1, 1, 2, 300, 32),
            DesignPoint::exact(5, 1, 1, 2, 10),
        ]
    } else {
        vec![
            DesignPoint::exact(6, 2, 1, 3, 12),
            DesignPoint::budgeted(8, 1, 1, 2, 3_000, 32),
            DesignPoint::exact(10, 1, 1, 3, 30),
        ]
    }
}

/// What one op produced, for its checks and the per-layer counts.
struct OpOut {
    len: usize,
    exact: bool,
    nodes: u64,
    pruned: u64,
    branches: usize,
    branches_total: usize,
    fingerprint: u64,
    figure2_transparent: bool,
    analysis_ok: bool,
}

/// `n · C(n−1, D)`: the (x, D-set) configurations Requirement 3 checks.
fn req3_configs(n: usize, d: usize) -> f64 {
    let m = n - 1;
    (0..d).fold(n as f64, |acc, i| acc * (m - i) as f64 / (i + 1) as f64)
}

pub struct Design {
    seed: u64,
    points: Vec<DesignPoint>,
    pool: rayon::ThreadPool,
    catalog_dir: PathBuf,
    round: u64,
    next_op: u64,
    /// Per point: the whole call's (nodes, fingerprint), first seen.
    reference: Vec<Option<(u64, u64)>>,
    decompose: bool,
    nondeterministic: Vec<String>,
    traced_ops: Vec<(u64, usize, OpOut)>,
    /// Catalog entries whose stored length differs from the pinned one.
    pub catalog_notes: Vec<String>,
}

impl Design {
    pub fn new(seed: u64, smoke: bool) -> Result<Design, String> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(host::nproc())
            .build()
            .map_err(|e| e.to_string())?;
        let points = points(smoke);
        Ok(Design {
            seed,
            reference: vec![None; points.len()],
            points,
            pool,
            catalog_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../results/catalog")),
            round: 0,
            next_op: 0,
            decompose: true,
            nondeterministic: Vec::new(),
            traced_ops: Vec::new(),
            catalog_notes: Vec::new(),
        })
    }

    /// `synthesize` split into its public stages, each in its own span;
    /// mirrors `minimum_cover` + polish exactly.
    fn synthesize_decomposed(
        &self,
        tracer: &Tracer,
        parent: Option<u32>,
        op: u64,
        pt: &DesignPoint,
    ) -> (Schedule, u64, BranchTotals) {
        let p = &pt.problem;
        let o = pt.options();
        let space = tracer.span("synth.demands.space", parent, op, |_| {
            DemandSpace::new(p.n, p.d)
        });
        let cands = tracer.span("synth.demands.candidates", parent, op, |_| {
            CandidateSpace::new(&space, p.alpha_t, p.alpha_r)
        });
        let plan = tracer.span("synth.search.plan_root", parent, op, |_| {
            plan_root(&space, &cands, &o.search)
        });
        let shared_len = AtomicUsize::new(plan.seed_len);
        let results: Vec<BranchResult> = tracer.span("synth.search.branches", parent, op, |bp| {
            (0..plan.branch_cands.len())
                .collect::<Vec<_>>()
                .into_par_iter()
                .with_min_len(1)
                .map(|i| {
                    tracer.span("synth.search.branch", bp, op, |_| {
                        search_root_branch(&space, &cands, &o.search, &plan, i, &shared_len)
                    })
                })
                .collect()
        });
        let mut best = plan.greedy.clone();
        let mut t = BranchTotals {
            branches: plan.branch_cands.len(),
            branches_total: plan.root_branches_total,
            exact: true,
            ..BranchTotals::default()
        };
        for r in results {
            t.nodes += r.nodes;
            t.pruned += r.pruned;
            t.exact &= !r.exhausted;
            if let Some(sol) = r.best.filter(|s| s.better_than(&best)) {
                best = sol;
            }
        }
        if !t.exact && o.polish_iters > 0 {
            let polished = tracer.span("synth.polish", parent, op, |_| {
                polish(&space, &cands, &best, o.seed, o.polish_iters)
            });
            if polished.slots.len() < best.slots.len() {
                best = polished;
            }
        }
        let schedule = cands.schedule(p.n, &best.slots);
        let fingerprint = schedule.canonical_fingerprint();
        (schedule, fingerprint, t)
    }

    fn run_op(
        &self,
        tracer: &Tracer,
        op: u64,
        pt: &DesignPoint,
        decompose: bool,
    ) -> Result<OpOut, String> {
        let p = pt.problem;
        self.pool.install(|| {
            tracer.span("op", None, op, |parent| {
                let (schedule, fingerprint, t) = if decompose {
                    self.synthesize_decomposed(tracer, parent, op, pt)
                } else {
                    let out = tracer.span("synth.synthesize", parent, op, |_| {
                        synthesize(&p, &pt.options())
                    });
                    let t = BranchTotals {
                        nodes: out.stats.nodes,
                        pruned: out.stats.pruned,
                        exact: out.stats.exact,
                        branches: out.stats.root_branches,
                        branches_total: out.stats.root_branches_total,
                    };
                    (out.schedule, out.fingerprint, t)
                };
                let entry = CatalogEntry {
                    problem: p,
                    schedule,
                    exact: t.exact,
                    nodes: t.nodes,
                    source: "synth".into(),
                    config: Some(pt.options().search.config_string()),
                    fingerprint,
                };
                let len = entry.schedule.frame_length();
                // A fresh cache: a memo hit would skip the oracles.
                tracer.span("synth.catalog.validate", parent, op, |_| {
                    catalog::validate_entry(&entry, &mut VerifyCache::new())
                })?;
                let ns = tracer.span("construct.substrate", parent, op, |_| {
                    tsma::build(p.n, p.d, SourceKind::Polynomial)
                })?;
                let c = tracer.span("construct.figure2", parent, op, |_| {
                    construct(
                        &ns.schedule,
                        p.d,
                        p.alpha_t,
                        p.alpha_r,
                        PartitionStrategy::RoundRobin,
                    )
                });
                let s = &c.schedule;
                let violation = tracer.span("requirements.req3", parent, op, |_| {
                    requirement3_violation(s, p.d)
                });
                let avg = tracer.span("throughput.avg", parent, op, |_| average_throughput(s, p.d));
                let min = tracer.span("throughput.min", parent, op, |_| min_throughput(s, p.d));
                let worst = tracer.span("latency.worst", parent, op, |_| {
                    worst_case_access_delay(s, p.d)
                });
                let mean =
                    tracer.span("latency.mean", parent, op, |_| average_access_delay(s, p.d));
                Ok(OpOut {
                    len,
                    exact: t.exact,
                    nodes: t.nodes,
                    pruned: t.pruned,
                    branches: t.branches,
                    branches_total: t.branches_total,
                    fingerprint,
                    figure2_transparent: violation.is_none(),
                    analysis_ok: [Some(avg), Some(min), worst.map(|w| w as f64), mean]
                        .iter()
                        .all(|v| v.is_some_and(|v| v > 0.0 && v.is_finite())),
                })
            })
        })
    }

    /// The op's output checks.
    fn check(pt: &DesignPoint, o: &OpOut) -> Result<(), String> {
        if o.len != pt.pinned_len || o.exact != pt.max_nodes.is_none() {
            return Err(format!(
                "winner L={} exact={}, pinned L={} exact={}",
                o.len,
                o.exact,
                pt.pinned_len,
                pt.max_nodes.is_none()
            ));
        }
        if !o.figure2_transparent {
            return Err("Figure 2 schedule fails Requirement 3".into());
        }
        if !o.analysis_ok {
            return Err("Figure 2 throughput or access delay is not positive and finite".into());
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct BranchTotals {
    nodes: u64,
    pruned: u64,
    exact: bool,
    branches: usize,
    branches_total: usize,
}

impl Bench for Design {
    fn setup(&mut self, tracer: &Tracer, rep: u64) -> Result<(), String> {
        // The catalog gate `ttdc synth status` runs: load every entry and
        // re-validate it with the naive oracles.
        let entries = tracer.span("synth.catalog.load", None, rep, |_| {
            catalog::load_all(&self.catalog_dir)
        });
        if entries.is_empty() {
            return Err(format!(
                "no catalog entries in {}",
                self.catalog_dir.display()
            ));
        }
        let mut notes = Vec::new();
        for (path, entry) in entries {
            let e = entry.map_err(|err| format!("{}: {err}", path.display()))?;
            tracer
                .span("synth.catalog.validate", None, rep, |_| {
                    catalog::validate_entry(&e, &mut VerifyCache::new())
                })
                .map_err(|err| format!("{}: {err}", path.display()))?;
            let p = &e.problem;
            if let Some(pt) = self.points.iter().find(|pt| pt.problem == *p) {
                let stored = (e.schedule.frame_length(), e.exact);
                if stored != (pt.pinned_len, pt.max_nodes.is_none()) {
                    notes.push(format!(
                        "{}: catalog L={} exact={}, search gives L={} exact={}",
                        pt.key(),
                        stored.0,
                        stored.1,
                        pt.pinned_len,
                        pt.max_nodes.is_none()
                    ));
                }
            }
        }
        self.catalog_notes = notes;
        Ok(())
    }

    fn window(&mut self, tracer: &Tracer, seconds: f64) -> Window {
        let start = Instant::now();
        let cpu0 = host::cpu_seconds();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut w = Window::default();
        // Whole rounds: every point once per round, in a seed-drawn order,
        // so each run measures the same op mix.
        loop {
            let mut order: Vec<usize> = (0..self.points.len()).collect();
            let r = mix(self.seed, 3, self.round);
            for i in (1..order.len()).rev() {
                order.swap(i, (mix(r, 4, i as u64) % (i as u64 + 1)) as usize);
            }
            self.round += 1;
            for i in order {
                let pt = self.points[i];
                let op = self.next_op;
                self.next_op += 1;
                w.attempted += 1;
                let decompose = tracer.enabled() && self.decompose && self.reference[i].is_some();
                let t = Instant::now();
                let out =
                    catch_unwind(AssertUnwindSafe(|| self.run_op(tracer, op, &pt, decompose)))
                        .unwrap_or_else(|_| Err("op panicked".into()));
                let latency = t.elapsed().as_secs_f64();
                let out = out.and_then(|o| Design::check(&pt, &o).map(|()| o));
                match out {
                    Ok(o) => {
                        w.push(i, latency);
                        let seen = (o.nodes, o.fingerprint);
                        match self.reference[i] {
                            None => self.reference[i] = Some(seen),
                            Some(r) if r != seen && decompose => {
                                // Record whole calls alone from here on.
                                eprintln!(
                                    "design: {}: decomposed search gave (nodes, fingerprint) {seen:?}, \
                                     the whole call {r:?}; timing whole calls only",
                                    pt.key()
                                );
                                self.decompose = false;
                            }
                            Some(r) if r != seen => self.nondeterministic.push(format!(
                                "{}: nodes/fingerprint {seen:?} vs {r:?} earlier in this run",
                                pt.key()
                            )),
                            Some(_) => {}
                        }
                        if tracer.enabled() {
                            self.traced_ops.push((op, i, o));
                        }
                    }
                    Err(e) => {
                        w.failed += 1;
                        eprintln!("design: op {op} ({}) failed: {e}", pt.key());
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
        match self.nondeterministic.first() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn layers(
        &mut self,
        _tracer: &Tracer,
        _setup: &[Span],
        _reps: usize,
        spans: &[Span],
    ) -> Vec<Metric> {
        let ops = &self.traced_ops;
        let k = ops.len().max(1) as f64;
        // Per point: (demands, candidates, greedy_cover seconds), on a
        // standalone instance outside any op, since `plan_root` runs the
        // greedy cover inside the op without a public boundary of its own.
        let standalone: Vec<(f64, f64, f64)> = self
            .points
            .iter()
            .map(|pt| {
                let p = &pt.problem;
                let space = DemandSpace::new(p.n, p.d);
                let cands = CandidateSpace::new(&space, p.alpha_t, p.alpha_r);
                let t = Instant::now();
                greedy_cover(&space, &cands);
                let greedy_s = t.elapsed().as_secs_f64();
                (space.len() as f64, cands.cands.len() as f64, greedy_s)
            })
            .collect();
        let total = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_s)
                .sum()
        };
        let per_op = |name: &str| total(name) / k;
        let branch_max: f64 = ops
            .iter()
            .map(|(op, _, _)| {
                spans
                    .iter()
                    .filter(|s| s.op == *op && s.name == "synth.search.branch")
                    .map(Span::dur_s)
                    .fold(0.0, f64::max)
            })
            .sum();
        let sum = |f: &dyn Fn(usize, &OpOut) -> f64| -> f64 {
            ops.iter().map(|(_, i, o)| f(*i, o)).sum()
        };
        let nodes = sum(&|_, o| o.nodes as f64);
        let pruned = sum(&|_, o| o.pruned as f64);
        let configs = sum(&|i, _| {
            let p = &self.points[i].problem;
            req3_configs(p.n, p.d)
        });
        let branch_sum = total("synth.search.branch");
        let req3 = total("requirements.req3");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            Metric::secs("construct.substrate_s", per_op("construct.substrate")),
            Metric::secs("construct.figure2_s", per_op("construct.figure2")),
            Metric::secs(
                "synth.demands.build_s",
                per_op("synth.demands.space") + per_op("synth.demands.candidates"),
            ),
            Metric::count("synth.demands.demands", sum(&|i, _| standalone[i].0) / k),
            Metric::count("synth.demands.candidates", sum(&|i, _| standalone[i].1) / k),
            Metric::secs("synth.search.greedy_s", sum(&|i, _| standalone[i].2) / k),
            Metric::secs("synth.search.plan_root_s", per_op("synth.search.plan_root")),
            Metric::secs("synth.search.branch_s_sum", branch_sum / k),
            Metric::secs("synth.search.branch_s_max", branch_max / k),
            Metric::count("synth.search.branches", sum(&|_, o| o.branches as f64) / k),
            Metric::count(
                "synth.search.branches_total",
                sum(&|_, o| o.branches_total as f64) / k,
            ),
            Metric::count("synth.search.nodes", nodes / k),
            Metric::count("synth.search.pruned", pruned / k),
            Metric::new("synth.search.prune_rate", ratio(pruned, nodes), "ratio"),
            Metric::new("synth.search.nodes_per_s", ratio(nodes, branch_sum), "1/s"),
            Metric::secs("synth.polish_s", per_op("synth.polish")),
            Metric::secs("synth.catalog.validate_s", per_op("synth.catalog.validate")),
            Metric::secs("requirements.req3_s", per_op("requirements.req3")),
            Metric::count("requirements.configs", configs / k),
            Metric::new("requirements.configs_per_s", ratio(configs, req3), "1/s"),
            Metric::secs("throughput.avg_s", per_op("throughput.avg")),
            Metric::secs("throughput.min_s", per_op("throughput.min")),
            Metric::secs("latency.worst_s", per_op("latency.worst")),
            Metric::secs("latency.mean_s", per_op("latency.mean")),
        ]
    }

    fn digests(&self) -> BTreeMap<String, u64> {
        self.points
            .iter()
            .zip(&self.reference)
            .filter_map(|(pt, r)| {
                let (nodes, fp) = (*r)?;
                Some((pt.key(), nodes.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fp))
            })
            .collect()
    }

    fn threads(&self) -> usize {
        self.pool.current_num_threads()
    }

    fn tail_target(&self) -> f64 {
        80.0
    }

    fn notes(&self) -> Vec<String> {
        let mut v = self.catalog_notes.clone();
        if !self.decompose {
            v.push("synth decomposition disagreed with the whole call; whole calls timed".into());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn req3_configs_counts_x_and_d_sets() {
        assert_eq!(super::req3_configs(6, 1), 30.0);
        assert_eq!(super::req3_configs(6, 2), 60.0);
    }
}
