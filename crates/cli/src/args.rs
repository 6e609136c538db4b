//! Hand-rolled argument parsing (no CLI-framework dependency).

use crate::error::CliError;
use ttdc_core::construct::PartitionStrategy;
use ttdc_core::synth::SynthProblem;
use ttdc_core::tsma::SourceKind;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
ttdc — topology-transparent duty cycling for wireless sensor networks

USAGE:
  ttdc build    --nodes N --degree D --alpha-t A --alpha-r B
                [--source polynomial|steiner|identity]
                [--strategy contiguous|roundrobin|randomized]
                [--catalog DIR] [--output FILE]
  ttdc synth run    --nodes N --degree D --alpha-t A --alpha-r B
                    [--catalog DIR] [--max-nodes K] [--polish I]
                    [--threads T]
  ttdc synth campaign --nodes N --degree D --alpha-t A --alpha-r B
                      [--catalog DIR] [--budget K] [--polish I] DIR
  ttdc synth status [--catalog DIR] [--json FILE]
  ttdc verify   --degree D FILE
  ttdc analyze  --degree D [--alpha-t A --alpha-r B] FILE
  ttdc simulate --degree D --topology ring|line|star|grid=WxH|geometric=SEED
                [--slots N] [--rate R] [--seed S]
                [--per P] [--burst PGB,PBG] [--crash-rate C[,R]]
                [--drift RATE] [--max-retries N]
                [--trace-out FILE] [--trace-perfetto FILE] FILE
  ttdc campaign run    --grid NAME [--reps N] [--seed S] [--shard-size K] DIR
  ttdc campaign resume DIR
  ttdc campaign status DIR
  ttdc help

FAULT INJECTION (simulate):
  --per P            uniform per-link packet error rate in [0, 1]
  --burst PGB,PBG    Gilbert-Elliott bursty channel: P(good->bad), P(bad->good)
  --crash-rate C[,R] per-slot crash probability C, recovery probability R
                     (default R = 0.1); a crashed node loses its queue
  --drift RATE       max per-slot clock skew, in slots/slot (e.g. 0.001)
  --max-retries N    drop a packet after N failed retransmissions of a hop
  --trace-out FILE   write the per-slot event trace as JSON Lines to FILE
  --trace-perfetto FILE
                     write the event trace as Perfetto/Chrome trace-event
                     JSON (one track per node; open in ui.perfetto.dev)

SCHEDULE SYNTHESIS (synth):
  `ttdc synth run` searches for a minimum-length (α_T, α_R)-schedule by
  branch-and-bound and records the winner in the best-known-schedule
  catalog (default DIR: results/catalog). Re-running the same point
  resumes from the catalog: the stored frame length seeds the incumbent,
  so only strictly better schedules are ever written. --max-nodes K
  bounds the search to K nodes per root branch (a result that hits it is
  marked inexact and polished with I local-search iterations); --threads T fixes the worker count (the
  winning schedule is bit-identical at any thread count). `ttdc build`
  consults the same catalog before falling back to the Figure 2
  construction, and reports the chosen source on stderr.

  `ttdc synth campaign` runs one point as a long, kill-resilient search:
  `synth run` with a node budget per root branch (--budget K, default
  2000000) whose branches run on the thread pool and are checkpointed
  to DIR/manifest.jsonl as each one finishes, so a killed campaign re-run
  with the same arguments resumes where it died and the final schedule
  is identical to an uninterrupted run (and to `synth run --max-nodes
  K`'s). The winner is polished (--polish I iterations when inexact) and
  recorded in the catalog with source=campaign.

  `ttdc synth status --json FILE` writes a machine-readable catalog
  report alongside the human table.

CAMPAIGNS:
  A campaign runs a named Monte-Carlo grid (smoke, e10, e12, e12-large,
  e12c, e17) sharded over the thread pool, checkpointing every
  completed shard to DIR/manifest.jsonl. `resume` replays the completed
  shards of a killed campaign and executes only the missing ones; the
  merged output is byte-identical to an uninterrupted run. `status`
  reports progress.

EXIT CODES:
  0 success        1 runtime error    2 usage error      3 invalid value
  4 I/O error      5 bad schedule     6 verify failed    7 campaign error

FILE is a schedule in the `ttdc-schedule v1` text format (see `ttdc build`).";

/// Where `ttdc build` and `ttdc synth` look for the best-known-schedule
/// catalog when `--catalog` is not given.
pub const DEFAULT_CATALOG_DIR: &str = "results/catalog";

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Build a schedule and print/export it.
    Build {
        /// Max nodes `n`.
        nodes: usize,
        /// Max degree `D`.
        degree: usize,
        /// Transmitter budget `α_T`.
        alpha_t: usize,
        /// Receiver budget `α_R`.
        alpha_r: usize,
        /// Non-sleeping substrate.
        source: SourceKind,
        /// Figure-2 division strategy.
        strategy: PartitionStrategy,
        /// Best-known-schedule catalog to consult (`None` = the default
        /// `results/catalog`, consulted only when it exists).
        catalog: Option<String>,
        /// Output path (stdout if `None`).
        output: Option<String>,
    },
    /// Search for minimum-length schedules and maintain the catalog.
    Synth(SynthAction),
    /// Verify a schedule file's topology transparency.
    Verify {
        /// Degree bound to verify against.
        degree: usize,
        /// Schedule file.
        file: String,
    },
    /// Print the analytic report for a schedule file.
    Analyze {
        /// Degree bound.
        degree: usize,
        /// Budgets for the optimality ratio (optional).
        alphas: Option<(usize, usize)>,
        /// Schedule file.
        file: String,
    },
    /// Run the schedule through the simulator.
    Simulate {
        /// Degree bound (for reporting only).
        degree: usize,
        /// Topology spec.
        topology: TopologySpec,
        /// Slots to simulate.
        slots: u64,
        /// Per-node per-slot packet probability.
        rate: f64,
        /// RNG seed.
        seed: u64,
        /// Uniform per-link packet error rate.
        per: f64,
        /// Gilbert–Elliott burst channel `(p_good_to_bad, p_bad_to_good)`.
        burst: Option<(f64, f64)>,
        /// Transient crash model `(crash_probability, recovery_probability)`.
        crash: Option<(f64, f64)>,
        /// Max per-slot clock skew in slots/slot.
        drift: f64,
        /// ARQ retry bound (`None` = retry forever).
        max_retries: Option<u32>,
        /// Write the event trace as JSON Lines to this path.
        trace_out: Option<String>,
        /// Write the event trace as Perfetto trace-event JSON to this path.
        trace_perfetto: Option<String>,
        /// Schedule file.
        file: String,
    },
    /// Run, resume, or inspect a checkpointed Monte-Carlo campaign.
    Campaign(CampaignAction),
    /// Print usage.
    Help,
}

/// The `ttdc synth` subcommands.
#[derive(Clone, Debug, PartialEq)]
pub enum SynthAction {
    /// Run (or resume, via the catalog incumbent) one parameter point.
    /// `synth campaign` parses to this with a checkpoint directory.
    Run {
        /// Max nodes `n`.
        nodes: usize,
        /// Max degree `D`.
        degree: usize,
        /// Transmitter budget `α_T`.
        alpha_t: usize,
        /// Receiver budget `α_R`.
        alpha_r: usize,
        /// Catalog directory (default `results/catalog`).
        catalog: String,
        /// Per-root-branch search-node budget: `--max-nodes` (`None` = run
        /// to proven optimality) or a campaign's `--budget` (`None` = the
        /// campaign default).
        max_nodes: Option<u64>,
        /// Local-search iterations polishing an inexact result.
        polish: Option<u64>,
        /// Worker-thread count (`None` = the rayon default).
        threads: Option<usize>,
        /// A campaign's checkpoint directory (holds `manifest.jsonl`).
        checkpoint: Option<String>,
    },
    /// Report every catalog entry without searching.
    Status {
        /// Catalog directory (default `results/catalog`).
        catalog: String,
        /// Also write a machine-readable JSON report to this path.
        json: Option<String>,
    },
}

/// The `ttdc campaign` subcommands.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignAction {
    /// Start a fresh campaign in a directory.
    Run {
        /// Named grid (see `ttdc_experiments::grid_names`).
        grid: String,
        /// Checkpoint directory (must not already hold a manifest).
        dir: String,
        /// Override the grid's replications per point.
        reps: Option<u64>,
        /// Override the grid's base seed.
        seed: Option<u64>,
        /// Override the grid's checkpoint granularity.
        shard_size: Option<u64>,
    },
    /// Resume a killed or interrupted campaign from its manifest.
    Resume {
        /// The campaign directory.
        dir: String,
    },
    /// Report a campaign directory's progress without executing anything.
    Status {
        /// The campaign directory.
        dir: String,
    },
}

/// Topology selection for `ttdc simulate`.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// A cycle.
    Ring,
    /// A path.
    Line,
    /// A hub-and-spoke.
    Star,
    /// A `w × h` grid.
    Grid(usize, usize),
    /// A seeded random geometric deployment.
    Geometric(u64),
}

fn parse_topology(s: &str) -> Result<TopologySpec, String> {
    match s {
        "ring" => Ok(TopologySpec::Ring),
        "line" => Ok(TopologySpec::Line),
        "star" => Ok(TopologySpec::Star),
        other => {
            if let Some(dims) = other.strip_prefix("grid=") {
                let (w, h) = dims
                    .split_once('x')
                    .ok_or_else(|| format!("grid wants WxH, got {dims:?}"))?;
                Ok(TopologySpec::Grid(
                    w.parse().map_err(|_| format!("bad grid width {w:?}"))?,
                    h.parse().map_err(|_| format!("bad grid height {h:?}"))?,
                ))
            } else if let Some(seed) = other.strip_prefix("geometric=") {
                Ok(TopologySpec::Geometric(
                    seed.parse().map_err(|_| format!("bad seed {seed:?}"))?,
                ))
            } else {
                Err(format!("unknown topology {other:?}"))
            }
        }
    }
}

/// Parses `"a,b"` (or `"a"` when `second_default` is given) into a pair of
/// floats, for `--burst` and `--crash-rate`.
fn parse_pair(s: &str, flag: &str, second_default: Option<f64>) -> Result<(f64, f64), String> {
    let bad = |what: &str| format!("bad value {what:?} for --{flag}");
    match (s.split_once(','), second_default) {
        (Some((a, b)), _) => Ok((
            a.parse().map_err(|_| bad(a))?,
            b.parse().map_err(|_| bad(b))?,
        )),
        (None, Some(d)) => Ok((s.parse().map_err(|_| bad(s))?, d)),
        (None, None) => Err(format!("--{flag} wants A,B; got {s:?}")),
    }
}

struct Opts {
    flags: std::collections::BTreeMap<String, String>,
    positional: Vec<String>,
}

fn collect<I: Iterator<Item = String>>(mut it: I) -> Result<Opts, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut positional = Vec::new();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            if flags.insert(name.to_string(), value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        } else {
            positional.push(a);
        }
    }
    Ok(Opts { flags, positional })
}

impl Opts {
    fn req<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.flags
            .get(name)
            .ok_or_else(|| format!("missing --{name}"))?
            .parse()
            .map_err(|_| format!("bad value for --{name}"))
    }

    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for --{name}")))
            .transpose()
    }

    fn file(&self) -> Result<String, String> {
        match self.positional.as_slice() {
            [f] => Ok(f.clone()),
            [] => Err("missing schedule FILE".into()),
            more => Err(format!("unexpected arguments: {more:?}")),
        }
    }

    fn dir(&self) -> Result<String, String> {
        match self.positional.as_slice() {
            [d] => Ok(d.clone()),
            [] => Err("missing campaign DIR".into()),
            more => Err(format!("unexpected arguments: {more:?}")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown flag --{k}"));
            }
        }
        Ok(())
    }
}

/// Parses `argv` (without the program name) into a [`Command`].
///
/// Malformed command lines map to [`CliError::Usage`] (exit 2); command
/// lines that parse but carry an out-of-domain value (NaN or
/// out-of-range probabilities, zero replications) map to
/// [`CliError::InvalidValue`] (exit 3).
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Command, CliError> {
    let cmd = parse_shape(argv).map_err(CliError::Usage)?;
    validate(&cmd)?;
    Ok(cmd)
}

/// A probability flag must be a real number in `[0, 1]`.
fn probability(value: f64, flag: &str, what: &str) -> Result<(), CliError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(CliError::InvalidValue(format!(
            "--{flag}: {what} must be a probability in [0, 1], got {value}"
        )))
    }
}

/// The parameter point `build`, `synth` and `analyze --alpha-t/--alpha-r`
/// need: the domain of [`SynthProblem::try_new`], which the Figure 2
/// construction and the Theorem 4 bound share.
pub(crate) fn point(n: usize, d: usize, alpha_t: usize, alpha_r: usize) -> Result<(), CliError> {
    SynthProblem::try_new(n, d, alpha_t, alpha_r)
        .map(drop)
        .map_err(|e| CliError::InvalidValue(format!("parameter point: {e}")))
}

/// Domain checks on values that already parsed as the right type.
fn validate(cmd: &Command) -> Result<(), CliError> {
    match cmd {
        Command::Simulate {
            rate,
            per,
            burst,
            crash,
            drift,
            ..
        } => {
            probability(*per, "per", "per-link error rate")?;
            probability(*rate, "rate", "per-node per-slot packet rate")?;
            if !drift.is_finite() || !(0.0..1.0).contains(drift) {
                return Err(CliError::InvalidValue(format!(
                    "--drift: per-slot clock skew must be in [0, 1), got {drift}"
                )));
            }
            if let Some((p_gb, p_bg)) = burst {
                probability(*p_gb, "burst", "P(good->bad)")?;
                probability(*p_bg, "burst", "P(bad->good)")?;
            }
            if let Some((crash_p, recover_p)) = crash {
                probability(*crash_p, "crash-rate", "crash probability")?;
                probability(*recover_p, "crash-rate", "recovery probability")?;
            }
            Ok(())
        }
        Command::Build {
            nodes,
            degree,
            alpha_t,
            alpha_r,
            ..
        } => point(*nodes, *degree, *alpha_t, *alpha_r),
        Command::Synth(SynthAction::Run {
            nodes,
            degree,
            alpha_t,
            alpha_r,
            max_nodes,
            threads,
            checkpoint,
            ..
        }) => {
            point(*nodes, *degree, *alpha_t, *alpha_r)?;
            if *max_nodes == Some(0) {
                let flag = if checkpoint.is_some() {
                    "--budget"
                } else {
                    "--max-nodes"
                };
                return Err(CliError::InvalidValue(format!(
                    "{flag}: each root branch needs at least one search node"
                )));
            }
            if *threads == Some(0) {
                return Err(CliError::InvalidValue(
                    "--threads: need at least one worker".into(),
                ));
            }
            Ok(())
        }
        Command::Campaign(CampaignAction::Run {
            reps, shard_size, ..
        }) => {
            if *reps == Some(0) {
                return Err(CliError::InvalidValue(
                    "--reps: a campaign needs at least one replication per point".into(),
                ));
            }
            if *shard_size == Some(0) {
                return Err(CliError::InvalidValue(
                    "--shard-size: shards must hold at least one replication".into(),
                ));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn parse_shape<I: IntoIterator<Item = String>>(argv: I) -> Result<Command, String> {
    let mut it = argv.into_iter();
    let sub = it.next().ok_or("missing subcommand")?;
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "build" => {
            let o = collect(it)?;
            o.known(&[
                "nodes", "degree", "alpha-t", "alpha-r", "source", "strategy", "catalog", "output",
            ])?;
            if !o.positional.is_empty() {
                return Err(format!("unexpected arguments: {:?}", o.positional));
            }
            let source = match o.flags.get("source").map(String::as_str) {
                None | Some("polynomial") => SourceKind::Polynomial,
                Some("steiner") => SourceKind::Steiner,
                Some("identity") => SourceKind::Identity,
                Some(x) => return Err(format!("unknown source {x:?}")),
            };
            let strategy = match o.flags.get("strategy").map(String::as_str) {
                None | Some("roundrobin") => PartitionStrategy::RoundRobin,
                Some("contiguous") => PartitionStrategy::Contiguous,
                Some("randomized") => PartitionStrategy::Randomized { seed: 0x5EED },
                Some(x) => return Err(format!("unknown strategy {x:?}")),
            };
            Ok(Command::Build {
                nodes: o.req("nodes")?,
                degree: o.req("degree")?,
                alpha_t: o.req("alpha-t")?,
                alpha_r: o.req("alpha-r")?,
                source,
                strategy,
                catalog: o.opt("catalog")?,
                output: o.opt("output")?,
            })
        }
        "synth" => {
            let action = it.next().ok_or("synth needs an action: run or status")?;
            match action.as_str() {
                "run" | "campaign" => {
                    let campaign = action == "campaign";
                    let budget = if campaign { "budget" } else { "max-nodes" };
                    let o = collect(it)?;
                    let mut known = vec![
                        "nodes", "degree", "alpha-t", "alpha-r", "catalog", budget, "polish",
                    ];
                    if !campaign {
                        known.push("threads");
                    }
                    o.known(&known)?;
                    let checkpoint = if campaign {
                        Some(o.dir()?)
                    } else if !o.positional.is_empty() {
                        return Err(format!("unexpected arguments: {:?}", o.positional));
                    } else {
                        None
                    };
                    Ok(Command::Synth(SynthAction::Run {
                        nodes: o.req("nodes")?,
                        degree: o.req("degree")?,
                        alpha_t: o.req("alpha-t")?,
                        alpha_r: o.req("alpha-r")?,
                        catalog: o
                            .opt("catalog")?
                            .unwrap_or_else(|| DEFAULT_CATALOG_DIR.to_string()),
                        max_nodes: o.opt(budget)?,
                        polish: o.opt("polish")?,
                        threads: o.opt("threads")?,
                        checkpoint,
                    }))
                }
                "status" => {
                    let o = collect(it)?;
                    o.known(&["catalog", "json"])?;
                    if !o.positional.is_empty() {
                        return Err(format!("unexpected arguments: {:?}", o.positional));
                    }
                    Ok(Command::Synth(SynthAction::Status {
                        catalog: o
                            .opt("catalog")?
                            .unwrap_or_else(|| DEFAULT_CATALOG_DIR.to_string()),
                        json: o.opt("json")?,
                    }))
                }
                other => Err(format!("unknown synth action {other:?}")),
            }
        }
        "verify" => {
            let o = collect(it)?;
            o.known(&["degree"])?;
            Ok(Command::Verify {
                degree: o.req("degree")?,
                file: o.file()?,
            })
        }
        "analyze" => {
            let o = collect(it)?;
            o.known(&["degree", "alpha-t", "alpha-r"])?;
            let at: Option<usize> = o.opt("alpha-t")?;
            let ar: Option<usize> = o.opt("alpha-r")?;
            let alphas = match (at, ar) {
                (Some(a), Some(b)) => Some((a, b)),
                (None, None) => None,
                _ => return Err("--alpha-t and --alpha-r must be given together".into()),
            };
            Ok(Command::Analyze {
                degree: o.req("degree")?,
                alphas,
                file: o.file()?,
            })
        }
        "simulate" => {
            let o = collect(it)?;
            o.known(&[
                "degree",
                "topology",
                "slots",
                "rate",
                "seed",
                "per",
                "burst",
                "crash-rate",
                "drift",
                "max-retries",
                "trace-out",
                "trace-perfetto",
            ])?;
            let burst = o
                .flags
                .get("burst")
                .map(|v| parse_pair(v, "burst", None))
                .transpose()?;
            let crash = o
                .flags
                .get("crash-rate")
                .map(|v| parse_pair(v, "crash-rate", Some(0.1)))
                .transpose()?;
            Ok(Command::Simulate {
                degree: o.req("degree")?,
                topology: parse_topology(o.flags.get("topology").ok_or("missing --topology")?)?,
                slots: o.opt("slots")?.unwrap_or(20_000),
                rate: o.opt("rate")?.unwrap_or(0.002),
                seed: o.opt("seed")?.unwrap_or(0),
                per: o.opt("per")?.unwrap_or(0.0),
                burst,
                crash,
                drift: o.opt("drift")?.unwrap_or(0.0),
                max_retries: o.opt("max-retries")?,
                trace_out: o.opt("trace-out")?,
                trace_perfetto: o.opt("trace-perfetto")?,
                file: o.file()?,
            })
        }
        "campaign" => {
            let action = it
                .next()
                .ok_or("campaign needs an action: run, resume, or status")?;
            match action.as_str() {
                "run" => {
                    let o = collect(it)?;
                    o.known(&["grid", "reps", "seed", "shard-size"])?;
                    Ok(Command::Campaign(CampaignAction::Run {
                        grid: o.flags.get("grid").ok_or("missing --grid")?.clone(),
                        reps: o.opt("reps")?,
                        seed: o.opt("seed")?,
                        shard_size: o.opt("shard-size")?,
                        dir: o.dir()?,
                    }))
                }
                "resume" => {
                    let o = collect(it)?;
                    o.known(&[])?;
                    Ok(Command::Campaign(CampaignAction::Resume { dir: o.dir()? }))
                }
                "status" => {
                    let o = collect(it)?;
                    o.known(&[])?;
                    Ok(Command::Campaign(CampaignAction::Status { dir: o.dir()? }))
                }
                other => Err(format!("unknown campaign action {other:?}")),
            }
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_names_every_campaign_grid() {
        let campaigns = &USAGE[USAGE.find("CAMPAIGNS:").unwrap()..];
        let listed = &campaigns[campaigns.find('(').unwrap() + 1..campaigns.find(')').unwrap()];
        let names = listed.split(|c: char| c == ',' || c.is_whitespace());
        for grid in ttdc_experiments::grid_names() {
            assert!(
                names.clone().any(|w| w == grid),
                "USAGE's campaign grid list omits {grid:?}: {listed}"
            );
        }
    }

    #[test]
    fn build_full_flags() {
        let c = parse(sv(&[
            "build",
            "--nodes",
            "30",
            "--degree",
            "3",
            "--alpha-t",
            "2",
            "--alpha-r",
            "4",
            "--source",
            "steiner",
            "--strategy",
            "contiguous",
            "--output",
            "x.sched",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Build {
                nodes: 30,
                degree: 3,
                alpha_t: 2,
                alpha_r: 4,
                source: SourceKind::Steiner,
                strategy: PartitionStrategy::Contiguous,
                catalog: None,
                output: Some("x.sched".into()),
            }
        );
    }

    #[test]
    fn build_defaults() {
        let c = parse(sv(&[
            "build",
            "--nodes",
            "10",
            "--degree",
            "2",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
        ]))
        .unwrap();
        match c {
            Command::Build {
                source,
                strategy,
                catalog,
                output,
                ..
            } => {
                assert_eq!(source, SourceKind::Polynomial);
                assert_eq!(strategy, PartitionStrategy::RoundRobin);
                assert_eq!(catalog, None);
                assert_eq!(output, None);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn synth_subcommands_parse() {
        assert_eq!(
            parse(sv(&[
                "synth",
                "run",
                "--nodes",
                "6",
                "--degree",
                "2",
                "--alpha-t",
                "1",
                "--alpha-r",
                "2",
                "--catalog",
                "cat",
                "--max-nodes",
                "5000",
                "--polish",
                "50",
                "--threads",
                "4",
            ]))
            .unwrap(),
            Command::Synth(SynthAction::Run {
                nodes: 6,
                degree: 2,
                alpha_t: 1,
                alpha_r: 2,
                catalog: "cat".into(),
                max_nodes: Some(5000),
                polish: Some(50),
                threads: Some(4),
                checkpoint: None,
            })
        );
        // Defaults: the shared catalog directory, unbounded exact search.
        match parse(sv(&[
            "synth",
            "run",
            "--nodes",
            "5",
            "--degree",
            "1",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
        ]))
        .unwrap()
        {
            Command::Synth(SynthAction::Run {
                catalog,
                max_nodes,
                polish,
                threads,
                ..
            }) => {
                assert_eq!(catalog, DEFAULT_CATALOG_DIR);
                assert_eq!(max_nodes, None);
                assert_eq!(polish, None);
                assert_eq!(threads, None);
            }
            _ => panic!(),
        }
        assert_eq!(
            parse(sv(&["synth", "status"])).unwrap(),
            Command::Synth(SynthAction::Status {
                catalog: DEFAULT_CATALOG_DIR.into(),
                json: None,
            })
        );
        assert_eq!(
            parse(sv(&["synth", "status", "--json", "report.json"])).unwrap(),
            Command::Synth(SynthAction::Status {
                catalog: DEFAULT_CATALOG_DIR.into(),
                json: Some("report.json".into()),
            })
        );
        assert_eq!(
            parse(sv(&[
                "synth",
                "campaign",
                "--nodes",
                "8",
                "--degree",
                "1",
                "--alpha-t",
                "1",
                "--alpha-r",
                "2",
                "--budget",
                "50000",
                "--polish",
                "100",
                "camp/dir",
            ]))
            .unwrap(),
            Command::Synth(SynthAction::Run {
                nodes: 8,
                degree: 1,
                alpha_t: 1,
                alpha_r: 2,
                catalog: DEFAULT_CATALOG_DIR.into(),
                max_nodes: Some(50000),
                polish: Some(100),
                threads: None,
                checkpoint: Some("camp/dir".into()),
            })
        );
        // Campaign usage/domain errors: missing DIR is usage, bad point or
        // zero budget is an invalid value.
        let e = parse(sv(&[
            "synth",
            "campaign",
            "--nodes",
            "8",
            "--degree",
            "1",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = parse(sv(&[
            "synth",
            "campaign",
            "--nodes",
            "8",
            "--degree",
            "8",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
            "d",
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 3, "{e}");
        let e = parse(sv(&[
            "synth",
            "campaign",
            "--nodes",
            "8",
            "--degree",
            "1",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2",
            "--budget",
            "0",
            "d",
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 3, "{e}");
        // Usage errors.
        for bad in [
            vec!["synth"],
            vec!["synth", "frobnicate"],
            vec!["synth", "run", "--nodes", "5"],
            vec!["synth", "status", "extra"],
        ] {
            let e = parse(sv(&bad)).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{bad:?} -> {e}");
        }
        // Each spelling takes only its own flags: `run` has no DIR and no
        // --budget, `campaign` has no --max-nodes and no --threads.
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
        for extra in [
            vec!["run", "d"],
            vec!["run", "--budget", "5"],
            vec!["campaign", "--max-nodes", "5", "d"],
            vec!["campaign", "--threads", "2", "d"],
        ] {
            let mut argv = vec!["synth", extra[0]];
            argv.extend_from_slice(&point);
            argv.extend_from_slice(&extra[1..]);
            let e = parse(sv(&argv)).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{argv:?} -> {e}");
        }
        // Domain errors.
        let point = |n: &str, d: &str, at: &str, ar: &str| {
            parse(sv(&[
                "synth",
                "run",
                "--nodes",
                n,
                "--degree",
                d,
                "--alpha-t",
                at,
                "--alpha-r",
                ar,
            ]))
        };
        for (n, d, at, ar) in [
            ("5", "5", "1", "1"),
            ("5", "0", "1", "1"),
            ("5", "2", "0", "1"),
            ("5", "1", "3", "3"),
        ] {
            let e = point(n, d, at, ar).unwrap_err();
            assert_eq!(e.exit_code(), 3, "({n},{d},{at},{ar}) -> {e}");
        }
        let e = parse(sv(&[
            "synth",
            "run",
            "--nodes",
            "5",
            "--degree",
            "1",
            "--alpha-t",
            "1",
            "--alpha-r",
            "1",
            "--threads",
            "0",
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 3);
    }

    #[test]
    fn verify_and_analyze() {
        assert_eq!(
            parse(sv(&["verify", "--degree", "3", "f.sched"])).unwrap(),
            Command::Verify {
                degree: 3,
                file: "f.sched".into()
            }
        );
        assert_eq!(
            parse(sv(&["analyze", "--degree", "2", "f"])).unwrap(),
            Command::Analyze {
                degree: 2,
                alphas: None,
                file: "f".into()
            }
        );
        assert!(parse(sv(&["analyze", "--degree", "2", "--alpha-t", "1", "f"])).is_err());
    }

    #[test]
    fn simulate_topologies() {
        let c = parse(sv(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "grid=4x3",
            "--slots",
            "100",
            "--rate",
            "0.1",
            "--seed",
            "7",
            "f",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Simulate {
                degree: 2,
                topology: TopologySpec::Grid(4, 3),
                slots: 100,
                rate: 0.1,
                seed: 7,
                per: 0.0,
                burst: None,
                crash: None,
                drift: 0.0,
                max_retries: None,
                trace_out: None,
                trace_perfetto: None,
                file: "f".into(),
            }
        );
        assert!(matches!(
            parse(sv(&[
                "simulate",
                "--degree",
                "2",
                "--topology",
                "geometric=9",
                "f"
            ]))
            .unwrap(),
            Command::Simulate {
                topology: TopologySpec::Geometric(9),
                slots: 20_000,
                ..
            }
        ));
        for t in ["ring", "line", "star"] {
            assert!(parse(sv(&["simulate", "--degree", "2", "--topology", t, "f"])).is_ok());
        }
    }

    #[test]
    fn simulate_fault_flags() {
        let c = parse(sv(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--per",
            "0.05",
            "--burst",
            "0.01,0.2",
            "--crash-rate",
            "0.001,0.05",
            "--drift",
            "0.002",
            "--max-retries",
            "4",
            "f",
        ]))
        .unwrap();
        match c {
            Command::Simulate {
                per,
                burst,
                crash,
                drift,
                max_retries,
                ..
            } => {
                assert_eq!(per, 0.05);
                assert_eq!(burst, Some((0.01, 0.2)));
                assert_eq!(crash, Some((0.001, 0.05)));
                assert_eq!(drift, 0.002);
                assert_eq!(max_retries, Some(4));
            }
            _ => panic!(),
        }
        // --crash-rate accepts a lone crash probability (default recovery).
        match parse(sv(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--crash-rate",
            "0.01",
            "f",
        ]))
        .unwrap()
        {
            Command::Simulate { crash, .. } => assert_eq!(crash, Some((0.01, 0.1))),
            _ => panic!(),
        }
        // --burst requires both transition probabilities.
        assert!(parse(sv(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--burst",
            "0.01",
            "f",
        ]))
        .is_err());
        assert!(parse(sv(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--burst",
            "x,0.2",
            "f",
        ]))
        .is_err());
        assert!(parse(sv(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "ring",
            "--max-retries",
            "-1",
            "f",
        ]))
        .is_err());
    }

    #[test]
    fn error_paths() {
        assert!(parse(sv(&[])).is_err());
        assert!(parse(sv(&["frobnicate"])).is_err());
        assert!(
            parse(sv(&["build", "--nodes", "10"])).is_err(),
            "missing flags"
        );
        assert!(
            parse(sv(&["build", "--nodes"])).is_err(),
            "flag without value"
        );
        assert!(parse(sv(&[
            "build",
            "--nodes",
            "x",
            "--degree",
            "2",
            "--alpha-t",
            "1",
            "--alpha-r",
            "2"
        ]))
        .is_err());
        assert!(
            parse(sv(&["verify", "--degree", "2"])).is_err(),
            "missing file"
        );
        assert!(parse(sv(&["verify", "--degree", "2", "a", "b"])).is_err());
        assert!(parse(sv(&["verify", "--degree", "2", "--bogus", "1", "f"])).is_err());
        assert!(parse(sv(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "grid=4",
            "f"
        ]))
        .is_err());
        assert!(parse(sv(&[
            "simulate",
            "--degree",
            "2",
            "--topology",
            "blob",
            "f"
        ]))
        .is_err());
        assert!(
            parse(sv(&["build", "--nodes", "1", "--nodes", "2"])).is_err(),
            "dup flag"
        );
        assert_eq!(parse(sv(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn campaign_subcommands_parse() {
        assert_eq!(
            parse(sv(&[
                "campaign",
                "run",
                "--grid",
                "smoke",
                "--reps",
                "8",
                "--seed",
                "42",
                "--shard-size",
                "2",
                "out/dir",
            ]))
            .unwrap(),
            Command::Campaign(CampaignAction::Run {
                grid: "smoke".into(),
                dir: "out/dir".into(),
                reps: Some(8),
                seed: Some(42),
                shard_size: Some(2),
            })
        );
        assert_eq!(
            parse(sv(&["campaign", "resume", "d"])).unwrap(),
            Command::Campaign(CampaignAction::Resume { dir: "d".into() })
        );
        assert_eq!(
            parse(sv(&["campaign", "status", "d"])).unwrap(),
            Command::Campaign(CampaignAction::Status { dir: "d".into() })
        );
        // Usage errors: missing pieces and unknown flags/actions.
        for bad in [
            vec!["campaign"],
            vec!["campaign", "frobnicate", "d"],
            vec!["campaign", "run", "d"],
            vec!["campaign", "run", "--grid", "smoke"],
            vec!["campaign", "resume"],
            vec!["campaign", "resume", "--grid", "smoke", "d"],
            vec!["campaign", "status", "a", "b"],
        ] {
            let e = parse(sv(&bad)).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{bad:?} -> {e}");
        }
    }

    #[test]
    fn domain_errors_map_to_invalid_value() {
        let sim = |flag: &str, value: &str| {
            parse(sv(&[
                "simulate",
                "--degree",
                "2",
                "--topology",
                "ring",
                flag,
                value,
                "f",
            ]))
        };
        let e = sim("--per", "1.5").unwrap_err();
        assert_eq!(e.exit_code(), 3);
        assert!(e.to_string().contains("per-link error rate"), "{e}");
        for (flag, value) in [
            ("--per", "NaN"),
            ("--per", "-0.1"),
            ("--rate", "NaN"),
            ("--rate", "-1"),
            ("--rate", "inf"),
            ("--rate", "1.5"),
            ("--drift", "1.5"),
            ("--drift", "NaN"),
            ("--burst", "1.2,0.5"),
            ("--crash-rate", "0.5,2.0"),
        ] {
            let e = sim(flag, value).unwrap_err();
            assert_eq!(e.exit_code(), 3, "{flag} {value} -> {e}");
        }
        // In-domain values still parse.
        assert!(sim("--per", "1.0").is_ok());
        assert!(sim("--drift", "0.0").is_ok());
        // Degenerate campaign overrides are invalid values, not usage errors.
        for flag in ["--reps", "--shard-size"] {
            let e = parse(sv(&["campaign", "run", "--grid", "smoke", flag, "0", "d"])).unwrap_err();
            assert_eq!(e.exit_code(), 3, "{flag} -> {e}");
        }
        // A point outside the Figure 2 construction's domain is an invalid
        // value, not a panic.
        for (n, d, at, ar) in [
            ("5", "5", "1", "1"),
            ("5", "0", "1", "1"),
            ("4", "1", "2", "3"),
        ] {
            let e = parse(sv(&[
                "build",
                "--nodes",
                n,
                "--degree",
                d,
                "--alpha-t",
                at,
                "--alpha-r",
                ar,
            ]))
            .unwrap_err();
            assert_eq!(e.exit_code(), 3, "({n},{d},{at},{ar}) -> {e}");
        }
    }
}
