//! Campaign grids: the Monte-Carlo sweeps of E10/E12/E17 expressed as
//! [`CampaignSpec`]s, so the CLI (`ttdc campaign`) and the experiment
//! binaries push the *same* deterministic work units through the
//! crash-resilient runner in `ttdc_sim::campaign`.
//!
//! Each grid's point order is the row order of its experiment's table, and
//! the runner's merge is bit-identical to
//! `summarize(&run_replications(..))` over the same seeds, the fold the
//! experiments used before — so routing E10/E12/E17 through a campaign
//! (checkpointed or not) leaves every byte of `results/` unchanged.
//!
//! Set [`CAMPAIGN_DIR_ENV`] to make `exp_all` checkpoint the experiments'
//! sweeps: a killed `exp_all e12` rerun then resumes from the completed
//! shards instead of recomputing them.

use std::path::{Path, PathBuf};
use ttdc_core::construct::PartitionStrategy;
use ttdc_protocols::TtdcMac;
use ttdc_sim::campaign::{
    run_campaign, CampaignError, CampaignOptions, CampaignOutcome, ExtraMetrics, ResumeMode,
};
use ttdc_sim::{CampaignSpec, PointSpec, SimReport, SimulatorBuilder, Topology, TrafficPattern};

/// Env var: when set, experiment sweeps checkpoint under
/// `$TTDC_CAMPAIGN_DIR/<grid-name>/` and resume automatically.
pub const CAMPAIGN_DIR_ENV: &str = "TTDC_CAMPAIGN_DIR";

/// A boxed `scenario(point, seed)` closure, shareable across the pool.
pub type ScenarioFn = Box<dyn Fn(usize, u64) -> SimReport + Sync + Send>;
/// A boxed extractor for per-replication metrics beyond the standard seven.
pub type ExtractFn = Box<dyn Fn(&SimReport) -> Vec<f64> + Sync + Send>;

/// A campaign spec bundled with the scenario that executes its points —
/// everything `ttdc campaign run` and the experiment binaries need.
pub struct GridScenario {
    /// The grid × replication description (sharding inputs included).
    pub spec: CampaignSpec,
    /// Names of the per-replication extra metrics, if any.
    pub extra_names: Vec<String>,
    /// `scenario(point, seed)` — must be a pure function of its arguments.
    pub scenario: ScenarioFn,
    /// Optional extractor for metrics beyond the standard seven.
    pub extract: Option<ExtractFn>,
}

impl GridScenario {
    /// Runs this grid through the campaign runner.
    pub fn run(
        &self,
        dir: Option<&Path>,
        mode: ResumeMode,
    ) -> Result<CampaignOutcome, CampaignError> {
        let extras = self.extract.as_ref().map(|f| ExtraMetrics {
            names: self.extra_names.clone(),
            extract: f.as_ref(),
        });
        let opts = CampaignOptions::default();
        run_campaign(
            &self.spec,
            dir,
            mode,
            &opts,
            extras.as_ref(),
            &*self.scenario,
        )
    }

    /// The entry the experiment modules use: checkpoints under
    /// `$TTDC_CAMPAIGN_DIR/<name>` when the env var is set (resuming any
    /// compatible manifest found there), runs purely in memory otherwise.
    ///
    /// Panics on campaign errors (corrupt or mismatched checkpoint
    /// directory) — an experiment run has no way to continue past a
    /// poisoned checkpoint, and failing loudly beats silently recomputing.
    pub fn run_default(&self) -> CampaignOutcome {
        let dir =
            std::env::var_os(CAMPAIGN_DIR_ENV).map(|d| PathBuf::from(d).join(&self.spec.name));
        self.run(dir.as_deref(), ResumeMode::Auto)
            .unwrap_or_else(|e| panic!("campaign {:?}: {e}", self.spec.name))
    }
}

/// Every named grid `ttdc campaign run --grid` accepts.
pub fn grid_names() -> [&'static str; 6] {
    ["smoke", "e10", "e12", "e12-large", "e12c", "e17"]
}

/// Looks up a grid by name.
pub fn grid(name: &str) -> Option<GridScenario> {
    match name {
        "smoke" => Some(smoke_grid()),
        "e10" => Some(crate::e10_naive_duty_cycling::grid()),
        "e12" => Some(crate::e12_end_to_end::grid()),
        "e12-large" => Some(crate::e12_end_to_end::large_grid()),
        "e12c" => Some(crate::e12_end_to_end::low_traffic_grid()),
        "e17" => Some(crate::e17_fault_tolerance::grid()),
        _ => None,
    }
}

/// A deliberately tiny grid (seconds, not minutes) for the CI
/// kill-and-resume smoke job and local sanity checks: TTDC on a 9-node
/// ring at two offered loads.
fn smoke_grid() -> GridScenario {
    const SLOTS: u64 = 2_000;
    const RATES: [f64; 2] = [0.005, 0.02];
    GridScenario {
        spec: CampaignSpec {
            name: "smoke".into(),
            points: RATES
                .iter()
                .map(|r| PointSpec::new(format!("rate={r}")).param("rate", r))
                .collect(),
            reps: 4,
            base_seed: 1,
            shard_size: 1,
            slots_hint: SLOTS,
        },
        extra_names: Vec::new(),
        scenario: Box::new(|point, seed| {
            let mac = TtdcMac::new(9, 2, 1, 2, PartitionStrategy::RoundRobin);
            let mut sim = SimulatorBuilder::new(
                Topology::ring(9),
                TrafficPattern::PoissonUnicast { rate: RATES[point] },
            )
            .seed(seed)
            .build()
            .expect("valid configuration");
            sim.run(&mac, SLOTS);
            sim.report()
        }),
        extract: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_grid_resolves_and_validates() {
        for name in grid_names() {
            let g = grid(name).unwrap_or_else(|| panic!("{name} unregistered"));
            assert_eq!(g.spec.name, name);
            g.spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                g.extract.is_some(),
                !g.extra_names.is_empty(),
                "{name}: extras and their names must agree"
            );
        }
        assert!(grid("nope").is_none());
    }

    #[test]
    fn smoke_grid_runs_quickly_and_cleanly() {
        let g = grid("smoke").unwrap();
        let outcome = g.run_default();
        assert!(!outcome.degraded);
        assert_eq!(outcome.summaries.len(), 2);
        assert_eq!(outcome.summaries[0].delivery_ratio.count(), 4);
    }
}
