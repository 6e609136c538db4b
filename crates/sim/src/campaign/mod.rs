//! Crash-resilient Monte-Carlo campaigns: a parameter grid × a
//! replication count, sharded into deterministic work units, checkpointed
//! to the checksummed JSONL manifest of [`ttdc_util::manifest`], and merged
//! bit-identically to an uninterrupted run no matter how often the process
//! is killed, resumed, or re-sharded.
//!
//! * [`spec`] — [`CampaignSpec`], the grid description and the
//!   deterministic sharding rule;
//! * [`runner`] — [`run_campaign`]: parallel execution with per-
//!   replication panic isolation, quarantine on the first panic,
//!   checkpoints through the shared [`ttdc_util::Checkpoint`] writer, and
//!   the ordered merge.
//!
//! See `DESIGN.md` ("Campaign runner") for the determinism-under-resume
//! argument.

pub mod runner;
pub mod spec;

pub use runner::{
    manifest_overview, run_campaign, CampaignError, CampaignOptions, CampaignOutcome, ExtraMetrics,
    QuarantinedShard, ResumeMode, CAMPAIGN_KIND, KILL_AFTER_ENV, MANIFEST_FILE, MERGED_FILE,
    SUMMARY_FILE,
};
pub use spec::{CampaignSpec, PointSpec, Shard, CAMPAIGN_SCHEMA_VERSION};
