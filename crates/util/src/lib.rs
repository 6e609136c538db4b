//! Shared low-level substrate for the `ttdc` workspace.
//!
//! This crate deliberately has no heavyweight dependencies: it provides the
//! dense [`BitSet`] used to represent node sets and slot sets throughout the
//! scheduling core, small-sample [`stats`] helpers used by the simulator and
//! the experiment harness, exact/overflow-safe [`binomial`] arithmetic used
//! by the throughput formulas, the plain-text/CSV [`table`] renderer the
//! experiment runners print their results with, and the checksummed JSONL
//! [`manifest`] every checkpointed run saves through, and the one
//! [`splitmix64`] generator behind every seeded stream.

pub mod atomic;
pub mod binomial;
pub mod bitset;
pub mod cover;
pub mod fpfold;
pub mod histogram;
pub mod lp;
pub mod manifest;
pub mod splitmix;
pub mod stats;
pub mod subsets;
pub mod table;

pub use atomic::{fnv1a64, write_atomic};
pub use binomial::{binomial_exact, binomial_f64, binomial_ratio, ln_binomial, BinomialTable};
pub use bitset::{for_each_subset, for_each_subset_of, BitSet};
pub use cover::{CoverCounter, CoverMark};
pub use fpfold::iterate_add_periodic;
pub use histogram::Histogram;
pub use lp::{DualAscent, LpItem};
pub use manifest::{
    f64_from_bits_json, f64_to_bits_json, Checkpoint, Manifest, ManifestError, ManifestRecord,
    MANIFEST_FILE,
};
pub use splitmix::splitmix64;
pub use stats::{ConfidenceInterval, OnlineStats};
pub use subsets::{for_each_subset_delta, for_each_subset_delta_lex, SubsetEvent};
pub use table::Table;
