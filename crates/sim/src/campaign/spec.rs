//! Campaign descriptions and the deterministic sharding rule.

use ttdc_util::fnv1a64;

/// Version stamp of the campaign formats: written into every line of
/// `merged.jsonl` and into `summary.json`, and hashed into the spec
/// fingerprint. Bump it whenever the shard records or the merged output
/// change shape, so a resume against an old directory fails loudly instead
/// of merging silently incompatible records.
pub const CAMPAIGN_SCHEMA_VERSION: u64 = 1;

/// One cell of the parameter grid: a stable label plus the named
/// parameters that produced it (descriptive — the scenario closure, not
/// the runner, interprets them).
#[derive(Clone, Debug, PartialEq)]
pub struct PointSpec {
    /// Stable identifier, unique within the campaign (e.g. `ttdc/rate=0.005`).
    pub label: String,
    /// Named parameters, in display order.
    pub params: Vec<(String, String)>,
}

impl PointSpec {
    /// A point with a label and no structured parameters.
    pub fn new(label: impl Into<String>) -> Self {
        PointSpec {
            label: label.into(),
            params: Vec::new(),
        }
    }

    /// Adds one named parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl std::fmt::Display) -> Self {
        self.params.push((key.into(), value.to_string()));
        self
    }
}

/// A full campaign: a parameter grid × a replication count, plus the
/// constants that fix the sharding rule.
///
/// Replication `r` of point `p` always runs with seed `base_seed + r`,
/// regardless of how replications are grouped into shards — the sharding
/// rule partitions *work*, never *randomness*, which is what makes any
/// shard size merge bit-identically (see [`CampaignSpec::shards`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (also the manifest's `campaign` header field).
    pub name: String,
    /// The parameter grid, in merge order.
    pub points: Vec<PointSpec>,
    /// Replications per point.
    pub reps: u64,
    /// Seed of replication 0; replication `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// Replications per shard (the checkpoint granularity).
    pub shard_size: u64,
    /// Per-replication slot count, recorded in the manifest header and
    /// hashed into the fingerprint. It drives nothing; it stays so every
    /// existing fingerprint and checkpoint directory stays valid.
    pub slots_hint: u64,
}

/// One unit of campaign work: a contiguous run of replications of a
/// single grid point. Shards are the checkpoint and quarantine granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Position in the deterministic shard enumeration (also the merge
    /// order and the manifest record id).
    pub index: usize,
    /// Grid-point index into [`CampaignSpec::points`].
    pub point: usize,
    /// First replication (inclusive).
    pub rep_lo: u64,
    /// Last replication (exclusive).
    pub rep_hi: u64,
}

impl Shard {
    /// Number of replications in this shard.
    pub fn len(&self) -> u64 {
        self.rep_hi - self.rep_lo
    }

    /// `true` if the shard covers no replications (never produced by the
    /// sharding rule; exists for completeness).
    pub fn is_empty(&self) -> bool {
        self.rep_lo == self.rep_hi
    }
}

impl CampaignSpec {
    /// Checks the spec is runnable: nonempty grid, unique labels, nonzero
    /// replication and shard counts.
    pub fn validate(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("campaign has no grid points".into());
        }
        if self.reps == 0 {
            return Err("campaign has zero replications per point".into());
        }
        if self.shard_size == 0 {
            return Err("campaign shard size must be nonzero".into());
        }
        let mut labels: Vec<&str> = self.points.iter().map(|p| p.label.as_str()).collect();
        labels.sort_unstable();
        if labels.windows(2).any(|w| w[0] == w[1]) {
            return Err("campaign point labels must be unique".into());
        }
        Ok(())
    }

    /// The deterministic shard enumeration: points in grid order, each
    /// point's replications chunked into runs of `shard_size` (the last
    /// chunk may be short). Shard `index` is the position in this
    /// enumeration, so the same spec always yields the same work units —
    /// the invariant resume and the merge both lean on.
    pub fn shards(&self) -> Vec<Shard> {
        let mut out = Vec::new();
        for point in 0..self.points.len() {
            let mut lo = 0;
            while lo < self.reps {
                let hi = (lo + self.shard_size).min(self.reps);
                out.push(Shard {
                    index: out.len(),
                    point,
                    rep_lo: lo,
                    rep_hi: hi,
                });
                lo = hi;
            }
        }
        out
    }

    /// Fingerprint of everything the sharding rule and the merge depend
    /// on. A manifest records it; resume refuses a directory whose
    /// fingerprint differs, because its shards would not line up with the
    /// spec being resumed.
    pub fn fingerprint(&self) -> u64 {
        let mut canon = format!(
            "v{CAMPAIGN_SCHEMA_VERSION}|{}|reps={}|seed={}|shard={}|slots={}",
            self.name, self.reps, self.base_seed, self.shard_size, self.slots_hint
        );
        for p in &self.points {
            canon.push('|');
            canon.push_str(&p.label);
            for (k, v) in &p.params {
                canon.push(';');
                canon.push_str(k);
                canon.push('=');
                canon.push_str(v);
            }
        }
        fnv1a64(canon.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(points: usize, reps: u64, shard_size: u64) -> CampaignSpec {
        CampaignSpec {
            name: "t".into(),
            points: (0..points)
                .map(|i| PointSpec::new(format!("p{i}")))
                .collect(),
            reps,
            base_seed: 10,
            shard_size,
            slots_hint: 100,
        }
    }

    #[test]
    fn sharding_partitions_every_replication_exactly_once() {
        let s = spec(3, 10, 4);
        let shards = s.shards();
        assert_eq!(shards.len(), 9, "3 points × ceil(10/4)");
        for (i, sh) in shards.iter().enumerate() {
            assert_eq!(sh.index, i);
            assert!(!sh.is_empty());
        }
        for p in 0..3 {
            let mut covered: Vec<u64> = shards
                .iter()
                .filter(|sh| sh.point == p)
                .flat_map(|sh| sh.rep_lo..sh.rep_hi)
                .collect();
            covered.sort_unstable();
            assert_eq!(covered, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_size_one_and_oversized_both_cover() {
        assert_eq!(spec(2, 5, 1).shards().len(), 10);
        let big = spec(2, 5, 100).shards();
        assert_eq!(big.len(), 2);
        assert_eq!(big[0].len(), 5);
    }

    #[test]
    fn fingerprint_tracks_every_sharding_input() {
        let base = spec(2, 5, 2);
        assert_eq!(base.fingerprint(), spec(2, 5, 2).fingerprint());
        let mut other = spec(2, 5, 2);
        other.shard_size = 3;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = spec(2, 5, 2);
        other.base_seed = 11;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = spec(2, 5, 2);
        other.points[1] = PointSpec::new("p1").param("rate", 0.5);
        assert_ne!(base.fingerprint(), other.fingerprint());
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        assert!(spec(0, 5, 2).validate().is_err());
        assert!(spec(2, 0, 2).validate().is_err());
        assert!(spec(2, 5, 0).validate().is_err());
        let mut dup = spec(2, 5, 2);
        dup.points[1].label = "p0".into();
        assert!(dup.validate().is_err());
        assert!(spec(2, 5, 2).validate().is_ok());
    }
}
