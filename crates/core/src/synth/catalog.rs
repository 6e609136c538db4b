//! The best-known-schedule catalog.
//!
//! `results/catalog/` holds one file per parameter point
//! (`n{n}_d{D}_at{α_T}_ar{α_R}.sched`): a provenance header of
//! `#`-comment lines followed by the ordinary v1 schedule text, so any
//! schedule consumer can read a catalog entry with [`crate::io::from_text`]
//! unchanged:
//!
//! ```text
//! # ttdc-catalog v1
//! # n=6 D=2 alpha_t=1 alpha_r=2
//! # L=15 exact=true nodes=1234 source=synth
//! # search bound=lp lp_depth=64 lp_passes=1 dominance=true sub_symmetry=false
//! # fingerprint=0x0123456789abcdef
//! ttdc-schedule v1
//! n=6 L=15
//! T=0 R=1,2
//! ...
//! ```
//!
//! The `# search …` line records the bound/pruning configuration that
//! produced the entry ([`super::search::SearchOptions::config_string`]);
//! it is optional so headers written before it existed still parse.
//!
//! Entries are written atomically and byte-round-trip through
//! [`entry_to_text`]/[`entry_from_text`]. Nothing is trusted on read:
//! [`validate_entry`] re-verifies an entry against the naive oracle
//! verifiers (Requirements 1–3 plus the cover-free-family condition on the
//! transmit sets) and re-derives the fingerprint — CI runs it over every
//! committed entry.

use super::{SynthProblem, VerifyCache};
use crate::io;
use crate::requirements::{requirement1_violation_naive, requirement2_violation_naive};
use crate::schedule::Schedule;
use std::path::{Path, PathBuf};

/// One catalog entry: a schedule plus its provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The parameter point this schedule is best-known for.
    pub problem: SynthProblem,
    /// The schedule itself.
    pub schedule: Schedule,
    /// `true` when branch-and-bound proved optimality at this point.
    pub exact: bool,
    /// Search-tree nodes the producing run expanded.
    pub nodes: u64,
    /// Producer tag: `synth`, `synth+polish`, `campaign`, `greedy`, …
    pub source: String,
    /// Bound/pruning configuration of the producing search
    /// ([`super::search::SearchOptions::config_string`]); `None` for
    /// entries written before this field existed.
    pub config: Option<String>,
    /// `schedule.canonical_fingerprint()`, pinned at write time.
    pub fingerprint: u64,
}

/// Canonical file name for a parameter point.
pub fn entry_file_name(p: &SynthProblem) -> String {
    format!("n{:03}_d{}_at{}_ar{}.sched", p.n, p.d, p.alpha_t, p.alpha_r)
}

/// Serializes an entry (provenance header + schedule text).
pub fn entry_to_text(e: &CatalogEntry) -> String {
    let p = &e.problem;
    let search_line = match &e.config {
        Some(cfg) => format!("# search {cfg}\n"),
        None => String::new(),
    };
    format!(
        "# ttdc-catalog v1\n\
         # n={} D={} alpha_t={} alpha_r={}\n\
         # L={} exact={} nodes={} source={}\n\
         {search_line}\
         # fingerprint=0x{:016x}\n{}",
        p.n,
        p.d,
        p.alpha_t,
        p.alpha_r,
        e.schedule.frame_length(),
        e.exact,
        e.nodes,
        e.source,
        e.fingerprint,
        io::to_text(&e.schedule)
    )
}

fn header_field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .ok_or_else(|| format!("catalog header missing {key}= in {line:?}"))
}

/// Parses an entry. The schedule body goes through the strict v1 parser;
/// the header is checked for internal consistency (declared `n`/`L` vs the
/// parsed schedule) but the *semantic* checks live in [`validate_entry`].
pub fn entry_from_text(text: &str) -> Result<CatalogEntry, String> {
    let mut comments = text.lines().filter(|l| l.trim_start().starts_with('#'));
    let magic = comments.next().ok_or("missing catalog header")?;
    if magic.trim() != "# ttdc-catalog v1" {
        return Err(format!("bad catalog magic {magic:?}"));
    }
    let params = comments.next().ok_or("missing parameter line")?;
    let claims = comments.next().ok_or("missing provenance line")?;
    // Optional `# search <config>` line (absent in pre-PR-10 headers).
    let mut fp_line = comments.next().ok_or("missing fingerprint line")?;
    let config = match fp_line.trim_start().strip_prefix("# search ") {
        Some(cfg) => {
            let cfg = cfg.trim().to_string();
            fp_line = comments.next().ok_or("missing fingerprint line")?;
            Some(cfg)
        }
        None => None,
    };
    let parse = |s: &str| -> Result<usize, String> {
        s.parse::<usize>().map_err(|_| format!("bad number {s:?}"))
    };
    let problem = SynthProblem {
        n: parse(header_field(params, "n")?)?,
        d: parse(header_field(params, "D")?)?,
        alpha_t: parse(header_field(params, "alpha_t")?)?,
        alpha_r: parse(header_field(params, "alpha_r")?)?,
    };
    let l = parse(header_field(claims, "L")?)?;
    let exact = match header_field(claims, "exact")? {
        "true" => true,
        "false" => false,
        other => return Err(format!("bad exact flag {other:?}")),
    };
    let nodes = header_field(claims, "nodes")?
        .parse::<u64>()
        .map_err(|_| "bad nodes count".to_string())?;
    let source = header_field(claims, "source")?.to_string();
    let fp_text = header_field(fp_line, "fingerprint")?;
    let fingerprint = fp_text
        .strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad fingerprint {fp_text:?}"))?;
    let schedule = io::from_text(text).map_err(|e| format!("schedule body: {e}"))?;
    if schedule.num_nodes() != problem.n || schedule.frame_length() != l {
        return Err(format!(
            "header claims n={} L={l} but schedule has n={} L={}",
            problem.n,
            schedule.num_nodes(),
            schedule.frame_length()
        ));
    }
    Ok(CatalogEntry {
        problem,
        schedule,
        exact,
        nodes,
        source,
        config,
        fingerprint,
    })
}

/// Full semantic validation against the naive oracles: α caps, all three
/// requirement verifiers, the CFF condition on transmit sets (Requirement
/// 2 in combinatorial form), and the recomputed fingerprint. This is the
/// trust boundary for anything read from disk.
pub fn validate_entry(e: &CatalogEntry, cache: &mut VerifyCache) -> Result<(), String> {
    let p = &e.problem;
    let s = &e.schedule;
    if !s.is_alpha_schedule(p.alpha_t, p.alpha_r) {
        return Err(format!(
            "entry violates α caps ({}, {})",
            p.alpha_t, p.alpha_r
        ));
    }
    if s.canonical_fingerprint() != e.fingerprint {
        return Err(format!(
            "fingerprint mismatch: header 0x{:016x}, recomputed 0x{:016x}",
            e.fingerprint,
            s.canonical_fingerprint()
        ));
    }
    if !cache.is_topology_transparent(s, p.d) {
        return Err(format!("entry fails Requirement 3 (naive) at D={}", p.d));
    }
    if let Some(v) = requirement1_violation_naive(s, p.d) {
        return Err(format!("entry fails Requirement 1 (naive): {v:?}"));
    }
    if let Some(v) = requirement2_violation_naive(s, p.d) {
        return Err(format!("entry fails Requirement 2 (naive): {v:?}"));
    }
    // CFF oracle: transmit sets over the frame must be D-cover-free.
    let blocks: Vec<_> = (0..p.n).map(|x| s.tran(x).clone()).collect();
    let fam = ttdc_combinatorics::CoverFreeFamily::from_blocks(s.frame_length(), blocks);
    if !fam.is_d_cover_free(p.d) {
        return Err(format!("transmit sets are not {}-cover-free", p.d));
    }
    Ok(())
}

/// Path of the entry for `p` under `dir`.
pub fn entry_path(dir: &Path, p: &SynthProblem) -> PathBuf {
    dir.join(entry_file_name(p))
}

/// Atomically writes `e` under `dir` (creating it), returning the path.
pub fn write_entry(dir: &Path, e: &CatalogEntry) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = entry_path(dir, &e.problem);
    ttdc_util::write_atomic(&path, entry_to_text(e).as_bytes())?;
    Ok(path)
}

/// Loads the entry for `p` from `dir`. `Ok(None)` when no file exists;
/// `Err` when a file exists but does not parse.
pub fn load_entry(dir: &Path, p: &SynthProblem) -> Result<Option<CatalogEntry>, String> {
    let path = entry_path(dir, p);
    match std::fs::read_to_string(&path) {
        Ok(text) => entry_from_text(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Loads every `*.sched` entry under `dir`, sorted by file name.
/// Unreadable or unparsable files surface as `Err` entries so a validator
/// can fail loudly instead of skipping them. A directory that cannot be
/// listed (missing, not a directory, no permission) yields one `Err`
/// element for `dir` itself, so a mistyped path never reads as an empty
/// catalog; an existing empty directory yields no elements.
pub fn load_all(dir: &Path) -> Vec<(PathBuf, Result<CatalogEntry, String>)> {
    let listed: std::io::Result<Vec<PathBuf>> =
        std::fs::read_dir(dir).and_then(|rd| rd.map(|e| e.map(|e| e.path())).collect());
    let mut paths = match listed {
        Ok(paths) => paths,
        Err(e) => {
            let msg = format!("cannot read catalog directory {}: {e}", dir.display());
            return vec![(dir.to_path_buf(), Err(msg))];
        }
    };
    paths.retain(|p| p.extension().is_some_and(|x| x == "sched"));
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let parsed = std::fs::read_to_string(&p)
                .map_err(|e| e.to_string())
                .and_then(|text| entry_from_text(&text));
            (p, parsed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthOptions};

    fn sample_entry() -> CatalogEntry {
        let p = SynthProblem::new(5, 1, 1, 2);
        let opts = SynthOptions::default();
        let out = synthesize(&p, &opts);
        CatalogEntry {
            problem: p,
            fingerprint: out.fingerprint,
            schedule: out.schedule,
            exact: out.stats.exact,
            nodes: out.stats.nodes,
            source: "synth".to_string(),
            config: Some(opts.search.config_string()),
        }
    }

    #[test]
    fn entries_round_trip_byte_identically() {
        let e = sample_entry();
        let text = entry_to_text(&e);
        assert!(text.contains("# search bound="), "config line present");
        let back = entry_from_text(&text).unwrap();
        assert_eq!(e, back);
        assert_eq!(text, entry_to_text(&back), "byte-identical round trip");
    }

    #[test]
    fn parser_accepts_both_header_versions() {
        // New header: with the `# search` provenance line.
        let e = sample_entry();
        let with_config = entry_to_text(&e);
        let parsed = entry_from_text(&with_config).unwrap();
        assert_eq!(
            parsed.config.as_deref(),
            Some(SynthOptions::default().search.config_string().as_str())
        );

        // Old (pre-PR-10) header: no `# search` line at all. Parses to
        // `config: None` and still round-trips byte-identically.
        let mut old = e.clone();
        old.config = None;
        let without_config = entry_to_text(&old);
        assert!(!without_config.contains("# search"));
        let parsed = entry_from_text(&without_config).unwrap();
        assert_eq!(parsed, old);
        assert_eq!(entry_to_text(&parsed), without_config);
    }

    #[test]
    fn validation_accepts_good_and_rejects_tampered() {
        let e = sample_entry();
        let mut cache = VerifyCache::new();
        validate_entry(&e, &mut cache).unwrap();
        // Tampered fingerprint.
        let mut bad = e.clone();
        bad.fingerprint ^= 1;
        assert!(validate_entry(&bad, &mut cache)
            .unwrap_err()
            .contains("fingerprint"));
        // Truncated schedule: loses transparency.
        let mut bad = e.clone();
        bad.schedule = bad.schedule.truncated(1);
        bad.fingerprint = bad.schedule.canonical_fingerprint();
        assert!(validate_entry(&bad, &mut cache).is_err());
    }

    #[test]
    fn write_load_cycle_preserves_entries() {
        let dir = std::env::temp_dir().join(format!("ttdc-catalog-test-{}", std::process::id()));
        let e = sample_entry();
        let path = write_entry(&dir, &e).unwrap();
        assert_eq!(path, entry_path(&dir, &e.problem));
        let loaded = load_entry(&dir, &e.problem).unwrap().unwrap();
        assert_eq!(e, loaded);
        let all = load_all(&dir);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1.as_ref().unwrap(), &e);
        // Missing point: None, not an error.
        let other = SynthProblem::new(6, 1, 1, 2);
        assert!(load_entry(&dir, &other).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unreadable_directory_is_an_error_and_an_empty_one_is_empty() {
        let dir = std::env::temp_dir().join(format!("ttdc-catalog-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_all(&dir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
        let all = load_all(&dir);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, dir);
        let err = all[0].1.as_ref().unwrap_err();
        assert!(err.starts_with("cannot read catalog directory"), "{err}");
    }

    #[test]
    fn malformed_entries_error_with_context() {
        assert!(entry_from_text("").is_err());
        assert!(entry_from_text("# ttdc-catalog v2\n").is_err());
        let e = sample_entry();
        let good = entry_to_text(&e);
        // Header/body disagreement is caught.
        let broken = good.replace("# n=5 ", "# n=6 ");
        assert!(entry_from_text(&broken).unwrap_err().contains("n=6"));
    }
}
