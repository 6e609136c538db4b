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
//! # search bound=lp prune=true dominance=true lex_prune=true symmetry=true
//! # fingerprint=0x0123456789abcdef
//! ttdc-schedule v1
//! n=6 L=15
//! T=0 R=1,2
//! ...
//! ```
//!
//! The `# search …` line records the bound/pruning configuration that
//! produced the entry ([`super::search::SearchOptions::config_string`]);
//! it is optional so headers written before it existed still parse, and
//! it is free text, so headers that name an older knob set (`lp_depth`,
//! `lp_passes`, `sub_symmetry`) still parse too.
//!
//! Entries are written atomically and byte-round-trip through
//! [`entry_to_text`]/[`entry_from_text`]. Nothing is trusted on read:
//! [`validate_entry`] re-verifies an entry against the naive oracle
//! verifiers (Requirements 1–3 plus the cover-free-family condition on the
//! transmit sets) and re-derives the fingerprint. [`audit`] runs it over
//! every file of a catalog, with the file-name and Figure 2 checks, for
//! `ttdc synth status` (CI) and E18.

use super::{SynthOutcome, SynthProblem, VerifyCache};
use crate::io;
use crate::requirements::{requirement1_violation_naive, requirement2_violation_naive};
use crate::schedule::Schedule;
use crate::tsma::build_duty_cycled;
use crate::PartitionStrategy;
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
         # {p}\n\
         # L={} exact={} nodes={} source={}\n\
         {search_line}\
         # fingerprint=0x{:016x}\n{}",
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
/// the header is checked for internal consistency (a parameter point
/// [`SynthProblem::try_new`] accepts, declared `n`/`L` vs the parsed
/// schedule) but the *semantic* checks live in [`validate_entry`].
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
    let problem = SynthProblem::try_new(
        parse(header_field(params, "n")?)?,
        parse(header_field(params, "D")?)?,
        parse(header_field(params, "alpha_t")?)?,
        parse(header_field(params, "alpha_r")?)?,
    )
    .map_err(|e| format!("catalog header {params:?}: {e}"))?;
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
/// `Err` when a file exists but does not parse, or its header describes
/// another point than `p`.
pub fn load_entry(dir: &Path, p: &SynthProblem) -> Result<Option<CatalogEntry>, String> {
    let path = entry_path(dir, p);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let entry = entry_from_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if entry.problem != *p {
        return Err(format!(
            "{}: header describes {}, but the file is named for {p}",
            path.display(),
            entry.problem
        ));
    }
    Ok(Some(entry))
}

/// Frame length of the paper's Figure 2 construction at `p` (round-robin
/// partition): the length every catalog entry must not exceed, or `ttdc
/// build` would prefer a longer frame.
pub fn figure2_len(p: &SynthProblem) -> usize {
    build_duty_cycled(
        p.n,
        p.d,
        p.alpha_t,
        p.alpha_r,
        PartitionStrategy::RoundRobin,
    )
    .schedule
    .frame_length()
}

/// What [`commit`] did with a synthesized schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Commit {
    /// The existing entry is no longer: it stays as it was.
    Kept,
    /// The schedule is longer than Figure 2's: nothing is written.
    Figure2Shorter,
    /// The entry was written to this path.
    Wrote(PathBuf),
}

/// Why [`commit`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// The entry failed [`validate_entry`]; nothing was written.
    Invalid(String),
    /// Writing the entry failed.
    Io(String),
}

/// The catalog's write policy for one synthesis outcome at `p`: keep an
/// `existing` entry that is not beaten, refuse a schedule longer than
/// Figure 2's, otherwise validate the new entry and write it under `dir`.
/// `source` names the producer; `+polish` is appended when the local
/// search improved the cover. Returns what happened and Figure 2's L.
pub fn commit(
    dir: &Path,
    existing: Option<&CatalogEntry>,
    p: &SynthProblem,
    outcome: SynthOutcome,
    source: &str,
    config: String,
) -> Result<(Commit, usize), CommitError> {
    let fig2 = figure2_len(p);
    let l = outcome.schedule.frame_length();
    if existing.is_some_and(|e| e.schedule.frame_length() <= l) {
        return Ok((Commit::Kept, fig2));
    }
    if l > fig2 {
        return Ok((Commit::Figure2Shorter, fig2));
    }
    let entry = CatalogEntry {
        problem: *p,
        fingerprint: outcome.fingerprint,
        schedule: outcome.schedule,
        exact: outcome.stats.exact,
        nodes: outcome.stats.nodes,
        source: if outcome.polish_improved {
            format!("{source}+polish")
        } else {
            source.to_string()
        },
        config: Some(config),
    };
    validate_entry(&entry, &mut VerifyCache::new()).map_err(CommitError::Invalid)?;
    let path =
        write_entry(dir, &entry).map_err(|e| CommitError::Io(format!("{}: {e}", dir.display())))?;
    Ok((Commit::Wrote(path), fig2))
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

/// What [`audit`] found wrong, or not, with a readable catalog entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The entry passes every check.
    Ok,
    /// A valid entry with a longer frame than Figure 2's: `ttdc build`
    /// would prefer it and get a longer frame.
    LongerThanFigure2,
    /// The entry fails [`validate_entry`], for this reason.
    Invalid(String),
    /// The header describes a point other than the one the file is named
    /// for: `ttdc build` looks entries up by file name, so the entry would
    /// be served for the wrong point.
    Misfiled(String),
}

/// One audited catalog file: the entry, Figure 2's frame length at its
/// point and its [`Verdict`], or why the file is unreadable.
pub type Audited = Result<(CatalogEntry, usize, Verdict), String>;

/// The catalog audit `ttdc synth status` and E18 both report: every file
/// of [`load_all`], in its order, with what [`Audited`] holds.
pub fn audit(dir: &Path) -> Vec<(PathBuf, Audited)> {
    let mut cache = VerifyCache::new();
    load_all(dir)
        .into_iter()
        .map(|(path, loaded)| {
            let checked = loaded.map(|entry| {
                let p = &entry.problem;
                let fig2 = figure2_len(p);
                let expected = entry_file_name(p);
                let verdict = if path.file_name() != Some(expected.as_ref()) {
                    Verdict::Misfiled(format!("header describes {p}, which belongs in {expected}"))
                } else if let Err(e) = validate_entry(&entry, &mut cache) {
                    Verdict::Invalid(e)
                } else if entry.schedule.frame_length() > fig2 {
                    Verdict::LongerThanFigure2
                } else {
                    Verdict::Ok
                };
                (entry, fig2, verdict)
            });
            (path, checked)
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

    #[test]
    fn the_audit_gives_each_kind_of_entry_its_verdict() {
        let dir = std::env::temp_dir().join(format!("ttdc-catalog-audit-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ok = sample_entry();
        write_entry(&dir, &ok).unwrap();
        // The same entry filed under another point's name.
        let misfiled = entry_file_name(&SynthProblem::new(6, 1, 1, 2));
        std::fs::write(dir.join(&misfiled), entry_to_text(&ok)).unwrap();
        // A tampered fingerprint.
        let p = SynthProblem::new(5, 1, 2, 2);
        let out = synthesize(&p, &SynthOptions::default());
        let invalid = CatalogEntry {
            problem: p,
            fingerprint: out.fingerprint ^ 1,
            schedule: out.schedule,
            ..ok.clone()
        };
        write_entry(&dir, &invalid).unwrap();
        // Figure 2's frame played twice: valid, but longer than Figure 2.
        let p = SynthProblem::new(5, 2, 2, 2);
        let fig2 = build_duty_cycled(5, 2, 2, 2, PartitionStrategy::RoundRobin).schedule;
        let twice = |slot: &dyn Fn(usize) -> ttdc_util::BitSet| {
            (0..2 * fig2.frame_length())
                .map(|i| slot(i % fig2.frame_length()))
                .collect()
        };
        let schedule = Schedule::new(
            5,
            twice(&|i| fig2.transmitters(i).clone()),
            twice(&|i| fig2.receivers(i).clone()),
        );
        let longer = CatalogEntry {
            problem: p,
            fingerprint: schedule.canonical_fingerprint(),
            schedule,
            ..ok.clone()
        };
        write_entry(&dir, &longer).unwrap();
        std::fs::write(dir.join("n007_d1_at1_ar2.sched"), "garbage").unwrap();

        let verdicts: Vec<(String, Result<Verdict, String>)> = audit(&dir)
            .into_iter()
            .map(|(path, checked)| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, checked.map(|(_, _, verdict)| verdict))
            })
            .collect();
        let fingerprint_error = validate_entry(&invalid, &mut VerifyCache::new()).unwrap_err();
        assert_eq!(
            verdicts,
            vec![
                ("n005_d1_at1_ar2.sched".to_string(), Ok(Verdict::Ok)),
                (
                    "n005_d1_at2_ar2.sched".to_string(),
                    Ok(Verdict::Invalid(fingerprint_error))
                ),
                (
                    "n005_d2_at2_ar2.sched".to_string(),
                    Ok(Verdict::LongerThanFigure2)
                ),
                (
                    misfiled,
                    Ok(Verdict::Misfiled(
                        "header describes n=5 D=1 alpha_t=1 alpha_r=2, which belongs in \
                         n005_d1_at1_ar2.sched"
                            .to_string()
                    ))
                ),
                (
                    "n007_d1_at1_ar2.sched".to_string(),
                    Err("missing catalog header".to_string())
                ),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
