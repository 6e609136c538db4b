//! Resume identity for checkpointed synthesis, run in-process.
//!
//! A budgeted root branch ignores the incumbent the branches share, so its
//! record depends on nothing but its index. Whatever subset of branch
//! records a checkpoint holds, resuming it must reduce to the run that was
//! never interrupted: same schedule, fingerprint, effort and exactness, at
//! any pool size. Records whose checksum was recomputed after an edit pass
//! the manifest seal, so the driver itself must refuse any that is no cover
//! of the point, before a result exists.

use std::path::{Path, PathBuf};
use ttdc_core::synth::search::SearchOptions;
use ttdc_core::synth::{
    synthesize, synthesize_checkpointed, SynthError, SynthEvent, SynthOptions, SynthOutcome,
    SynthProblem,
};
use ttdc_util::{Manifest, MANIFEST_FILE};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ttdc-synth-resume-{}-{name}", std::process::id()))
}

fn budgeted(max_nodes: u64) -> SynthOptions {
    SynthOptions {
        search: SearchOptions {
            max_nodes: Some(max_nodes),
            incumbent_len: None,
        },
        ..SynthOptions::default()
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// The manifest an uninterrupted checkpointed run leaves in `dir`.
fn full_manifest(p: &SynthProblem, o: &SynthOptions, dir: &Path) -> Manifest {
    std::fs::remove_dir_all(dir).ok();
    synthesize_checkpointed(p, o, Some(dir), |_| {}).unwrap();
    Manifest::load(&dir.join(MANIFEST_FILE), "synth-campaign", None).unwrap()
}

/// Writes a manifest with `full`'s header and only the records `keep`
/// selects, every line sealed with a freshly computed checksum.
fn seed(dir: &Path, full: &Manifest, keep: impl Fn(usize, &str) -> Option<serde_json::Value>) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    let mut m = Manifest::new(full.kind.clone(), full.fingerprint, full.header.clone());
    for (i, r) in full.records().iter().enumerate() {
        if let Some(payload) = keep(i, &r.id) {
            m.put(r.id.clone(), payload);
        }
    }
    std::fs::write(dir.join(MANIFEST_FILE), m.to_jsonl()).unwrap();
}

fn assert_same(got: &SynthOutcome, want: &SynthOutcome, what: &str) {
    assert_eq!(got.schedule, want.schedule, "{what}: schedule");
    assert_eq!(got.fingerprint, want.fingerprint, "{what}: fingerprint");
    assert_eq!(got.stats.nodes, want.stats.nodes, "{what}: nodes");
    assert_eq!(got.stats.pruned, want.stats.pruned, "{what}: pruned");
    assert_eq!(got.stats.exact, want.stats.exact, "{what}: exact");
    assert_eq!(got.polish_improved, want.polish_improved, "{what}: polish");
}

#[test]
fn every_subset_of_checkpointed_branches_resumes_to_the_uninterrupted_run() {
    // (5, 2, 2, 2) at 200 nodes: four root branches, each budget-hit, so
    // the polish runs too.
    let p = SynthProblem::new(5, 2, 2, 2);
    let o = budgeted(200);
    let want = synthesize(&p, &o);
    assert!(!want.stats.exact, "the budget must bind");
    let full = full_manifest(&p, &o, &tmp("full"));
    let branches = full.len();
    assert_eq!(branches, 4);
    let dir = tmp("subset");
    for threads in [1, 4] {
        let pool = pool(threads);
        for mask in 0..1u32 << branches {
            seed(&dir, &full, |i, _| {
                (mask >> i & 1 == 1).then(|| full.records()[i].payload.clone())
            });
            let mut resumed = 0;
            let got = pool
                .install(|| {
                    synthesize_checkpointed(&p, &o, Some(&dir), |e| {
                        if let SynthEvent::Resumed { checkpointed, .. } = e {
                            resumed = checkpointed;
                        }
                    })
                })
                .unwrap();
            assert_eq!(resumed, mask.count_ones() as usize);
            assert_same(
                &got,
                &want,
                &format!("{threads} thread(s), records {mask:04b}"),
            );
            let after = Manifest::load(&dir.join(MANIFEST_FILE), "synth-campaign", None).unwrap();
            assert_eq!(after.len(), branches, "the resume checkpoints the rest");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(tmp("full")).ok();
}

#[test]
fn a_resealed_record_that_is_no_cover_is_refused_before_any_result() {
    // (5, 1, 2, 2) has 60 candidate slots; slots 30 and 34 alone leave
    // demands uncovered.
    let p = SynthProblem::new(5, 1, 2, 2);
    let o = budgeted(2_000_000);
    let full = full_manifest(&p, &o, &tmp("reseal-full"));
    let dir = tmp("reseal");
    for best in [vec![30u32, 34, 9999], vec![30, 34]] {
        seed(&dir, &full, |i, id| {
            let mut payload = full.records()[i].payload.clone();
            if id == "b0" {
                let serde_json::Value::Object(fields) = &mut payload else {
                    unreachable!("a branch record is an object");
                };
                fields.insert("best".into(), serde_json::Value::from(best.clone()));
            }
            Some(payload)
        });
        match synthesize_checkpointed(&p, &o, Some(&dir), |_| {}) {
            Err(SynthError::Record(m)) => assert!(m.starts_with("branch b0:"), "{best:?}: {m}"),
            other => panic!("{best:?}: expected a record error, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(tmp("reseal-full")).ok();
}
