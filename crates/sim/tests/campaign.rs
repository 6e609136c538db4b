//! Campaign-runner guarantees: sharding/interleaving invariance, manifest
//! round-trips, resume determinism, and panic quarantine.

use proptest::prelude::*;
use std::path::PathBuf;
use ttdc_core::Schedule;
use ttdc_sim::campaign::{
    manifest_overview, run_campaign, CampaignError, CampaignOptions, CampaignSpec, PointSpec,
    ResumeMode, CAMPAIGN_KIND, MANIFEST_FILE,
};
use ttdc_sim::{
    run_replications, summarize, McSummary, ScheduleMac, SimReport, SimulatorBuilder, Topology,
    TrafficPattern,
};
use ttdc_util::{BitSet, Manifest, ManifestError};

const SLOTS: u64 = 300;

/// A fast real scenario: round-robin schedule on a ring, rate varied per
/// grid point.
fn scenario(point_rates: &[f64], point: usize, seed: u64) -> SimReport {
    let n = 4;
    let t = (0..n).map(|i| BitSet::from_iter(n, [i])).collect();
    let mac = ScheduleMac::new("rr", Schedule::non_sleeping(n, t));
    let mut sim = SimulatorBuilder::new(
        Topology::ring(n),
        TrafficPattern::PoissonUnicast {
            rate: point_rates[point],
        },
    )
    .seed(seed)
    .build()
    .unwrap();
    sim.run(&mac, SLOTS);
    sim.report()
}

fn spec(name: &str, rates: &[f64], reps: u64, shard_size: u64) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        points: rates
            .iter()
            .map(|r| PointSpec::new(format!("rate={r}")).param("rate", r))
            .collect(),
        reps,
        base_seed: 100,
        shard_size,
        slots_hint: SLOTS,
    }
}

fn fast_opts() -> CampaignOptions {
    CampaignOptions::default()
}

fn tmp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("ttdc-campaign-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn summaries_bits(s: &McSummary) -> Vec<u64> {
    [
        &s.delivery_ratio,
        &s.latency_mean,
        &s.energy_mean_mj,
        &s.energy_per_delivery_mj,
        &s.collisions,
        &s.duty_cycle,
        &s.energy_fairness,
    ]
    .into_iter()
    .flat_map(|st| {
        [
            st.count(),
            st.mean().to_bits(),
            st.variance().to_bits(),
            st.min().to_bits(),
            st.max().to_bits(),
        ]
    })
    .collect()
}

/// The merged campaign output equals the two-step reference
/// `summarize(&run_replications(..))` bit for bit.
#[test]
fn campaign_merge_is_bit_identical_to_summarize_of_run_replications() {
    let rates = [0.05, 0.2];
    let sp = spec("ident", &rates, 6, 2);
    let outcome = run_campaign(&sp, None, ResumeMode::Auto, &fast_opts(), None, |p, s| {
        scenario(&rates, p, s)
    })
    .unwrap();
    assert!(!outcome.degraded);
    for (point, merged) in outcome.summaries.iter().enumerate() {
        let direct = summarize(&run_replications(6, 100, |seed| {
            scenario(&rates, point, seed)
        }));
        assert_eq!(
            summaries_bits(merged),
            summaries_bits(&direct),
            "point {point} diverged from summarize(run_replications(..))"
        );
    }
}

#[test]
fn any_shard_size_produces_identical_merged_output() {
    let rates = [0.05, 0.2, 0.4];
    let reference = {
        let sp = spec("shards", &rates, 5, 1);
        run_campaign(&sp, None, ResumeMode::Auto, &fast_opts(), None, |p, s| {
            scenario(&rates, p, s)
        })
        .unwrap()
        .merged_jsonl(&sp)
    };
    for shard_size in [2, 3, 5, 64] {
        let sp = spec("shards", &rates, 5, shard_size);
        let merged = run_campaign(&sp, None, ResumeMode::Auto, &fast_opts(), None, |p, s| {
            scenario(&rates, p, s)
        })
        .unwrap()
        .merged_jsonl(&sp);
        // The fingerprint (and thus nothing content-bearing) differs only
        // via the sharding constant; the merged bytes must not.
        assert_eq!(merged, reference, "shard_size {shard_size} diverged");
    }
}

#[test]
fn checkpointed_run_reloads_bit_identically() {
    let rates = [0.1, 0.3];
    let sp = spec("reload", &rates, 4, 2);
    let dir = tmp_dir("reload");
    let first = run_campaign(
        &sp,
        Some(&dir),
        ResumeMode::Fresh,
        &fast_opts(),
        None,
        |p, s| scenario(&rates, p, s),
    )
    .unwrap();
    assert_eq!(first.executed_shards, 4);
    assert_eq!(first.reused_shards, 0);
    // Resuming a *complete* campaign executes nothing and reproduces the
    // merged output byte for byte from the manifest alone.
    let second = run_campaign(
        &sp,
        Some(&dir),
        ResumeMode::Resume,
        &fast_opts(),
        None,
        |_, _| panic!("resume of a complete campaign must not re-execute"),
    )
    .unwrap();
    assert_eq!(second.executed_shards, 0);
    assert_eq!(second.reused_shards, 4);
    assert_eq!(second.merged_jsonl(&sp), first.merged_jsonl(&sp));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_after_partial_manifest_is_byte_identical_to_uninterrupted() {
    let rates = [0.1, 0.3];
    let sp = spec("resume", &rates, 4, 1);
    let uninterrupted_dir = tmp_dir("resume-a");
    let uninterrupted = run_campaign(
        &sp,
        Some(&uninterrupted_dir),
        ResumeMode::Fresh,
        &fast_opts(),
        None,
        |p, s| scenario(&rates, p, s),
    )
    .unwrap();

    // Simulate a SIGKILL after 3 checkpoints: truncate the manifest to
    // its first 3 records and resume.
    let interrupted_dir = tmp_dir("resume-b");
    run_campaign(
        &sp,
        Some(&interrupted_dir),
        ResumeMode::Fresh,
        &fast_opts(),
        None,
        |p, s| scenario(&rates, p, s),
    )
    .unwrap();
    let manifest_path = interrupted_dir.join(MANIFEST_FILE);
    let full = std::fs::read_to_string(&manifest_path).unwrap();
    let truncated: Vec<&str> = full.lines().take(1 + 3).collect();
    std::fs::write(&manifest_path, truncated.join("\n") + "\n").unwrap();

    let resumed = run_campaign(
        &sp,
        Some(&interrupted_dir),
        ResumeMode::Resume,
        &fast_opts(),
        None,
        |p, s| scenario(&rates, p, s),
    )
    .unwrap();
    assert_eq!(resumed.reused_shards, 3);
    assert_eq!(resumed.executed_shards, 5);
    assert_eq!(
        resumed.merged_jsonl(&sp),
        uninterrupted.merged_jsonl(&sp),
        "kill-resume must reproduce the uninterrupted bytes"
    );
    std::fs::remove_dir_all(&uninterrupted_dir).unwrap();
    std::fs::remove_dir_all(&interrupted_dir).unwrap();
}

#[test]
fn resume_modes_enforce_directory_state() {
    let rates = [0.1];
    let sp = spec("modes", &rates, 2, 1);
    let dir = tmp_dir("modes");
    assert!(matches!(
        run_campaign(
            &sp,
            Some(&dir),
            ResumeMode::Resume,
            &fast_opts(),
            None,
            |p, s| { scenario(&rates, p, s) }
        ),
        Err(CampaignError::NothingToResume(_))
    ));
    run_campaign(
        &sp,
        Some(&dir),
        ResumeMode::Fresh,
        &fast_opts(),
        None,
        |p, s| scenario(&rates, p, s),
    )
    .unwrap();
    assert!(matches!(
        run_campaign(
            &sp,
            Some(&dir),
            ResumeMode::Fresh,
            &fast_opts(),
            None,
            |p, s| { scenario(&rates, p, s) }
        ),
        Err(CampaignError::AlreadyStarted(_))
    ));
    // A different spec (different fingerprint) must be refused.
    let other = spec("modes", &rates, 3, 1);
    assert!(matches!(
        run_campaign(
            &other,
            Some(&dir),
            ResumeMode::Resume,
            &fast_opts(),
            None,
            |p, s| { scenario(&rates, p, s) }
        ),
        Err(CampaignError::Manifest(
            ManifestError::FingerprintMismatch { .. }
        ))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persistent_panic_quarantines_the_shard_and_degrades_gracefully() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let rates = [0.1, 0.3];
    let sp = spec("panic", &rates, 3, 1);
    let poisoned_seed = 101; // base_seed + 1
    let attempts = AtomicU32::new(0);
    let outcome = run_campaign(&sp, None, ResumeMode::Auto, &fast_opts(), None, |p, s| {
        if p == 1 && s == poisoned_seed {
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("injected fault at seed {s}");
        }
        scenario(&rates, p, s)
    })
    .unwrap();
    assert!(
        outcome.degraded,
        "a quarantined shard must mark degradation"
    );
    assert_eq!(outcome.quarantined.len(), 1);
    let q = &outcome.quarantined[0];
    assert_eq!(q.point, 1);
    assert_eq!(q.seed, poisoned_seed);
    assert!(q.message.contains("injected fault"), "{}", q.message);
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "a pure replication is never retried"
    );
    // The poisoned point still summarizes its healthy replications…
    assert_eq!(outcome.summaries[1].delivery_ratio.count(), 2);
    // …and the healthy point is untouched.
    assert_eq!(outcome.summaries[0].delivery_ratio.count(), 3);
    // The degradation is explicit in the merged output.
    let merged = outcome.merged_jsonl(&sp);
    assert!(merged.contains("\"degraded\":true"), "{merged}");
    assert!(
        merged.contains(&format!("\"seed\":\"{poisoned_seed}\"")),
        "{merged}"
    );
}

#[test]
fn status_overview_reads_a_manifest_without_the_spec() {
    let rates = [0.1, 0.3];
    let sp = spec("status", &rates, 4, 2);
    let dir = tmp_dir("status");
    run_campaign(
        &sp,
        Some(&dir),
        ResumeMode::Fresh,
        &fast_opts(),
        None,
        |p, s| scenario(&rates, p, s),
    )
    .unwrap();
    let (m, total, quarantined) = manifest_overview(&dir).unwrap();
    assert_eq!(total, 4);
    assert_eq!(m.len(), 4);
    assert_eq!(quarantined, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs a small checkpointed campaign, then rewrites its manifest through
/// `edit`, resealing every line so only the edited field is wrong.
fn hand_edited(name: &str, edit: impl FnOnce(Manifest) -> Manifest) -> (CampaignSpec, PathBuf) {
    let rates = [0.1];
    let sp = spec(name, &rates, 2, 1);
    let dir = tmp_dir(name);
    run_campaign(
        &sp,
        Some(&dir),
        ResumeMode::Fresh,
        &fast_opts(),
        None,
        |p, s| scenario(&rates, p, s),
    )
    .unwrap();
    let path = dir.join(MANIFEST_FILE);
    let m = Manifest::load(&path, CAMPAIGN_KIND, None).unwrap();
    std::fs::write(&path, edit(m).to_jsonl()).unwrap();
    (sp, dir)
}

fn without(v: &serde_json::Value, key: &str) -> serde_json::Value {
    let mut v = v.clone();
    if let serde_json::Value::Object(map) = &mut v {
        map.remove(key);
    }
    v
}

#[test]
fn status_overview_refuses_a_header_missing_a_shard_count_field() {
    for key in ["points", "reps", "shard_size"] {
        let (_, dir) = hand_edited(&format!("overview-{key}"), |mut m| {
            m.header = without(&m.header, key);
            m
        });
        match manifest_overview(&dir) {
            Err(CampaignError::Manifest(ManifestError::Corrupt { line: 1, why })) => {
                assert!(why.contains(key), "{key}: {why}")
            }
            other => panic!("{key}: expected a corrupt header, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // A zero shard size gives no shard count either.
    let (_, dir) = hand_edited("overview-zero", |mut m| {
        if let serde_json::Value::Object(map) = &mut m.header {
            map.insert("shard_size".into(), serde_json::Value::from(0u64));
        }
        m
    });
    assert!(matches!(
        manifest_overview(&dir),
        Err(CampaignError::Manifest(ManifestError::Corrupt {
            line: 1,
            ..
        }))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_quarantined_record_missing_its_repro_fields_fails_the_merge() {
    for key in ["panic_seed", "panic_msg"] {
        let (sp, dir) = hand_edited(&format!("quarantine-{key}"), |mut m| {
            let quarantined = serde_json::json!({
                "point": 0u64, "rep_lo": 1u64, "rep_hi": 2u64, "status": "quarantined",
                "attempts": 1u64, "panic_seed": "101", "panic_msg": "injected",
            });
            m.put("s1", without(&quarantined, key));
            m
        });
        let rates = [0.1];
        match run_campaign(
            &sp,
            Some(&dir),
            ResumeMode::Resume,
            &fast_opts(),
            None,
            |p, s| scenario(&rates, p, s),
        ) {
            Err(CampaignError::BadRecord { id, why }) => {
                assert_eq!(id, "s1");
                assert!(why.contains(key), "{key}: {why}");
            }
            other => panic!("{key}: expected a bad record, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline robustness property: for any grid size, replication
    /// count, shard size and kill point, write → kill → reload → merge is
    /// bit-identical to the uninterrupted in-memory campaign.
    #[test]
    fn manifest_round_trip_merge_is_bit_identical(
        n_points in 1usize..3,
        reps in 1u64..5,
        shard_size in 1u64..4,
        kill_after in 0usize..6,
        case in 0u32..1000,
    ) {
        let rates: Vec<f64> = (0..n_points).map(|i| 0.05 + 0.1 * i as f64).collect();
        let name = format!("prop{case}");
        let sp = spec(&name, &rates, reps, shard_size);
        let reference = run_campaign(
            &sp, None, ResumeMode::Auto, &fast_opts(), None,
            |p, s| scenario(&rates, p, s),
        ).unwrap();

        let dir = tmp_dir(&format!("prop-{case}-{n_points}-{reps}-{shard_size}-{kill_after}"));
        run_campaign(
            &sp, Some(&dir), ResumeMode::Fresh, &fast_opts(), None,
            |p, s| scenario(&rates, p, s),
        ).unwrap();
        // Kill: keep only the first `kill_after` checkpoints.
        let path = dir.join(MANIFEST_FILE);
        let full = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = full.lines().take(1 + kill_after).collect();
        std::fs::write(&path, keep.join("\n") + "\n").unwrap();
        let resumed = run_campaign(
            &sp, Some(&dir), ResumeMode::Resume, &fast_opts(), None,
            |p, s| scenario(&rates, p, s),
        ).unwrap();
        prop_assert_eq!(resumed.merged_jsonl(&sp), reference.merged_jsonl(&sp));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
