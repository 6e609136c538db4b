//! End-to-end kill-and-resume guarantees for `ttdc campaign`.
//!
//! Two ways to die mid-campaign — a deterministic self-abort after N
//! checkpoints (`TTDC_CAMPAIGN_KILL_AFTER`) and a real SIGKILL landing at
//! an arbitrary instant — and in both cases `ttdc campaign resume` must
//! finish the sweep with merged output byte-identical to a run that was
//! never interrupted.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Overrides shared by every run in this file: enough shards (2 points ×
/// 32) that a kill reliably lands mid-campaign, small enough to finish in
/// about a second.
const ARGS: [&str; 8] = [
    "campaign",
    "run",
    "--grid",
    "smoke",
    "--reps",
    "64",
    "--shard-size",
    "2",
];

fn ttdc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ttdc"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ttdc-kill-resume-{}-{name}", std::process::id()))
}

fn merged(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("merged.jsonl"))
        .unwrap_or_else(|e| panic!("{}: {e}", dir.join("merged.jsonl").display()))
}

/// The ground truth: the same campaign run start-to-finish in one process.
fn uninterrupted_baseline(name: &str) -> String {
    let dir = tmp(name);
    std::fs::remove_dir_all(&dir).ok();
    let out = ttdc().args(ARGS).arg(&dir).output().expect("spawn ttdc");
    assert!(
        out.status.success(),
        "baseline run failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let m = merged(&dir);
    std::fs::remove_dir_all(&dir).ok();
    m
}

fn resume(dir: &Path) -> String {
    let out = ttdc()
        .args(["campaign", "resume"])
        .arg(dir)
        .output()
        .expect("spawn ttdc");
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn self_aborted_campaign_resumes_byte_identically() {
    let baseline = uninterrupted_baseline("abort-baseline");
    let dir = tmp("abort");
    std::fs::remove_dir_all(&dir).ok();

    // The child aborts itself right after its third checkpoint lands —
    // a deterministic stand-in for dying at an arbitrary instant.
    let out = ttdc()
        .args(ARGS)
        .arg(&dir)
        .env("TTDC_CAMPAIGN_KILL_AFTER", "3")
        .output()
        .expect("spawn ttdc");
    assert!(!out.status.success(), "the kill-after run must die");
    assert!(
        !dir.join("merged.jsonl").exists(),
        "a killed campaign must not have written merged output"
    );
    // The abort fires under the checkpoint lock, so exactly the three
    // counted checkpoints survive at any thread count.
    let checkpointed = std::fs::read_to_string(dir.join("manifest.jsonl"))
        .expect("the checkpoints it did complete must survive")
        .lines()
        .count()
        .saturating_sub(1);
    assert_eq!(checkpointed, 3, "expected exactly 3 checkpoints");

    let report = resume(&dir);
    assert!(
        report.contains(&format!("reused {checkpointed}")),
        "resume must replay exactly the checkpointed shards: {report}"
    );
    assert_eq!(merged(&dir), baseline);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkilled_campaign_resumes_byte_identically() {
    let baseline = uninterrupted_baseline("sigkill-baseline");
    let dir = tmp("sigkill");
    std::fs::remove_dir_all(&dir).ok();

    let mut child = ttdc()
        .args(ARGS)
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ttdc");

    // Wait for a few shards to be checkpointed, then kill without warning.
    // If the machine is so fast the campaign finishes first, the test
    // degenerates to resuming a complete campaign — still a valid check.
    let manifest = dir.join("manifest.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let records = std::fs::read_to_string(&manifest)
            .map(|s| s.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if records >= 4
            || child.try_wait().expect("try_wait").is_some()
            || Instant::now() > deadline
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().ok();
    child.wait().expect("wait");

    resume(&dir);
    assert_eq!(merged(&dir), baseline);
    std::fs::remove_dir_all(&dir).ok();
}
