//! Kill-and-resume guarantees for `ttdc synth campaign`.
//!
//! A synthesis campaign checkpoints every finished root branch, and each
//! branch runs under a node budget, which keeps it off the incumbent the
//! branches share — so whatever
//! subset of branches a dying process managed to checkpoint, re-running
//! the same command finishes the rest and reduces to the same winner.
//! Two ways to die mid-campaign: a deterministic self-abort after N
//! checkpoints (`TTDC_SYNTH_KILL_AFTER`) and a real SIGKILL at an
//! arbitrary instant. In both cases the final catalog entry must be
//! byte-identical to one from a run that was never interrupted, and at any
//! pool size that entry is the one `synth run` writes with the same budget.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The test point: (5, 1, 2, 2) fans out to more than one root branch
/// (so a kill after the first checkpoint really lands mid-campaign) yet
/// each branch finishes in milliseconds.
const POINT: [&str; 10] = [
    "synth",
    "campaign",
    "--nodes",
    "5",
    "--degree",
    "1",
    "--alpha-t",
    "2",
    "--alpha-r",
    "2",
];

/// The catalog entry file the campaign writes for [`POINT`].
const ENTRY: &str = "n005_d1_at2_ar2.sched";

fn ttdc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ttdc"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ttdc-synth-kill-{}-{name}", std::process::id()))
}

fn run(catalog: &Path, dir: &Path) -> std::process::Output {
    ttdc()
        .args(POINT)
        .arg("--catalog")
        .arg(catalog)
        .arg(dir)
        .output()
        .expect("spawn ttdc")
}

fn entry_bytes(catalog: &Path) -> String {
    std::fs::read_to_string(catalog.join(ENTRY))
        .unwrap_or_else(|e| panic!("{}: {e}", catalog.join(ENTRY).display()))
}

/// The ground truth: the same campaign run start-to-finish in one process.
fn uninterrupted_baseline(name: &str) -> String {
    let catalog = tmp(&format!("{name}-catalog"));
    let dir = tmp(&format!("{name}-dir"));
    std::fs::remove_dir_all(&catalog).ok();
    std::fs::remove_dir_all(&dir).ok();
    let out = run(&catalog, &dir);
    assert!(
        out.status.success(),
        "baseline run failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = entry_bytes(&catalog);
    std::fs::remove_dir_all(&catalog).ok();
    std::fs::remove_dir_all(&dir).ok();
    text
}

#[test]
fn self_aborted_campaign_resumes_to_the_identical_entry() {
    let baseline = uninterrupted_baseline("abort-baseline");
    let catalog = tmp("abort-catalog");
    let dir = tmp("abort-dir");
    std::fs::remove_dir_all(&catalog).ok();
    std::fs::remove_dir_all(&dir).ok();

    // The child aborts itself right after its first branch checkpoint.
    let out = ttdc()
        .args(POINT)
        .arg("--catalog")
        .arg(&catalog)
        .arg(&dir)
        .env("TTDC_SYNTH_KILL_AFTER", "1")
        .output()
        .expect("spawn ttdc");
    assert!(!out.status.success(), "the kill-after run must die");
    assert!(
        !catalog.join(ENTRY).exists(),
        "a killed campaign must not have written a catalog entry"
    );
    let checkpointed = std::fs::read_to_string(dir.join("manifest.jsonl"))
        .expect("the checkpoints it did complete must survive")
        .lines()
        .count()
        .saturating_sub(1);
    assert_eq!(checkpointed, 1, "died after exactly one checkpoint");

    // Re-running the same command resumes from the manifest.
    let out = run(&catalog, &dir);
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        report.contains("resuming : 1/"),
        "resume must reuse the surviving checkpoint: {report}"
    );
    assert_eq!(entry_bytes(&catalog), baseline);
    std::fs::remove_dir_all(&catalog).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkilled_campaign_resumes_to_the_identical_entry() {
    let baseline = uninterrupted_baseline("sigkill-baseline");
    let catalog = tmp("sigkill-catalog");
    let dir = tmp("sigkill-dir");
    std::fs::remove_dir_all(&catalog).ok();
    std::fs::remove_dir_all(&dir).ok();

    let mut child = ttdc()
        .args(POINT)
        .arg("--catalog")
        .arg(&catalog)
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ttdc");

    // Kill as soon as the first checkpoint lands. If the machine is so
    // fast the campaign finishes first, the test degenerates to resuming
    // a complete campaign — still a valid check.
    let manifest = dir.join("manifest.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let records = std::fs::read_to_string(&manifest)
            .map(|s| s.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if records >= 1
            || child.try_wait().expect("try_wait").is_some()
            || Instant::now() > deadline
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().ok();
    child.wait().expect("wait");

    let out = run(&catalog, &dir);
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(entry_bytes(&catalog), baseline);
    std::fs::remove_dir_all(&catalog).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `ttdc synth <action>` at (5, 2, 2, 2) — four root branches, each
/// exhausting a 200-node budget, so the polish runs too — on `threads`
/// pool workers, and returns the catalog entry it writes.
fn entry_5222(action: &[&str], threads: &str, name: &str) -> String {
    let catalog = tmp(&format!("{name}-catalog"));
    std::fs::remove_dir_all(&catalog).ok();
    std::fs::remove_dir_all(tmp(&format!("{name}-dir"))).ok();
    let out = ttdc()
        .args(["synth", action[0]])
        .args([
            "--nodes",
            "5",
            "--degree",
            "2",
            "--alpha-t",
            "2",
            "--alpha-r",
            "2",
        ])
        .args(&action[1..])
        .arg("--catalog")
        .arg(&catalog)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("spawn ttdc");
    assert!(
        out.status.success(),
        "{action:?}: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = std::fs::read_to_string(catalog.join("n005_d2_at2_ar2.sched")).expect("entry");
    std::fs::remove_dir_all(&catalog).ok();
    std::fs::remove_dir_all(tmp(&format!("{name}-dir"))).ok();
    text
}

#[test]
fn a_campaign_writes_the_synth_run_entry_at_any_thread_count() {
    let run = entry_5222(&["run", "--max-nodes", "200"], "2", "eq-run");
    assert!(
        run.contains(" source=synth+polish\n"),
        "the budget must leave work for the polish: {run}"
    );
    let campaign = |threads: &str| {
        let name = format!("eq-campaign-{threads}");
        let dir = tmp(&format!("{name}-dir")).to_string_lossy().into_owned();
        entry_5222(&["campaign", "--budget", "200", &dir], threads, &name)
    };
    let sequential = campaign("1");
    assert_eq!(
        campaign("2"),
        sequential,
        "the worker count moved the entry"
    );
    assert_eq!(
        sequential.replace(" source=campaign+polish\n", " source=synth+polish\n"),
        run,
        "a campaign and a run with the same budget differ beyond `source=`"
    );
}
