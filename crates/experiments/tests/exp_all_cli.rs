//! `exp_all` end to end: a selector that matches no experiment is an
//! error, and `--checkpoint` replays a finished experiment from its
//! manifest into byte-identical tables.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttdc-exp-all-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn exp_all(results: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_all"))
        .args(args)
        .env("TTDC_RESULTS_DIR", results)
        .output()
        .expect("spawn exp_all")
}

fn read_dir_sorted(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn an_unmatched_selector_exits_2_and_names_it() {
    let results = tmp("unmatched");
    let out = exp_all(&results, &["e09", "nosuch"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("nosuch"), "{stderr}");
    assert!(!stderr.contains("running"), "nothing may run: {stderr}");
    assert!(!results.exists(), "nothing may be written");
}

#[test]
fn a_checkpointed_rerun_replays_byte_identical_tables() {
    let root = tmp("checkpoint");
    let checkpoint = root.join("ck");
    let ck = checkpoint.to_str().unwrap();

    let first = exp_all(&root.join("first"), &["--checkpoint", ck, "e09"]);
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(first.status.success(), "{stderr}");
    assert!(stderr.contains("e09_figure1 computed"), "{stderr}");
    assert!(checkpoint.join("exp_all.jsonl").exists());

    let second = exp_all(&root.join("second"), &["--checkpoint", ck, "e09"]);
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(second.status.success(), "{stderr}");
    assert!(
        stderr.contains("e09_figure1 replayed from checkpoint"),
        "{stderr}"
    );
    let files = read_dir_sorted(&root.join("first"));
    assert_eq!(files.len(), 3, "txt, csv and json");
    assert_eq!(read_dir_sorted(&root.join("second")), files);
    std::fs::remove_dir_all(&root).ok();
}
