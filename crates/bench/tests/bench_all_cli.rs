//! `bench_all` checks every family name before it runs any family.

use std::path::Path;
use std::process::Command;
use std::time::SystemTime;

#[test]
fn unknown_family_exits_2_before_any_family_runs() {
    let record = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_verify.json"
    ));
    let stamp = |p: &Path| -> Option<(SystemTime, Vec<u8>)> {
        Some((
            std::fs::metadata(p).ok()?.modified().ok()?,
            std::fs::read(p).ok()?,
        ))
    };
    let before = stamp(record);
    // A known family first: were names checked lazily, `verify` would run
    // in full (no `--smoke`) and rewrite its record before the bad name.
    let out = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(["verify", "no_such_family"])
        .output()
        .expect("run bench_all");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown family \"no_such_family\""),
        "{stderr}"
    );
    assert!(!stderr.contains("=== verify ==="), "{stderr}");
    assert_eq!(stamp(record), before, "no record may be written");
}
