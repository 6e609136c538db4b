//! Catalog entries read from disk are untrusted input: whatever bytes a
//! `.sched` file holds, the readers answer with a typed error or a verdict,
//! never a panic, and an entry is only ever served for the point its
//! header describes.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use ttdc_core::synth::catalog;

/// The committed entries with n ≤ 6, small enough for the naive oracles
/// `synth status` runs on every case.
const ENTRIES: [&str; 8] = [
    "n004_d2_at2_ar2.sched",
    "n005_d1_at1_ar2.sched",
    "n005_d1_at2_ar2.sched",
    "n005_d2_at1_ar2.sched",
    "n005_d2_at2_ar2.sched",
    "n006_d1_at1_ar2.sched",
    "n006_d1_at2_ar2.sched",
    "n006_d2_at1_ar3.sched",
];

fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/catalog")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ttdc-catalog-reader-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ttdc(args: &[&str]) -> (i32, String) {
    let mut out = Vec::new();
    let code = ttdc_cli::run(args.iter().map(|s| s.to_string()), &mut out);
    (code, String::from_utf8(out).unwrap())
}

fn status(dir: &Path) -> (i32, String) {
    ttdc(&["synth", "status", "--catalog", dir.to_str().unwrap()])
}

const POINT_5_2_2_2: [&str; 8] = [
    "--nodes",
    "5",
    "--degree",
    "2",
    "--alpha-t",
    "2",
    "--alpha-r",
    "2",
];

#[test]
fn an_entry_filed_under_another_point_is_refused() {
    // The (5,1,2,2) schedule filed as the (5,2,2,2) entry: it is valid for
    // D=1 but not transparent at D=2.
    let dir = tmp("misfiled");
    std::fs::write(
        dir.join("n005_d2_at2_ar2.sched"),
        committed("n005_d1_at2_ar2.sched"),
    )
    .unwrap();
    let cat = dir.to_str().unwrap();

    let mut argv = vec!["build"];
    argv.extend_from_slice(&POINT_5_2_2_2);
    argv.extend_from_slice(&["--catalog", cat]);
    let (code, out) = ttdc(&argv);
    assert_eq!(code, 5, "{out}");
    assert!(out.contains("n005_d2_at2_ar2.sched"), "{out}");
    assert!(out.contains("n=5 D=1 alpha_t=2 alpha_r=2"), "{out}");
    assert!(out.contains("n=5 D=2 alpha_t=2 alpha_r=2"), "{out}");

    // `synth run` resumes through the same loader.
    let mut argv = vec!["synth", "run"];
    argv.extend_from_slice(&POINT_5_2_2_2);
    argv.extend_from_slice(&["--catalog", cat]);
    let (code, out) = ttdc(&argv);
    assert_eq!(code, 5, "{out}");

    let (code, out) = status(&dir);
    assert_eq!(code, 6, "{out}");
    assert!(out.contains("INVALID"), "{out}");
    assert!(out.contains("n005_d1_at2_ar2.sched"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_headers_are_errors_not_panics() {
    let good = committed("n005_d1_at1_ar2.sched");
    for (from, to) in [
        ("# n=5 D=1 ", "# n=5 D=7 "),
        ("# n=5 D=1 ", "# n=5 D=0 "),
        ("# n=5 D=1 ", "# n=5 D=5 "),
        ("alpha_t=1 ", "alpha_t=0 "),
        ("alpha_r=2", "alpha_r=0"),
        ("alpha_r=2", "alpha_r=5"),
    ] {
        let bad = good.replacen(from, to, 1);
        assert_ne!(bad, good, "{to}");
        let err = catalog::entry_from_text(&bad).unwrap_err();
        assert!(err.contains("need"), "{to}: {err}");
        let dir = tmp("range");
        std::fs::write(dir.join("n005_d1_at1_ar2.sched"), &bad).unwrap();
        let (code, out) = status(&dir);
        assert_eq!(code, 6, "{to}: {out}");
        assert!(out.contains("UNREADABLE"), "{to}: {out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One damaged copy of a committed entry (`kind` 0–3): cut at byte `at`;
/// bit `bit` of byte `at` flipped; line `at` dropped; or the first digit
/// from byte `at` on set to `digit`, which keeps most headers and slot
/// lists parseable, so the damage reaches the semantic checks.
fn damage(text: &str, kind: u8, at: usize, bit: u8, digit: u8) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    let at = at % bytes.len();
    match kind {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << bit,
        2 => {
            let lines: Vec<&str> = text.lines().collect();
            let drop = at % lines.len();
            return Some(
                lines
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, l)| format!("{l}\n"))
                    .collect(),
            );
        }
        _ => {
            let pos = (at..bytes.len()).find(|&i| bytes[i].is_ascii_digit())?;
            bytes[pos] = b'0' + digit;
        }
    }
    String::from_utf8(bytes).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncated, byte-flipped and line-dropped entries never panic the
    /// parser, and every one it accepts goes through `synth status` — the
    /// oracles, the Figure 2 comparison, the file-name check — to a
    /// verdict, not a panic.
    #[test]
    fn damaged_entries_parse_or_fail_without_panicking(
        which in 0usize..8,
        kind in 0u8..4,
        at in 0usize..4096,
        bit in 0u8..7,
        digit in 0u8..10,
    ) {
        let text = committed(ENTRIES[which]);
        let Some(bad) = damage(&text, kind, at, bit, digit) else {
            return Err(TestCaseError::Reject);
        };
        if let Ok(entry) = catalog::entry_from_text(&bad) {
            prop_assert!(entry.problem.n <= 6);
            let dir = tmp(&format!("damaged-{which}-{kind}-{at}-{bit}-{digit}"));
            std::fs::write(dir.join(catalog::entry_file_name(&entry.problem)), &bad).unwrap();
            let (code, out) = status(&dir);
            prop_assert!(code == 0 || code == 6, "exit {code}: {out}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
