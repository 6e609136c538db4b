//! Campaign manifests read from disk are untrusted input: whatever bytes a
//! `manifest.jsonl` holds, `Manifest::load` and `manifest_overview` answer
//! with a manifest or a typed error, never a panic. A damaged *final* line
//! is a torn tail and is dropped by design; the header is never guessed.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use ttdc_sim::campaign::{manifest_overview, CAMPAIGN_KIND, MANIFEST_FILE};
use ttdc_util::{Manifest, ManifestError};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ttdc-manifest-reader-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The manifest of a real `ttdc campaign run --grid smoke` (8 shards).
fn smoke_manifest() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = tmp("smoke").join("run");
        let args = ["campaign", "run", "--grid", "smoke", dir.to_str().unwrap()];
        let mut out = Vec::new();
        let code = ttdc_cli::run(args.iter().map(|s| s.to_string()), &mut out);
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&out));
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
        text
    })
}

fn load(dir: &Path) -> Result<Manifest, ManifestError> {
    Manifest::load(&dir.join(MANIFEST_FILE), CAMPAIGN_KIND, None)
}

#[test]
fn the_smoke_manifest_reads_back_whole() {
    let dir = tmp("whole");
    std::fs::write(dir.join(MANIFEST_FILE), smoke_manifest()).unwrap();
    let m = load(&dir).unwrap();
    assert_eq!((m.len(), m.torn_tail_dropped), (8, 0));
    let (_, total, quarantined) = manifest_overview(&dir).unwrap();
    assert_eq!((total, quarantined), (8, 0));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `kind` 0 cuts the manifest at byte `at`, 1 flips bit `bit` of byte
    /// `at`, 2 drops line `at`. Cuts and drops have exact outcomes; every
    /// flip must at least read as a manifest or a typed error.
    #[test]
    fn damaged_manifests_load_or_fail_without_panicking(
        kind in 0u8..3,
        at in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let text = smoke_manifest();
        let lines: Vec<&str> = text.lines().collect();
        let header_len = lines[0].len();
        let mut bytes = text.as_bytes().to_vec();
        let at = at % bytes.len();
        match kind {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << bit,
            _ => {
                let drop = at % lines.len();
                bytes = lines
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, l)| format!("{l}\n"))
                    .collect::<String>()
                    .into_bytes();
            }
        }
        let dir = tmp(&format!("damaged-{kind}-{at}-{bit}"));
        std::fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        let loaded = load(&dir);
        let overview = manifest_overview(&dir);
        match kind {
            // A cut inside the header leaves no header; a cut in the body
            // keeps every complete record and drops the torn one.
            0 if at < header_len => {
                let corrupt_header = matches!(loaded, Err(ManifestError::Corrupt { line: 1, .. }));
                prop_assert!(corrupt_header, "cut at {}: {:?}", at, loaded);
            }
            0 => {
                let m = loaded.unwrap();
                let complete = text[..at].matches('\n').count().saturating_sub(1);
                let torn = usize::from(!text[..at].ends_with('\n') && at > header_len + 1);
                prop_assert_eq!((m.len(), m.torn_tail_dropped), (complete, torn));
                prop_assert_eq!(overview.map(|(_, total, _)| total).ok(), Some(8));
            }
            // Without its header the first record reads as a header that
            // lacks every header field: corrupt, never defaulted.
            2 if at.is_multiple_of(lines.len()) => {
                let corrupt_header = matches!(loaded, Err(ManifestError::Corrupt { line: 1, .. }));
                prop_assert!(corrupt_header, "{:?}", loaded);
            }
            2 => {
                prop_assert_eq!(loaded.unwrap().len(), 7);
                prop_assert!(overview.is_ok());
            }
            _ => {
                if let Ok(m) = loaded {
                    prop_assert!(m.len() >= 7, "a flip loses at most one record");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
