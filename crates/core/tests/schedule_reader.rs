//! Schedule files read from disk are untrusted input: whatever bytes a
//! schedule file holds, `io::from_text` answers with a schedule or a typed
//! `ParseError`, never a panic. Cuts and dropped lines have exact outcomes;
//! every schedule the reader accepts writes back to text it reads again
//! unchanged.

use proptest::prelude::*;
use std::path::Path;
use ttdc_core::construct::{construct, PartitionStrategy};
use ttdc_core::io;
use ttdc_core::tsma::build_polynomial;

/// Committed catalog entries (schedules behind a `#` provenance header)
/// and one constructed schedule without a header.
fn sources() -> Vec<String> {
    let catalog = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/catalog");
    let mut texts: Vec<String> = [
        "n004_d2_at2_ar2.sched",
        "n006_d2_at1_ar3.sched",
        "n010_d1_at1_ar3.sched",
    ]
    .iter()
    .map(|name| std::fs::read_to_string(catalog.join(name)).expect("committed catalog entry"))
    .collect();
    let ns = build_polynomial(12, 2).schedule;
    let c = construct(&ns, 2, 2, 3, PartitionStrategy::RoundRobin);
    texts.push(io::to_text(&c.schedule));
    texts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `kind` 0 cuts the text at byte `at`, 1 flips bit `bit` of byte
    /// `at`, 2 drops line `at`.
    #[test]
    fn damaged_schedules_parse_or_fail_without_panicking(
        which in 0usize..4,
        kind in 0u8..3,
        at in 0usize..1_000_000,
        bit in 0u8..7,
    ) {
        let text = &sources()[which];
        let original = io::from_text(text).expect("the undamaged text parses");
        let lines: Vec<&str> = text.lines().collect();
        let at = at % text.len();
        match kind {
            // A cut that removes at least the whole last slot line leaves
            // fewer slot lines than `L=` declares; one that removes only
            // the final newline changes nothing.
            0 => {
                let cut = &text[..at];
                let last_line_start = text[..text.len() - 1].rfind('\n').map_or(0, |i| i + 1);
                let parsed = io::from_text(cut);
                if at <= last_line_start {
                    prop_assert!(parsed.is_err(), "cut at {}: {:?}", at, parsed);
                } else if at == text.len() - 1 {
                    prop_assert_eq!(parsed, Ok(original));
                }
            }
            1 => {
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] ^= 1 << bit;
                let flipped = String::from_utf8(bytes).expect("a low-bit flip keeps ASCII");
                if let Ok(s) = io::from_text(&flipped) {
                    prop_assert_eq!(io::from_text(&io::to_text(&s)), Ok(s));
                }
            }
            _ => {
                let drop = at % lines.len();
                let kept: String = lines
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, l)| format!("{l}\n"))
                    .collect();
                let parsed = io::from_text(&kept);
                if lines[drop].starts_with('#') {
                    prop_assert_eq!(parsed, Ok(original));
                } else {
                    prop_assert!(parsed.is_err(), "dropped line {}: {:?}", drop, parsed);
                }
            }
        }
    }
}
