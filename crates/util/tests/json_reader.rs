//! The vendored `serde_json` parser reads manifest lines from disk, so it
//! is an untrusted-input reader: whatever bytes a serialized value turns
//! into — cut short, bit-flipped, a line of its pretty form dropped, or
//! nested far too deep — `from_str` answers with a value or a typed
//! `ParseError`, never a panic or a stack overflow. And whatever the
//! writers print, the parser reads back as the same value.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{from_str, to_string, to_string_pretty, Value};
use std::collections::BTreeMap;

/// Characters the escaper treats specially, plus multi-byte UTF-8.
const SPECIAL: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', '€', '𝄞',
];

fn random_string(rng: &mut SmallRng) -> String {
    (0..rng.gen_range(0usize..8))
        .map(|_| {
            if rng.gen_bool(0.3) {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                char::from(rng.gen_range(0x20u8..0x7f))
            }
        })
        .collect()
}

/// A finite number (JSON has no NaN or ∞): small and huge integers,
/// fractions, and magnitudes far from 1.
fn random_number(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0u32..4) {
        0 => rng.gen_range(-1000i64..1000) as f64,
        1 => rng.gen_range(-1e6..1e6),
        2 => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-300i32..300)),
        _ => (rng.gen_range(0u64..1 << 53) as f64) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
    }
}

/// A random value at most `depth` containers deep.
fn random_value(rng: &mut SmallRng, depth: u32) -> Value {
    let kinds: u32 = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Number(random_number(rng)),
        3 => Value::String(random_string(rng)),
        4 => Value::Array(
            (0..rng.gen_range(0usize..4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(random_object(rng, depth - 1)),
    }
}

fn random_object(rng: &mut SmallRng, depth: u32) -> BTreeMap<String, Value> {
    (0..rng.gen_range(0usize..4))
        .map(|_| (random_string(rng), random_value(rng, depth)))
        .collect()
}

/// A random object document, the shape of a manifest line.
fn arb_document() -> impl Strategy<Value = Value> {
    (any::<u64>(), 0u32..5).prop_map(|(seed, depth)| {
        Value::Object(random_object(&mut SmallRng::seed_from_u64(seed), depth))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compact and pretty output both parse back to the value written.
    #[test]
    fn written_values_read_back(doc in arb_document()) {
        prop_assert_eq!(from_str(&to_string(&doc).unwrap()).unwrap(), doc.clone());
        prop_assert_eq!(from_str(&to_string_pretty(&doc).unwrap()).unwrap(), doc);
    }

    /// `kind` 0 cuts the compact text at byte `at`, 1 flips bit `bit` of
    /// byte `at`, 2 drops line `at` of the pretty text. A cut object is
    /// always an error; flips and drops must at least return.
    #[test]
    fn damaged_text_parses_or_fails_without_panicking(
        doc in arb_document(),
        kind in 0u8..3,
        at in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let compact = to_string(&doc).unwrap();
        match kind {
            0 => {
                let cut = String::from_utf8_lossy(&compact.as_bytes()[..at % compact.len()]);
                prop_assert!(from_str(&cut).is_err(), "prefix {:?} parsed", cut);
            }
            1 => {
                let mut bytes = compact.into_bytes();
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
                let _ = from_str(&String::from_utf8_lossy(&bytes));
            }
            _ => {
                let pretty = to_string_pretty(&doc).unwrap();
                let lines: Vec<&str> = pretty.lines().collect();
                let drop = at % lines.len();
                let kept: Vec<&str> = lines
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, l)| *l)
                    .collect();
                let _ = from_str(&kept.join("\n"));
            }
        }
    }

    /// Nesting is capped at 128 levels: deeper arrays or objects are a
    /// `ParseError`, however deep, and a well-formed value within the cap
    /// still parses.
    #[test]
    fn nesting_depth_is_capped(
        depth in prop_oneof![0usize..=128, 129usize..100_000],
        objects in any::<bool>(),
    ) {
        let (open, close) = if objects { ("{\"k\":", "}") } else { ("[", "]") };
        let text = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        let parsed = from_str(&text);
        if depth <= 128 {
            prop_assert!(parsed.is_ok(), "depth {} rejected: {:?}", depth, parsed);
        } else {
            prop_assert!(parsed.unwrap_err().message.contains("nesting"));
        }
    }
}
