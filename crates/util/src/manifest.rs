//! The checkpoint manifest: a JSONL file of checksummed records, and the
//! one [`Checkpoint`] writer every checkpointed run saves it through.
//!
//! The first line is a header binding the manifest to a kind, schema
//! version and spec fingerprint; every following line is one completed
//! work unit. Each line carries an FNV-1a checksum of its own canonical
//! serialization, so corruption is detected record-by-record.
//!
//! Durability contract:
//!
//! * the whole file is rewritten through [`write_atomic`] at every
//!   checkpoint, so a reader sees either the previous manifest or the new
//!   one — never a torn intermediate;
//! * if the final line is nevertheless unparsable (e.g. the manifest was
//!   produced by a foreign appender or a dying filesystem), it is treated
//!   as a torn tail and dropped, because dropping a *suffix* only loses
//!   work, never correctness;
//! * a bad line anywhere *before* the tail, or a header missing a field,
//!   is corruption and fails the load with a typed error.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::{fnv1a64, write_atomic};

/// Version stamp of the manifest layout (header fields, record sealing).
/// A manifest stating another version is refused rather than misread.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// Why a manifest could not be loaded or saved.
#[derive(Debug, PartialEq)]
pub enum ManifestError {
    /// Filesystem failure (message includes the path).
    Io(String),
    /// A line failed to parse or checksum, or lacks a required field
    /// (1-based line number; the header is line 1).
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// What went wrong.
        why: String,
    },
    /// The manifest was written by a different schema version.
    SchemaMismatch {
        /// Version found in the header.
        found: u64,
    },
    /// The manifest belongs to a different kind of run.
    KindMismatch {
        /// Kind found in the header.
        found: String,
    },
    /// The manifest's spec fingerprint does not match the spec being
    /// resumed — its work units would not line up.
    FingerprintMismatch {
        /// Fingerprint found in the header.
        found: u64,
        /// Fingerprint of the spec being resumed.
        expected: u64,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io(m) => write!(f, "manifest i/o error: {m}"),
            ManifestError::Corrupt { line, why } => {
                write!(f, "manifest corrupt at line {line}: {why}")
            }
            ManifestError::SchemaMismatch { found } => write!(
                f,
                "manifest schema version {found} is incompatible with this binary \
                 (expects {MANIFEST_SCHEMA_VERSION}); re-run the campaign from scratch"
            ),
            ManifestError::KindMismatch { found } => {
                write!(f, "manifest belongs to a {found:?} campaign, not this one")
            }
            ManifestError::FingerprintMismatch { found, expected } => write!(
                f,
                "manifest fingerprint {found:016x} does not match the spec being \
                 resumed ({expected:016x}); the grid, seeds or sharding differ"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

/// One completed work unit.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestRecord {
    /// Record id, unique within the manifest (e.g. a shard index).
    pub id: String,
    /// Arbitrary JSON payload.
    pub payload: Value,
}

/// An in-memory manifest, persisted as checksummed JSONL.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Kind of run (header field; e.g. `"campaign"` or `"exp_all"`).
    pub kind: String,
    /// Spec fingerprint the manifest is bound to.
    pub fingerprint: u64,
    /// Extra header fields (spec parameters needed to resume).
    pub header: Value,
    /// Number of trailing unparsable lines dropped at load time.
    pub torn_tail_dropped: usize,
    records: Vec<ManifestRecord>,
    by_id: BTreeMap<String, usize>,
}

/// Serializes `fields` compactly with the checksum of that serialization
/// appended under the `"checksum"` key.
fn seal(mut fields: BTreeMap<String, Value>) -> String {
    fields.remove("checksum");
    let body = serde_json::to_string(&Value::Object(fields.clone())).expect("infallible");
    let sum = fnv1a64(body.as_bytes());
    fields.insert("checksum".into(), Value::String(format!("{sum:016x}")));
    serde_json::to_string(&Value::Object(fields)).expect("infallible")
}

/// Parses one sealed line back into its fields, verifying the checksum.
fn unseal(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let mut fields = v.as_object().ok_or("record is not an object")?.clone();
    let stated = fields
        .remove("checksum")
        .and_then(|c| c.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
        .ok_or("record has no checksum")?;
    let body = serde_json::to_string(&Value::Object(fields.clone())).expect("infallible");
    let actual = fnv1a64(body.as_bytes());
    if actual != stated {
        return Err(format!(
            "checksum mismatch: stated {stated:016x}, computed {actual:016x}"
        ));
    }
    Ok(fields)
}

/// A corrupt-header error naming the offending field.
fn bad_header(why: String) -> ManifestError {
    ManifestError::Corrupt { line: 1, why }
}

impl Manifest {
    /// An empty manifest for a fresh run.
    pub fn new(kind: impl Into<String>, fingerprint: u64, header: Value) -> Self {
        Manifest {
            kind: kind.into(),
            fingerprint,
            header,
            torn_tail_dropped: 0,
            records: Vec::new(),
            by_id: BTreeMap::new(),
        }
    }

    /// Appends (or replaces) the record for `id`.
    pub fn put(&mut self, id: impl Into<String>, payload: Value) {
        let id = id.into();
        match self.by_id.get(&id) {
            Some(&i) => self.records[i].payload = payload,
            None => {
                self.by_id.insert(id.clone(), self.records.len());
                self.records.push(ManifestRecord { id, payload });
            }
        }
    }

    /// The payload recorded for `id`, if any.
    pub fn get(&self, id: &str) -> Option<&Value> {
        self.by_id.get(id).map(|&i| &self.records[i].payload)
    }

    /// All records, in append order.
    pub fn records(&self) -> &[ManifestRecord] {
        &self.records
    }

    /// Number of completed records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no work unit has completed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The header's `spec` field `key` as an unsigned integer; a missing
    /// or mistyped field is a corrupt header, never a default.
    pub fn spec_u64(&self, key: &str) -> Result<u64, ManifestError> {
        self.spec_field(key)?
            .as_u64()
            .ok_or_else(|| bad_header(format!("header spec `{key}` is not an integer")))
    }

    /// The header's `spec` field `key` as a string; see [`Manifest::spec_u64`].
    pub fn spec_str(&self, key: &str) -> Result<&str, ManifestError> {
        self.spec_field(key)?
            .as_str()
            .ok_or_else(|| bad_header(format!("header spec `{key}` is not a string")))
    }

    fn spec_field(&self, key: &str) -> Result<&Value, ManifestError> {
        self.header
            .get(key)
            .ok_or_else(|| bad_header(format!("header spec has no `{key}`")))
    }

    /// Renders the manifest as checksummed JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut fields = BTreeMap::new();
        fields.insert("kind".into(), Value::String(self.kind.clone()));
        fields.insert(
            "schema_version".into(),
            Value::from(MANIFEST_SCHEMA_VERSION),
        );
        fields.insert(
            "fingerprint".into(),
            Value::String(format!("{:016x}", self.fingerprint)),
        );
        fields.insert("spec".into(), self.header.clone());
        let mut out = seal(fields);
        out.push('\n');
        for r in &self.records {
            let mut fields = BTreeMap::new();
            fields.insert("id".into(), Value::String(r.id.clone()));
            fields.insert("payload".into(), r.payload.clone());
            out.push_str(&seal(fields));
            out.push('\n');
        }
        out
    }

    /// Persists the manifest atomically (temp file + rename).
    fn save(&self, path: &Path) -> Result<(), ManifestError> {
        write_atomic(path, self.to_jsonl().as_bytes())
            .map_err(|e| ManifestError::Io(format!("{}: {e}", path.display())))
    }

    /// Loads and validates a manifest.
    ///
    /// `expected_kind` must match the header; `expected_fingerprint`, when
    /// given, must match too (status readers pass `None` because they have
    /// no spec to compare against).
    pub fn load(
        path: &Path,
        expected_kind: &str,
        expected_fingerprint: Option<u64>,
    ) -> Result<Manifest, ManifestError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ManifestError::Io(format!("{}: {e}", path.display())))?;
        let mut lines = text.lines().enumerate();
        let (_, header_line) = lines
            .next()
            .ok_or_else(|| bad_header("empty manifest".into()))?;
        let mut header = unseal(header_line).map_err(bad_header)?;
        let mut field = |key: &str| {
            header
                .remove(key)
                .ok_or_else(|| bad_header(format!("header has no `{key}`")))
        };
        let version = field("schema_version")?
            .as_u64()
            .ok_or_else(|| bad_header("header `schema_version` is not an integer".into()))?;
        if version != MANIFEST_SCHEMA_VERSION {
            return Err(ManifestError::SchemaMismatch { found: version });
        }
        let kind = match field("kind")? {
            Value::String(kind) => kind,
            _ => return Err(bad_header("header `kind` is not a string".into())),
        };
        if kind != expected_kind {
            return Err(ManifestError::KindMismatch { found: kind });
        }
        let fingerprint = field("fingerprint")?
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad_header("header `fingerprint` is not a hex integer".into()))?;
        if let Some(expected) = expected_fingerprint {
            if fingerprint != expected {
                return Err(ManifestError::FingerprintMismatch {
                    found: fingerprint,
                    expected,
                });
            }
        }
        let mut m = Manifest::new(kind, fingerprint, field("spec")?);
        let body: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
        for (i, (lineno, line)) in body.iter().enumerate() {
            match unseal(line) {
                Ok(mut fields) => {
                    let id = fields
                        .remove("id")
                        .and_then(|v| v.as_str().map(str::to_string));
                    let payload = fields.remove("payload");
                    match (id, payload) {
                        (Some(id), Some(payload)) => m.put(id, payload),
                        _ => {
                            return Err(ManifestError::Corrupt {
                                line: lineno + 1,
                                why: "record missing id or payload".into(),
                            })
                        }
                    }
                }
                // A bad *final* line is a torn tail: drop it, losing only
                // that unit of work. A bad interior line is corruption.
                Err(_) if i + 1 == body.len() => m.torn_tail_dropped = 1,
                Err(why) => {
                    return Err(ManifestError::Corrupt {
                        line: lineno + 1,
                        why,
                    })
                }
            }
        }
        Ok(m)
    }
}

/// What [`Checkpoint`] guards: the manifest, the saves made by this run
/// and the first save failure.
struct CheckpointState {
    manifest: Manifest,
    saved: usize,
    failure: Option<ManifestError>,
}

/// The one checkpoint writer: parallel workers hand it completed work
/// units, and it puts each into the manifest and saves the manifest
/// atomically, all under one lock.
///
/// The kill limit is a test hook standing in for a SIGKILL at a fixed
/// point: after exactly that many saves by this run the process aborts,
/// still holding the lock, so exactly that many records reach disk at any
/// thread count.
pub struct Checkpoint {
    path: Option<PathBuf>,
    kill_after: Option<usize>,
    state: Mutex<CheckpointState>,
}

impl Checkpoint {
    /// Loads the manifest at `path` (checking `kind` and `fingerprint`) if
    /// the file exists, else starts a new one with `header`. With
    /// `path = None` records are kept in memory only and never saved.
    pub fn open(
        path: Option<&Path>,
        kind: &str,
        fingerprint: u64,
        header: Value,
        kill_after: Option<usize>,
    ) -> Result<Checkpoint, ManifestError> {
        let manifest = match path.filter(|p| p.exists()) {
            Some(p) => Manifest::load(p, kind, Some(fingerprint))?,
            None => Manifest::new(kind, fingerprint, header),
        };
        Ok(Checkpoint {
            path: path.map(Path::to_path_buf),
            kill_after,
            state: Mutex::new(CheckpointState {
                manifest,
                saved: 0,
                failure: None,
            }),
        })
    }

    /// The payload recorded for `id`, if any.
    pub fn get(&self, id: &str) -> Option<Value> {
        self.lock().manifest.get(id).cloned()
    }

    /// Records a completed work unit: put, atomic save, count, and abort
    /// at the kill limit. After a failed save later records stay in memory
    /// and skip the save; [`Checkpoint::finish`] reports the failure.
    pub fn record(&self, id: impl Into<String>, payload: Value) {
        let mut state = self.lock();
        state.manifest.put(id, payload);
        let Some(path) = self.path.as_deref().filter(|_| state.failure.is_none()) else {
            return;
        };
        if let Err(e) = state.manifest.save(path) {
            state.failure = Some(e);
            return;
        }
        state.saved += 1;
        if let Some(limit) = self.kill_after.filter(|&limit| state.saved >= limit) {
            eprintln!(
                "checkpoint: kill limit {limit} reached after {} save(s) to {}; aborting",
                state.saved,
                path.display()
            );
            std::process::abort();
        }
    }

    /// The manifest with every record, or the first save failure.
    pub fn finish(self) -> Result<Manifest, ManifestError> {
        let state = self.state.into_inner().expect("checkpoint lock poisoned");
        match state.failure {
            Some(e) => Err(e),
            None => Ok(state.manifest),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CheckpointState> {
        self.state.lock().expect("checkpoint lock poisoned")
    }
}

/// Encodes an `f64` as its exact bit pattern (hex), for metric fields
/// where the merge must be bit-identical across save/load.
pub fn f64_to_bits_json(v: f64) -> Value {
    Value::String(format!("{:016x}", v.to_bits()))
}

/// Decodes a value produced by [`f64_to_bits_json`].
pub fn f64_from_bits_json(v: &Value) -> Option<f64> {
    v.as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ttdc-manifest-{}-{name}", std::process::id()))
    }

    fn sample() -> Manifest {
        let mut m = Manifest::new("campaign", 0xABCD, json!({"reps": 4}));
        m.put("s0", json!({"point": 0, "ok": true}));
        m.put("s1", json!({"point": 1, "metrics": vec![1.5f64, 2.5]}));
        m
    }

    /// `sample()` on disk with its header re-sealed after `edit`, so only
    /// the edited field — not the checksum — is wrong.
    fn with_header(name: &str, edit: impl FnOnce(&mut BTreeMap<String, Value>)) -> PathBuf {
        let text = sample().to_jsonl();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut header = unseal(&lines[0]).unwrap();
        edit(&mut header);
        lines[0] = seal(header);
        let p = tmp(name);
        std::fs::write(&p, lines.join("\n")).unwrap();
        p
    }

    #[test]
    fn round_trips_through_disk() {
        let p = tmp("roundtrip");
        let m = sample();
        m.save(&p).unwrap();
        let back = Manifest::load(&p, "campaign", Some(0xABCD)).unwrap();
        assert_eq!(back.records(), m.records());
        assert_eq!(back.fingerprint, 0xABCD);
        assert_eq!(back.header, json!({"reps": 4}));
        assert_eq!(back.torn_tail_dropped, 0);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn rejects_wrong_kind_and_fingerprint() {
        let p = tmp("mismatch");
        sample().save(&p).unwrap();
        assert!(matches!(
            Manifest::load(&p, "exp_all", None),
            Err(ManifestError::KindMismatch { .. })
        ));
        assert!(matches!(
            Manifest::load(&p, "campaign", Some(0x1234)),
            Err(ManifestError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn rejects_foreign_schema_version() {
        let text = sample().to_jsonl();
        let bumped = text.replacen("\"schema_version\":1", "\"schema_version\":99", 1);
        assert!(
            unseal(bumped.lines().next().unwrap()).is_err(),
            "tampered header must fail checksum"
        );
        let p = with_header("schema", |h| {
            h.insert("schema_version".into(), json!(99));
        });
        assert!(matches!(
            Manifest::load(&p, "campaign", None),
            Err(ManifestError::SchemaMismatch { found: 99 })
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn a_header_missing_a_field_is_corrupt_not_defaulted() {
        for key in ["schema_version", "kind", "fingerprint", "spec"] {
            let p = with_header(key, |h| {
                h.remove(key);
            });
            match Manifest::load(&p, "campaign", None) {
                Err(ManifestError::Corrupt { line: 1, why }) => {
                    assert!(why.contains(key), "{key}: {why}")
                }
                other => panic!("{key}: expected a corrupt header, got {other:?}"),
            }
            std::fs::remove_file(&p).unwrap();
        }
        let m = sample();
        assert_eq!(m.spec_u64("reps"), Ok(4));
        assert!(matches!(
            m.spec_u64("points"),
            Err(ManifestError::Corrupt { line: 1, .. })
        ));
        assert!(matches!(
            m.spec_str("reps"),
            Err(ManifestError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn drops_a_torn_tail_but_fails_on_interior_corruption() {
        let p = tmp("torn");
        let mut text = sample().to_jsonl();
        text.push_str("{\"id\":\"s2\",\"payload\":{},\"checksum\":\"dead");
        std::fs::write(&p, &text).unwrap();
        let m = Manifest::load(&p, "campaign", None).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.torn_tail_dropped, 1);

        // The same bad bytes *between* two good records are corruption.
        let good = sample().to_jsonl();
        let mut lines: Vec<&str> = good.lines().collect();
        lines.insert(2, "{\"id\":\"sX\",\"broken");
        std::fs::write(&p, lines.join("\n")).unwrap();
        assert!(matches!(
            Manifest::load(&p, "campaign", None),
            Err(ManifestError::Corrupt { line: 3, .. })
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn a_deeply_nested_line_is_corrupt_not_a_stack_overflow() {
        // The line is parsed before its checksum is checked, so the
        // parser's nesting cap is what turns it into a typed error.
        let p = tmp("deep");
        let good = sample().to_jsonl();
        let mut lines: Vec<String> = good.lines().map(str::to_string).collect();
        lines.insert(2, "[".repeat(100_000));
        std::fs::write(&p, lines.join("\n")).unwrap();
        match Manifest::load(&p, "campaign", None) {
            Err(ManifestError::Corrupt { line: 3, why }) => {
                assert!(why.contains("nesting"), "{why}")
            }
            other => panic!("expected interior corruption, got {other:?}"),
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn detects_bit_flips_via_checksum() {
        let p = tmp("bitflip");
        let text = sample().to_jsonl();
        let flipped = text.replacen("\"point\":1", "\"point\":2", 1);
        assert_ne!(text, flipped, "fixture must actually flip a record");
        std::fs::write(&p, &flipped).unwrap();
        // s1 is the last record → torn-tail policy drops it.
        let m = Manifest::load(&p, "campaign", None).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.torn_tail_dropped, 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn put_replaces_by_id() {
        let mut m = sample();
        m.put("s0", json!({"point": 9}));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("s0"), Some(&json!({"point": 9})));
    }

    #[test]
    fn checkpoint_saves_every_record_and_resumes_from_disk() {
        let p = tmp("checkpoint");
        std::fs::remove_file(&p).ok();
        let cp = Checkpoint::open(Some(&p), "campaign", 7, json!({"reps": 2}), None).unwrap();
        cp.record("s0", json!(0));
        assert_eq!(Manifest::load(&p, "campaign", Some(7)).unwrap().len(), 1);
        cp.record("s1", json!(1));
        assert_eq!(cp.finish().unwrap().len(), 2);

        // Reopening loads the saved records and ignores the new header.
        let cp = Checkpoint::open(Some(&p), "campaign", 7, json!(null), None).unwrap();
        assert_eq!(cp.get("s1"), Some(json!(1)));
        assert_eq!(cp.finish().unwrap().header, json!({"reps": 2}));
        assert!(matches!(
            Checkpoint::open(Some(&p), "campaign", 8, json!(null), None).map(|_| ()),
            Err(ManifestError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&p).unwrap();

        // Without a path nothing is written, and records stay in memory.
        let cp = Checkpoint::open(None, "campaign", 7, json!(null), Some(1)).unwrap();
        cp.record("s0", json!(0));
        assert_eq!(cp.get("s0"), Some(json!(0)));
    }

    #[test]
    fn a_failed_save_is_sticky_and_reported_by_finish() {
        // The manifest's directory is a regular file: every save fails,
        // and a failed save never counts toward the kill limit.
        let p = tmp("unwritable");
        std::fs::write(&p, "a file, not a directory").unwrap();
        let path = p.join(MANIFEST_FILE);
        let cp = Checkpoint::open(Some(&path), "campaign", 7, json!(null), Some(1)).unwrap();
        cp.record("s0", json!(0));
        cp.record("s1", json!(1));
        assert!(matches!(cp.finish(), Err(ManifestError::Io(_))));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1.0 / 3.0, f64::NAN] {
            let back = f64_from_bits_json(&f64_to_bits_json(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert_eq!(f64_from_bits_json(&json!(1.5)), None);
    }
}
