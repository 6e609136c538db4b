//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records one call from this benchmark into a layer's public
//! function: its name, start and end, the span that caused it and the op
//! it belongs to. Spans stay in memory until the run ends and are written
//! once. With tracing off, [`Tracer::span`] runs the closure and records
//! nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded layer call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder shared by every worker thread of a run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// pass to its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a worker panicked while recording a span")
            .push(Span {
                id,
                name,
                start_ns: start,
                end_ns: end,
                parent,
                op,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("a worker panicked while recording a span")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Per-name aggregate: calls, total and self seconds.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut agg: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = agg.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_s();
        e.2 += selfs[&s.id] as f64 * 1e-9;
    }
    agg
}

/// JSONL: one line per span (with its self time), then one summary line
/// per span name.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.name, s.op, parent, s.start_ns, s.end_ns, selfs[&s.id]
        )
        .expect("writing to a String cannot fail");
    }
    for (name, (calls, total, self_s)) in aggregate(spans) {
        writeln!(
            out,
            "{{\"summary\":\"{name}\",\"calls\":{calls},\"total_s\":{total},\"self_s\":{self_s}}}"
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "x",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (parallel
        // branches) and 90..120 sticks out past the parent's end.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 90, 120),
        ];
        let s = self_times_ns(&spans);
        assert_eq!(s[&0], 100 - 50 - 10);
        assert_eq!(s[&1], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", None, 0, |id| id), None);
        assert!(t.spans().is_empty());
    }
}
