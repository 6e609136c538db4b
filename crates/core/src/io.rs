//! Schedule serialization.
//!
//! A schedule is a deployment artefact: it is computed once (offline, from
//! `(n, D, α_T, α_R)`) and then flashed onto motes or shipped to a gateway.
//! This module defines a small line-oriented text format for that hand-off
//! and a strict parser for it:
//!
//! ```text
//! ttdc-schedule v1
//! n=6 L=2
//! T=0,1 R=4
//! T=2 R=3,5
//! ```
//!
//! One line per slot; node ids are comma-separated, `R=` may be empty.
//! Lines whose first non-blank character is `#` are comments and are
//! ignored anywhere in the file — the best-known-schedule catalog uses a
//! leading block of them as a provenance header (see
//! [`crate::synth::catalog`]).

use crate::schedule::Schedule;
use ttdc_util::BitSet;

/// Largest `n` [`from_text`] accepts. Every slot line allocates two
/// `n`-bit sets, so an unchecked `n` from a damaged or hostile file could
/// ask for any amount of memory.
const MAX_NODES: usize = 1 << 20;

/// Serializes a schedule into the v1 text format.
pub fn to_text(s: &Schedule) -> String {
    let mut out = String::new();
    out.push_str("ttdc-schedule v1\n");
    out.push_str(&format!("n={} L={}\n", s.num_nodes(), s.frame_length()));
    for i in 0..s.frame_length() {
        let fmt = |set: &BitSet| {
            set.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!(
            "T={} R={}\n",
            fmt(s.transmitters(i)),
            fmt(s.receivers(i))
        ));
    }
    out
}

/// A parse failure with the line it happened on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_set(field: &str, n: usize, line: usize) -> Result<BitSet, ParseError> {
    let mut set = BitSet::new(n);
    if field.is_empty() {
        return Ok(set);
    }
    for tok in field.split(',') {
        let v: usize = tok
            .parse()
            .map_err(|_| err(line, format!("bad node id {tok:?}")))?;
        if v >= n {
            return Err(err(line, format!("node id {v} ≥ n = {n}")));
        }
        if !set.insert(v) {
            return Err(err(line, format!("duplicate node id {v}")));
        }
    }
    Ok(set)
}

/// Parses the v1 text format back into a [`Schedule`]. `#`-comment lines
/// (catalog provenance headers) are skipped wherever they appear.
pub fn from_text(text: &str) -> Result<Schedule, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim_start().starts_with('#'));
    let (hidx, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    if header.trim() != "ttdc-schedule v1" {
        return Err(err(hidx + 1, format!("bad header {header:?}")));
    }
    let (midx, meta) = lines
        .next()
        .ok_or_else(|| err(hidx + 2, "missing n/L line"))?;
    let mline = midx + 1;
    let mut n = None;
    let mut l = None;
    for part in meta.split_whitespace() {
        if let Some(v) = part.strip_prefix("n=") {
            n = v.parse::<usize>().ok();
        } else if let Some(v) = part.strip_prefix("L=") {
            l = v.parse::<usize>().ok();
        } else {
            return Err(err(mline, format!("unexpected token {part:?}")));
        }
    }
    let n = n.ok_or_else(|| err(mline, "missing n="))?;
    let l = l.ok_or_else(|| err(mline, "missing L="))?;
    if n > MAX_NODES {
        return Err(err(
            mline,
            format!("n={n} exceeds the limit of {MAX_NODES}"),
        ));
    }
    if l == 0 {
        return Err(err(mline, "L must be positive"));
    }
    // Not sized by `l`: a declared length is checked against the slot
    // lines actually read, never trusted for an allocation.
    let mut t = Vec::new();
    let mut r = Vec::new();
    for (idx, line) in lines {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("T=")
            .ok_or_else(|| err(lineno, "expected T="))?;
        let (tf, rf) = rest
            .split_once(" R=")
            .ok_or_else(|| err(lineno, "expected R= field"))?;
        let tset = parse_set(tf.trim(), n, lineno)?;
        let rset = parse_set(rf.trim(), n, lineno)?;
        if !tset.is_disjoint(&rset) {
            return Err(err(lineno, "T and R overlap"));
        }
        t.push(tset);
        r.push(rset);
    }
    if t.len() != l {
        return Err(err(
            mline,
            format!("declared L={l} but found {} slot lines", t.len()),
        ));
    }
    Schedule::try_new(n, t, r).map_err(|e| err(mline, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct, PartitionStrategy};
    use crate::tsma::build_polynomial;

    #[test]
    fn round_trip_identity() {
        let s = crate::tsma::build_identity(5).schedule;
        let text = to_text(&s);
        let back = from_text(&text).unwrap();
        assert_eq!(s, back);
        assert!(text.starts_with("ttdc-schedule v1\nn=5 L=5\n"));
    }

    #[test]
    fn round_trip_constructed_schedule() {
        let ns = build_polynomial(12, 2).schedule;
        let c = construct(&ns, 2, 2, 3, PartitionStrategy::RoundRobin);
        let back = from_text(&to_text(&c.schedule)).unwrap();
        assert_eq!(c.schedule, back);
    }

    #[test]
    fn empty_receiver_sets_round_trip() {
        let t = vec![BitSet::from_iter(3, [0])];
        let r = vec![BitSet::new(3)];
        let s = Schedule::new(3, t, r);
        let back = from_text(&to_text(&s)).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn parse_errors_are_located() {
        assert_eq!(from_text("").unwrap_err().line, 1);
        assert_eq!(from_text("nope").unwrap_err().line, 1);
        assert_eq!(from_text("ttdc-schedule v1").unwrap_err().line, 2);
        assert_eq!(from_text("ttdc-schedule v1\nn=3").unwrap_err().line, 2);
        assert_eq!(from_text("ttdc-schedule v1\nn=3 L=0").unwrap_err().line, 2);
        let e = from_text("ttdc-schedule v1\nn=3 L=1\nT=0 R=9").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("≥ n"));
        let e = from_text("ttdc-schedule v1\nn=3 L=1\nT=0 R=0").unwrap_err();
        assert!(e.message.contains("overlap"));
        let e = from_text("ttdc-schedule v1\nn=3 L=1\nT=0,0 R=1").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = from_text("ttdc-schedule v1\nn=3 L=2\nT=0 R=1").unwrap_err();
        assert!(e.message.contains("found 1 slot lines"));
        let e = from_text("ttdc-schedule v1\nn=3 L=1\nT=x R=1").unwrap_err();
        assert!(e.message.contains("bad node id"));
        let e = from_text("ttdc-schedule v1\nn=3 L=1\nR=1").unwrap_err();
        assert!(e.message.contains("expected T="));
        let e = from_text("ttdc-schedule v1\nn=3 L=99999999999999999\nT=0 R=1").unwrap_err();
        assert!(e.message.contains("found 1 slot lines"));
        let e = from_text("ttdc-schedule v1\nn=18446744073709551615 L=1\nT=0 R=1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("exceeds the limit"));
        let e = from_text("ttdc-schedule v1\nn=3 bogus=1").unwrap_err();
        assert!(e.message.contains("unexpected token"));
        assert_eq!(format!("{e}"), format!("line 2: {}", e.message));
    }

    #[test]
    fn blank_lines_tolerated() {
        let s = from_text("ttdc-schedule v1\nn=2 L=1\n\nT=0 R=1\n\n").unwrap();
        assert_eq!(s.frame_length(), 1);
    }

    #[test]
    fn comment_lines_ignored_everywhere() {
        let s = from_text(
            "# catalog provenance\n# n=2 D=1\nttdc-schedule v1\nn=2 L=1\n# mid\nT=0 R=1\n# end\n",
        )
        .unwrap();
        assert_eq!(s.frame_length(), 1);
        // Errors still point at the true line numbers with comments present.
        let e = from_text("# one\nttdc-schedule v1\nn=3 L=1\nT=0 R=9").unwrap_err();
        assert_eq!(e.line, 4);
        let e = from_text("# one\n# two\nbad header").unwrap_err();
        assert_eq!(e.line, 3);
    }
}
