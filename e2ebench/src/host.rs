//! Host facts, process counters, digests and the run's scratch files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Scratch directory for checkpoints, traces and determinism records,
/// relative to the working directory the benchmark runs in.
pub const WORK_DIR: &str = ".bench_work";

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout);
    s.lines().next().map(|l| l.trim().to_string())
}

/// `rustc -V`, or `unknown`.
pub fn rustc_version() -> String {
    command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD` when the working directory is the top of a git
/// checkout, else `unknown` (the binary digest then identifies the
/// program). A repository enclosing the directory does not count.
pub fn git_revision() -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]).map(PathBuf::from);
    let here = std::env::current_dir().ok();
    match (top, here) {
        (Some(t), Some(h)) if t.canonicalize().ok() == h.canonicalize().ok() => {
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

/// FNV-1a over bytes: a stable 64-bit digest (not a security hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of this executable: identifies the program a run measured.
pub fn binary_digest() -> String {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or_else(|_| "unknown".into(), |b| format!("{:016x}", fnv1a(&b)))
}

/// SplitMix64 finaliser: derives independent input streams from the
/// workload seed.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A field of `/proc/self/status` in kB.
fn status_kb(field: &str) -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process, in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (USER_HZ,
    // 100 on Linux). The command name (field 2) may hold spaces, so
    // count from the closing parenthesis.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Creates (if needed) and returns `WORK_DIR/<sub>`.
pub fn work_path(sub: &str) -> std::io::Result<PathBuf> {
    let p = Path::new(WORK_DIR).join(sub);
    std::fs::create_dir_all(&p)?;
    Ok(p)
}

/// Compares this run's op digests with those an earlier run of the same
/// program, workload, size and seed stored, then merges and stores them.
/// Returns the keys whose digests differ.
pub fn check_determinism(record: &str, digests: &BTreeMap<String, u64>) -> Vec<String> {
    let dir = match work_path(&format!("determinism/{}", binary_digest())) {
        Ok(d) => d,
        Err(e) => return vec![format!("cannot create the determinism store: {e}")],
    };
    let path = dir.join(format!("{record}.txt"));
    let mut stored: BTreeMap<String, u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), u64::from_str_radix(v, 16).ok()?))
        })
        .collect();
    let mismatched: Vec<String> = digests
        .iter()
        .filter(|(k, v)| stored.get(*k).is_some_and(|s| s != *v))
        .map(|(k, _)| k.clone())
        .collect();
    stored.extend(digests.iter().map(|(k, v)| (k.clone(), *v)));
    let text: String = stored
        .iter()
        .map(|(k, v)| format!("{k} {v:016x}\n"))
        .collect();
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    if std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .is_err()
    {
        let _ = std::fs::remove_file(&tmp);
    }
    mismatched
}
