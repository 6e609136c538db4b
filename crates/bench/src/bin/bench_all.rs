//! `bench_all [--smoke] [family…]`: runs the named benchmark families of
//! `ttdc_bench` (all of them by default) and writes `BENCH_<family>.json`.
//! Every name is checked before any family runs; an unknown one exits 2.

use ttdc_bench::{write_record, FAMILIES};

fn main() {
    let mut smoke = false;
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if FAMILIES.iter().any(|(name, _)| *name == arg) {
            names.push(arg);
        } else {
            eprintln!("bench_all: unknown family {arg:?}");
            let known: Vec<&str> = FAMILIES.iter().map(|(name, _)| *name).collect();
            eprintln!("usage: bench_all [--smoke] [{}]…", known.join("|"));
            std::process::exit(2);
        }
    }
    for (name, run) in FAMILIES {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        eprintln!("=== {name} ===");
        let record = run(smoke);
        if smoke {
            eprintln!("{name}: identity checks passed; record not written (smoke)");
        } else {
            let path = write_record(name, record).expect("write the family's record");
            eprintln!("{name}: wrote {}", path.display());
        }
    }
}
