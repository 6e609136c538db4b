//! Runs every experiment in the registry, writing `results/<id>.{txt,csv,json}`.
//!
//! The experiments are independent, so their *compute* phase fans out over
//! the rayon pool (one task per experiment, on top of each experiment's own
//! inner parallelism); printing and persistence then happen sequentially in
//! registry order, so stdout and `results/` are byte-identical regardless
//! of `RAYON_NUM_THREADS`.
//!
//! An experiment name that selects no registry id is an error (exit 2), so
//! a typo in a list of names cannot pass as an empty run.
//!
//! `--checkpoint DIR` makes the sweep crash-resilient: each experiment's
//! tables are sealed into `DIR/exp_all.jsonl` (the checksummed manifest of
//! `ttdc_util::manifest`, which the campaign runner saves through too) as
//! soon as they are computed,
//! and a rerun replays completed experiments from the manifest instead of
//! recomputing them. Combined with `TTDC_CAMPAIGN_DIR` (which checkpoints
//! *within* the E10/E12/E17 sweeps) a SIGKILL at any instant costs at most
//! one in-flight shard of work.

use rayon::prelude::*;
use serde_json::{json, Value};
use std::path::PathBuf;
use ttdc_util::{fnv1a64, Checkpoint, Table};

const MANIFEST_FILE: &str = "exp_all.jsonl";
const KIND: &str = "exp_all";

fn tables_to_json(tables: &[Table]) -> Value {
    Value::Array(
        tables
            .iter()
            .map(|t| {
                json!({
                    "title": t.title(),
                    "columns": t.columns(),
                    "rows": t.rows(),
                })
            })
            .collect(),
    )
}

fn tables_from_json(v: &Value) -> Option<Vec<Table>> {
    let strings = |v: &Value| -> Option<Vec<String>> {
        v.as_array()?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect()
    };
    v.as_array()?
        .iter()
        .map(|t| {
            let columns = strings(t.get("columns")?)?;
            let mut table = Table::new(
                t.get("title")?.as_str()?,
                &columns.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            for row in t.get("rows")?.as_array()? {
                table.push_row(strings(row)?);
            }
            Some(table)
        })
        .collect()
}

fn main() {
    let mut checkpoint: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--checkpoint" {
            let dir = args.next().unwrap_or_else(|| {
                eprintln!("--checkpoint needs a directory");
                std::process::exit(2);
            });
            checkpoint = Some(PathBuf::from(dir));
        } else {
            only.push(a);
        }
    }
    let registry = ttdc_experiments::registry();
    let unmatched: Vec<&str> = only
        .iter()
        .map(String::as_str)
        .filter(|o| !registry.iter().any(|(id, _)| id.contains(o)))
        .collect();
    if !unmatched.is_empty() {
        let ids: Vec<&str> = registry.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "error: no experiment matches {}; the ids are {}",
            unmatched.join(", "),
            ids.join(", ")
        );
        std::process::exit(2);
    }
    let selected: Vec<(&'static str, ttdc_experiments::Runner)> = registry
        .into_iter()
        .filter(|(id, _)| only.is_empty() || only.iter().any(|o| id.contains(o.as_str())))
        .collect();

    // The manifest fingerprint covers the selection, so `exp_all e10`
    // and a full `exp_all` never share (and never clobber) checkpoints.
    let ids: Vec<&str> = selected.iter().map(|(id, _)| *id).collect();
    let fingerprint = fnv1a64(ids.join("|").as_bytes());
    let checkpoint = checkpoint.map(|dir| {
        let path = dir.join(MANIFEST_FILE);
        let header = json!({ "ids": Value::Array(ids.iter().map(|&i| json!(i)).collect()) });
        let cp = Checkpoint::open(Some(&path), KIND, fingerprint, header, None)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        let done = ids.iter().filter(|id| cp.get(id).is_some()).count();
        if done > 0 {
            eprintln!(
                "=== resuming from {}: {done} of {} experiment(s) already done ===",
                path.display(),
                ids.len()
            );
        }
        cp
    });

    eprintln!(
        "=== running {} experiment(s) on {} thread(s) ===",
        selected.len(),
        rayon::current_num_threads()
    );
    let start = std::time::Instant::now();
    let computed: Vec<(&'static str, Vec<Table>)> = selected
        .into_par_iter()
        .map(|(id, runner)| {
            if let Some(payload) = checkpoint.as_ref().and_then(|cp| cp.get(id)) {
                let tables = tables_from_json(&payload).unwrap_or_else(|| {
                    fail(&format!(
                        "checkpoint record {id:?} does not decode as tables"
                    ))
                });
                eprintln!("=== {id} replayed from checkpoint ===");
                return (id, tables);
            }
            let t0 = std::time::Instant::now();
            let tables = runner();
            eprintln!(
                "=== {id} computed in {:.1}s ===",
                t0.elapsed().as_secs_f64()
            );
            if let Some(cp) = &checkpoint {
                cp.record(id, tables_to_json(&tables));
            }
            (id, tables)
        })
        .collect();
    if let Some(Err(e)) = checkpoint.map(Checkpoint::finish) {
        fail(&format!("could not checkpoint: {e}"));
    }
    for (id, tables) in &computed {
        ttdc_experiments::print_and_write(id, tables);
    }
    eprintln!("=== all done in {:.1}s ===", start.elapsed().as_secs_f64());
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}
