//! Result persistence: aligned text to stdout, text/CSV/JSON to `results/`.

use std::path::{Path, PathBuf};
use ttdc_util::{write_atomic, Table};

/// Where experiment output lands (override with `TTDC_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("TTDC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes all tables of one experiment under `dir/<id>.{txt,csv,json}`.
///
/// Each file lands via [`write_atomic`], so a crash mid-write never leaves
/// a torn result file — at worst the previous complete version survives.
pub fn write_tables(dir: &Path, id: &str, tables: &[Table]) -> std::io::Result<()> {
    let txt: String = tables
        .iter()
        .map(Table::to_text)
        .collect::<Vec<_>>()
        .join("\n");
    write_atomic(&dir.join(format!("{id}.txt")), txt.as_bytes())?;
    let csv: String = tables
        .iter()
        .map(|t| format!("# {}\n{}", t.title(), t.to_csv()))
        .collect::<Vec<_>>()
        .join("\n");
    write_atomic(&dir.join(format!("{id}.csv")), csv.as_bytes())?;
    let json = serde_json::to_string_pretty(
        &tables
            .iter()
            .map(|t| {
                serde_json::json!({
                    "title": t.title(),
                    "columns": t.columns(),
                    "rows": t.rows(),
                })
            })
            .collect::<Vec<_>>(),
    )
    .expect("tables are plain strings");
    write_atomic(&dir.join(format!("{id}.json")), json.as_bytes())?;
    Ok(())
}

/// Prints `tables` and persists them under [`results_dir`]. `exp_all`
/// computes many experiments' tables in parallel and then emits each
/// through this in registry order.
pub fn print_and_write(id: &str, tables: &[Table]) {
    for t in tables {
        println!("{t}");
    }
    let dir = results_dir();
    match write_tables(&dir, id, tables) {
        Ok(()) => println!(
            "[{id}] wrote {} table(s) to {}",
            tables.len(),
            dir.display()
        ),
        Err(e) => eprintln!("[{id}] could not write results: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_all_three_formats() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[1, 2]);
        let dir = std::env::temp_dir().join(format!("ttdc-out-{}", std::process::id()));
        write_tables(&dir, "unit", &[t]).unwrap();
        for ext in ["txt", "csv", "json"] {
            let p = dir.join(format!("unit.{ext}"));
            assert!(p.exists(), "{p:?}");
            assert!(!std::fs::read_to_string(&p).unwrap().is_empty());
        }
        // No temp files may linger after a successful write.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
