//! E18 — the synthesized best-known-schedule catalog vs the paper's
//! Figure 2 construction and the greedy set-cover baseline. Every
//! committed catalog entry goes through the catalog audit `ttdc synth
//! status` reports (file name, fingerprint, α caps, naive Requirements
//! 1/2/3, cover-free family, no longer than Figure 2) and is compared
//! against the frame length `ttdc build` would otherwise produce at the
//! same `(n, D, α_T, α_R)` point, quantifying what the branch-and-bound
//! search buys.

use std::path::{Path, PathBuf};
use ttdc_core::synth::catalog;
use ttdc_core::synth::demands::{CandidateSpace, DemandSpace};
use ttdc_core::synth::search::greedy_cover;
use ttdc_util::Table;

/// The committed catalog `ttdc build` consults, relative to the crate.
pub fn catalog_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/catalog"
    ))
}

/// Runs E18.
pub fn run() -> Vec<Table> {
    vec![catalog_table(&catalog_dir())]
}

/// E18's table over the catalog in `dir`.
fn catalog_table(dir: &Path) -> Table {
    let mut table = Table::new(
        "E18 — best-known catalog vs Figure 2 construction vs greedy cover",
        &[
            "n",
            "D",
            "a_T",
            "a_R",
            "catalog_L",
            "optimal",
            "source",
            "search_nodes",
            "figure2_L",
            "greedy_L",
            "saved_vs_figure2",
            "verified",
        ],
    );
    for (path, checked) in catalog::audit(dir) {
        let (entry, fig2, verdict) = match checked {
            Ok(checked) => checked,
            Err(err) => {
                // Surface unreadable entries as a row rather than a panic:
                // the CI catalog-validation step is the hard gate.
                let mut row = vec!["?".to_string(); 12];
                row[6] = format!("unreadable: {}: {err}", path.display());
                row[11] = "false".into();
                table.row(&row);
                continue;
            }
        };
        let p = entry.problem;
        let l = entry.schedule.frame_length();
        let space = DemandSpace::new(p.n, p.d);
        let greedy_l = greedy_cover(&space, &CandidateSpace::new(&space, p.alpha_t, p.alpha_r))
            .slots
            .len();
        table.row(&[
            p.n.to_string(),
            p.d.to_string(),
            p.alpha_t.to_string(),
            p.alpha_r.to_string(),
            l.to_string(),
            entry.exact.to_string(),
            entry.source.clone(),
            entry.nodes.to_string(),
            fig2.to_string(),
            greedy_l.to_string(),
            (fig2 as i64 - l as i64).to_string(),
            (verdict == catalog::Verdict::Ok).to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_entry_verifies_and_at_least_three_beat_figure2() {
        let t = &run()[0];
        let cols = t.columns();
        let verified = cols.iter().position(|c| c == "verified").unwrap();
        let saved = cols.iter().position(|c| c == "saved_vs_figure2").unwrap();
        let catalog_l = cols.iter().position(|c| c == "catalog_L").unwrap();
        let greedy_l = cols.iter().position(|c| c == "greedy_L").unwrap();
        assert!(
            t.rows().len() >= 3,
            "the committed catalog should hold at least three entries"
        );
        assert!(t.rows().iter().all(|r| r[verified] == "true"));
        // The catalog only admits entries that beat the Figure 2
        // construction, and the search starts from the greedy cover so it
        // can never do worse than it.
        for r in t.rows() {
            assert!(r[saved].parse::<i64>().unwrap() > 0, "{r:?}");
            assert!(
                r[catalog_l].parse::<usize>().unwrap() <= r[greedy_l].parse::<usize>().unwrap(),
                "{r:?}"
            );
        }
    }

    #[test]
    fn a_misfiled_entry_is_not_verified() {
        // Valid on its own, but filed under another point's name: the
        // catalog audit fails it, so E18 must not call it verified.
        let dir = std::env::temp_dir().join(format!("ttdc-e18-misfiled-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let name = "n005_d1_at2_ar2.sched";
        let text = std::fs::read_to_string(catalog_dir().join(name)).unwrap();
        std::fs::write(dir.join(name), &text).unwrap();
        std::fs::write(dir.join("n006_d1_at2_ar2.sched"), &text).unwrap();
        let t = catalog_table(&dir);
        let verified = t.columns().iter().position(|c| c == "verified").unwrap();
        let column: Vec<&str> = t.rows().iter().map(|r| r[verified].as_str()).collect();
        assert_eq!(column, ["true", "false"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
