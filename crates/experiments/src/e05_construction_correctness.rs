//! E5 — Figure 2 / Theorem 6: the constructed `(α_T, α_R)`-schedules are
//! topology-transparent across a `(n, D, α_T, α_R, strategy)` grid, with
//! the budget respected in every slot and the duty cycle bounded by
//! `(α_T + α_R)/n`.

use ttdc_core::construct::{construct, PartitionStrategy};
use ttdc_core::requirements::is_topology_transparent;
use ttdc_core::tsma::{build_polynomial, build_steiner};
use ttdc_util::Table;

/// Runs E5.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E5 — Theorem 6: constructed schedules are topology-transparent (α_T, α_R)-schedules",
        &[
            "source",
            "n",
            "D",
            "a_T",
            "a_R",
            "strategy",
            "L",
            "L_bar",
            "alpha_ok",
            "transparent",
            "duty",
            "duty_bound",
        ],
    );
    let strategies = [
        ("contig", PartitionStrategy::Contiguous),
        ("roundrobin", PartitionStrategy::RoundRobin),
        ("random", PartitionStrategy::Randomized { seed: 11 }),
    ];
    let mut cases: Vec<(String, ttdc_core::Schedule, usize)> = Vec::new();
    for (n, d) in [(12usize, 2usize), (20, 2), (16, 3), (25, 4)] {
        cases.push(("poly".to_string(), build_polynomial(n, d).schedule, d));
    }
    cases.push(("steiner".into(), build_steiner(15).unwrap().schedule, 2));

    for (src, ns, d) in &cases {
        let n = ns.num_nodes();
        for (at, ar) in [(1usize, 2usize), (2, 4), (3, 6)] {
            if at + ar > n {
                continue;
            }
            for (sname, strat) in strategies {
                let c = construct(ns, *d, at, ar, strat);
                let duty = c.schedule.average_duty_cycle();
                let bound = (at + ar) as f64 / n as f64;
                table.row(&[
                    src.clone(),
                    n.to_string(),
                    d.to_string(),
                    at.to_string(),
                    ar.to_string(),
                    sname.to_string(),
                    ns.frame_length().to_string(),
                    c.schedule.frame_length().to_string(),
                    c.schedule.is_alpha_schedule(at, ar).to_string(),
                    is_topology_transparent(&c.schedule, *d).to_string(),
                    format!("{duty:.4}"),
                    format!("{bound:.4}"),
                ]);
            }
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_transparent_and_within_budget() {
        let t = &run()[0];
        assert!(t.len() >= 30, "grid should be substantial: {}", t.len());
        let cols = t.columns();
        let alpha_ok = cols.iter().position(|c| c == "alpha_ok").unwrap();
        let transparent = cols.iter().position(|c| c == "transparent").unwrap();
        let duty = cols.iter().position(|c| c == "duty").unwrap();
        let bound = cols.iter().position(|c| c == "duty_bound").unwrap();
        for row in t.rows() {
            assert_eq!(row[alpha_ok], "true", "{row:?}");
            assert_eq!(row[transparent], "true", "{row:?}");
            let d: f64 = row[duty].parse().unwrap();
            let b: f64 = row[bound].parse().unwrap();
            assert!(d <= b + 1e-9, "{row:?}");
        }
    }
}
