//! E1 — Theorem 1: Requirements 2 and 3 are equivalent.
//!
//! Sweeps a zoo of schedules — transparent and not, sleeping and not — and
//! reports both verdicts side by side. The `agree` column must read `yes`
//! on every row for the reproduction to stand.

use ttdc_core::construct::{construct, PartitionStrategy};
use ttdc_core::requirements::{
    satisfies_requirement1, satisfies_requirement2, satisfies_requirement3,
};
use ttdc_core::tsma::{build_identity, build_polynomial, build_steiner};
use ttdc_core::Schedule;
use ttdc_util::{splitmix64, BitSet, Table};

fn random_schedule(n: usize, l: usize, seed: u64) -> Schedule {
    // Deterministic splitmix-driven random ⟨T,R⟩.
    let mut state = seed;
    let mut next = move || splitmix64(&mut state);
    let mut t = Vec::new();
    let mut r = Vec::new();
    for _ in 0..l {
        let tm = next() as usize % ((1 << n) - 1) + 1;
        let rm = next() as usize;
        t.push(BitSet::from_iter(n, (0..n).filter(|&i| tm >> i & 1 == 1)));
        r.push(BitSet::from_iter(
            n,
            (0..n).filter(|&i| rm >> i & 1 == 1 && tm >> i & 1 == 0),
        ));
    }
    Schedule::new(n, t, r)
}

/// Runs E1.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E1 — Theorem 1: Requirement 2 ⟺ Requirement 3",
        &["schedule", "n", "L", "D", "req1", "req2", "req3", "agree"],
    );
    let mut cases: Vec<(String, Schedule, usize)> = Vec::new();

    for d in 2..=3usize {
        let ns = build_polynomial(9, d);
        cases.push(("poly(n=9)".to_string(), ns.schedule, d));
    }
    // The q=3 family is transparent for D ≤ 2 only — D=3 rows must show
    // both requirements failing together.
    let gf = ttdc_combinatorics::Gf::new(3).unwrap();
    let tight = Schedule::from_cff(&ttdc_combinatorics::CoverFreeFamily::from_polynomials(
        &gf, 1, 9,
    ));
    cases.push(("poly(q=3,full)".into(), tight.clone(), 2));
    cases.push(("poly(q=3,full)".into(), tight, 3));

    cases.push(("identity(n=7)".into(), build_identity(7).schedule, 3));
    cases.push((
        "steiner(n=10)".into(),
        build_steiner(10).unwrap().schedule,
        2,
    ));

    let ns = build_polynomial(12, 2);
    let c = construct(&ns.schedule, 2, 2, 3, PartitionStrategy::RoundRobin);
    cases.push(("constructed(12,2,2,3)".into(), c.schedule, 2));

    for seed in 0..6u64 {
        let s = random_schedule(6, 4, seed);
        cases.push((format!("random(seed={seed})"), s, 2));
    }

    // Extended (n, D) sweep unlocked by the incremental verifier engine:
    // paper-scale polynomial families the from-scratch scan made slow.
    for (n, d) in [(16usize, 3usize), (25, 2), (25, 4), (36, 2)] {
        let ns = build_polynomial(n, d);
        cases.push((format!("poly(n={n})"), ns.schedule, d));
    }

    for (name, s, d) in &cases {
        let r1 = satisfies_requirement1(s, *d);
        let r2 = satisfies_requirement2(s, *d);
        let r3 = satisfies_requirement3(s, *d);
        table.row(&[
            name.clone(),
            s.num_nodes().to_string(),
            s.frame_length().to_string(),
            d.to_string(),
            r1.to_string(),
            r2.to_string(),
            r3.to_string(),
            if r2 == r3 {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_agrees_and_outcomes_vary() {
        let tables = run();
        let t = &tables[0];
        assert!(t.len() >= 10);
        let agree_col = t.columns().iter().position(|c| c == "agree").unwrap();
        let req3_col = t.columns().iter().position(|c| c == "req3").unwrap();
        assert!(t.rows().iter().all(|r| r[agree_col] == "yes"));
        // The sweep must contain both transparent and non-transparent rows,
        // otherwise the equivalence check is vacuous.
        assert!(t.rows().iter().any(|r| r[req3_col] == "true"));
        assert!(t.rows().iter().any(|r| r[req3_col] == "false"));
    }
}
