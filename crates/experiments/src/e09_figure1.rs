//! E9 — Figure 1: a fixed topology on which scheduling nodes to sleep
//! preserves the throughput of the non-sleeping schedule.
//!
//! The paper's figure (an image giving concrete `T`/`R` arrays) is not in
//! our source text, so per the reproduction's substitution rule we build a
//! concrete instance with the same stated property: three radio-disjoint
//! links `{0,1}, {2,3}, {4,5}`, a 6-slot non-sleeping schedule `⟨T⟩` in
//! which each node transmits once, and a duty-cycled `⟨T,R⟩` in which only
//! the actual peer listens while everyone else sleeps. On this topology
//! both schedules guarantee exactly one success per frame on every
//! directed link; the duty-cycled one does it at 1/3 of the duty cycle.
//! (Theorem 2 says this cannot hold over all of `N_n^D` — the class-average
//! throughput does drop, which the last table shows.)

use ttdc_core::throughput::{average_throughput, topology_link_throughput};
use ttdc_core::Schedule;
use ttdc_sim::{ScheduleMac, SimulatorBuilder, Topology, TrafficPattern};
use ttdc_util::{table::fmt_f, BitSet, Table};

/// The Figure-1 instance: `(topology, non_sleeping ⟨T⟩, duty_cycled ⟨T,R⟩)`.
pub fn figure1_instance() -> (Topology, Schedule, Schedule) {
    let n = 6;
    let mut topo = Topology::empty(n);
    topo.add_edge(0, 1);
    topo.add_edge(2, 3);
    topo.add_edge(4, 5);
    // One transmitter per slot, every node once per frame.
    let order = [0usize, 2, 4, 1, 3, 5];
    let t: Vec<BitSet> = order.iter().map(|&x| BitSet::from_iter(n, [x])).collect();
    let non_sleeping = Schedule::non_sleeping(n, t.clone());
    // Duty-cycled: only the transmitter's peer listens.
    let peer = [1usize, 0, 3, 2, 5, 4];
    let r: Vec<BitSet> = order
        .iter()
        .map(|&x| BitSet::from_iter(n, [peer[x]]))
        .collect();
    let duty_cycled = Schedule::new(n, t, r);
    (topo, non_sleeping, duty_cycled)
}

/// Runs E9.
pub fn run() -> Vec<Table> {
    let (topo, ns, dc) = figure1_instance();
    let frames = 200u64;
    let l = ns.frame_length() as u64;

    let mut per_link = Table::new(
        "E9a — Figure 1: per-link guaranteed successes per frame (analytic and simulated)",
        &["link", "analytic<T>", "analytic<T,R>", "sim<T>", "sim<T,R>"],
    );
    let links_ns = topology_link_throughput(&ns, topo.adjacency());
    let links_dc = topology_link_throughput(&dc, topo.adjacency());

    let simulate = |s: &Schedule| {
        let mac = ScheduleMac::new("fig1", s.clone());
        let mut sim = SimulatorBuilder::new(topo.clone(), TrafficPattern::SaturatedBroadcast)
            .build()
            .expect("valid configuration");
        sim.run(&mac, frames * l);
        sim.report()
    };
    let rep_ns = simulate(&ns);
    let rep_dc = simulate(&dc);

    for ((x, y, a_ns), (_, _, a_dc)) in links_ns.iter().zip(&links_dc) {
        per_link.row(&[
            format!("{x}->{y}"),
            a_ns.to_string(),
            a_dc.to_string(),
            format!(
                "{:.2}",
                *rep_ns.link_success.get(&(*x, *y)).unwrap_or(&0) as f64 / frames as f64
            ),
            format!(
                "{:.2}",
                *rep_dc.link_success.get(&(*x, *y)).unwrap_or(&0) as f64 / frames as f64
            ),
        ]);
    }

    let mut summary = Table::new(
        "E9b — Figure 1: same fixed-topology throughput, a third of the energy",
        &[
            "schedule",
            "duty_cycle",
            "sim_energy_mJ/node",
            "fixed_topo_thr/frame",
            "class_avg_thr (Thm 2, D=1)",
        ],
    );
    for (name, s, rep) in [
        ("<T> non-sleeping", &ns, &rep_ns),
        ("<T,R> duty-cycled", &dc, &rep_dc),
    ] {
        let total: usize = topology_link_throughput(s, topo.adjacency())
            .iter()
            .map(|&(_, _, c)| c)
            .sum();
        summary.row(&[
            name.to_string(),
            format!("{:.3}", s.average_duty_cycle()),
            format!("{:.2}", rep.energy.mean_mj()),
            total.to_string(),
            fmt_f(average_throughput(s, 1)),
        ]);
    }
    vec![per_link, summary]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttdc_core::requirements::satisfies_requirement3;

    #[test]
    fn both_schedules_equal_on_the_fixed_topology() {
        let (topo, ns, dc) = figure1_instance();
        let a = topology_link_throughput(&ns, topo.adjacency());
        let b = topology_link_throughput(&dc, topo.adjacency());
        assert_eq!(a, b, "Figure 1's whole point");
        assert!(a.iter().all(|&(_, _, c)| c == 1));
        // The duty-cycled schedule sleeps two thirds of the time.
        assert!((dc.average_duty_cycle() - 2.0 / 6.0).abs() < 1e-12);
        assert!((ns.average_duty_cycle() - 1.0).abs() < 1e-12);
        // But over the whole class N_6^1 it is NOT equivalent (Theorem 2):
        // e.g. it is not even topology-transparent for arbitrary pairings.
        assert!(satisfies_requirement3(&ns, 1));
        assert!(!satisfies_requirement3(&dc, 1));
    }

    #[test]
    fn simulation_agrees_with_analysis() {
        let tables = run();
        let t = &tables[0];
        assert_eq!(t.len(), 6, "six directed links");
        let cols = t.columns();
        let a_ns = cols.iter().position(|c| c == "analytic<T>").unwrap();
        let s_ns = cols.iter().position(|c| c == "sim<T>").unwrap();
        let a_dc = cols.iter().position(|c| c == "analytic<T,R>").unwrap();
        let s_dc = cols.iter().position(|c| c == "sim<T,R>").unwrap();
        for row in t.rows() {
            for (a, s) in [(a_ns, s_ns), (a_dc, s_dc)] {
                let analytic: f64 = row[a].parse().unwrap();
                let simulated: f64 = row[s].parse().unwrap();
                assert!(
                    (analytic - simulated).abs() < 1e-9,
                    "saturated sim must match analysis exactly: {row:?}"
                );
            }
        }
        // Energy: duty-cycled uses far less.
        let summary = &tables[1];
        let e_col = summary
            .columns()
            .iter()
            .position(|c| c == "sim_energy_mJ/node")
            .unwrap();
        let e_ns: f64 = summary.rows()[0][e_col].parse().unwrap();
        let e_dc: f64 = summary.rows()[1][e_col].parse().unwrap();
        assert!(e_dc < e_ns * 0.5, "{e_dc} vs {e_ns}");
    }
}
