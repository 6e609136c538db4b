//! Topology-*dependent* TDMA via greedy distance-2 colouring.
//!
//! The foil for topology transparency: given the actual topology, colour
//! nodes so that no two nodes within two hops share a colour (the classic
//! broadcast-scheduling constraint that eliminates both direct and
//! hidden-terminal collisions). Node `v` transmits in slot `color(v)` of
//! each frame and listens in its neighbours' colour slots. On the topology
//! it was computed for it is collision-free and energy-frugal; after churn
//! or mobility it silently loses both guarantees, which is what experiment
//! E12 demonstrates.

use ttdc_sim::{MacProtocol, Topology};
use ttdc_util::BitSet;

/// A distance-2 colouring TDMA schedule bound to a specific topology.
pub struct ColoringTdmaMac {
    colors: Vec<usize>,
    num_colors: usize,
    /// `tx_by_color[c]`: the nodes of colour `c` (universe `n`).
    tx_by_color: Vec<BitSet>,
    /// `rx_by_color[c]`: the nodes that listen in colour slot `c` — those
    /// of another colour with a neighbour of colour `c` (universe `n`).
    rx_by_color: Vec<BitSet>,
}

impl ColoringTdmaMac {
    /// Colours `topo` greedily in distance-2 order and derives listen sets.
    pub fn new(topo: &Topology) -> ColoringTdmaMac {
        let n = topo.num_nodes();
        let mut colors = vec![usize::MAX; n];
        for v in 0..n {
            // Colours used within two hops of v.
            let mut used = vec![false; n + 1];
            for w in topo.neighbors(v) {
                if colors[w] != usize::MAX {
                    used[colors[w]] = true;
                }
                for u in topo.neighbors(w) {
                    if u != v && colors[u] != usize::MAX {
                        used[colors[u]] = true;
                    }
                }
            }
            colors[v] = (0..).find(|&c| !used[c]).unwrap();
        }
        let num_colors = colors.iter().copied().max().unwrap_or(0) + 1;
        let mut tx_by_color = vec![BitSet::new(n); num_colors];
        let mut rx_by_color = vec![BitSet::new(n); num_colors];
        for v in 0..n {
            tx_by_color[colors[v]].insert(v);
            for w in topo.neighbors(v) {
                if colors[w] != colors[v] {
                    rx_by_color[colors[w]].insert(v);
                }
            }
        }
        ColoringTdmaMac {
            colors,
            num_colors,
            tx_by_color,
            rx_by_color,
        }
    }

    /// The colour (transmit slot) of `node`.
    pub fn color(&self, node: usize) -> usize {
        self.colors[node]
    }

    /// The frame length (number of colours used).
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }
}

impl MacProtocol for ColoringTdmaMac {
    fn name(&self) -> &str {
        "coloring-tdma"
    }

    fn frame_length(&self) -> usize {
        self.num_colors
    }

    fn frame_periodic(&self) -> bool {
        true // both answers reduce the slot mod num_colors first
    }

    fn may_transmit(&self, node: usize, slot: u64) -> bool {
        (slot % self.num_colors as u64) as usize == self.colors[node]
    }

    fn may_receive(&self, node: usize, slot: u64) -> bool {
        let c = (slot % self.num_colors as u64) as usize;
        self.rx_by_color[c].contains(node)
    }

    /// Copies the per-colour masks, cut to the first `n` nodes.
    fn frame_slot_masks(&self, _n: usize, i: usize, tx: &mut BitSet, rx: &mut BitSet) {
        tx.copy_truncated(&self.tx_by_color[i]);
        rx.copy_truncated(&self.rx_by_color[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coloring_is_distance_2_proper() {
        let topo = Topology::grid(4, 4);
        let mac = ColoringTdmaMac::new(&topo);
        for v in 0..16 {
            for w in topo.neighbors(v) {
                assert_ne!(mac.color(v), mac.color(w), "adjacent {v},{w}");
                for u in topo.neighbors(w) {
                    if u != v {
                        assert_ne!(mac.color(v), mac.color(u), "2-hop {v},{u}");
                    }
                }
            }
        }
    }

    #[test]
    fn nodes_listen_exactly_when_a_neighbor_transmits() {
        let topo = Topology::ring(6);
        let mac = ColoringTdmaMac::new(&topo);
        for v in 0..6 {
            for slot in 0..mac.frame_length() as u64 {
                let c = slot as usize % mac.num_colors();
                let neighbor_transmitting = topo.neighbors(v).iter().any(|w| mac.color(w) == c);
                assert_eq!(
                    mac.may_receive(v, slot),
                    c != mac.color(v) && neighbor_transmitting,
                    "v={v} slot={slot}"
                );
            }
        }
    }

    #[test]
    fn collision_free_on_its_own_topology() {
        // If v listens in slot c, exactly one of its neighbours has colour
        // c (distance-2 properness).
        let topo = Topology::grid(5, 3);
        let mac = ColoringTdmaMac::new(&topo);
        for v in 0..15 {
            for c in 0..mac.num_colors() {
                let txn = topo
                    .neighbors(v)
                    .iter()
                    .filter(|&w| mac.color(w) == c)
                    .count();
                assert!(txn <= 1, "v={v} c={c}: {txn} simultaneous neighbours");
            }
        }
    }

    #[test]
    fn star_needs_hub_plus_leaf_colors() {
        // Distance-2: all leaves pairwise conflict through the hub.
        let topo = Topology::star(5);
        let mac = ColoringTdmaMac::new(&topo);
        assert_eq!(mac.num_colors(), 5);
    }

    #[test]
    fn transmit_slot_is_own_color() {
        let topo = Topology::line(4);
        let mac = ColoringTdmaMac::new(&topo);
        for v in 0..4 {
            assert!(mac.may_transmit(v, mac.color(v) as u64));
            assert!(!mac.may_receive(v, mac.color(v) as u64));
        }
        assert_eq!(mac.name(), "coloring-tdma");
        assert!(mac.frame_periodic());
    }
}
