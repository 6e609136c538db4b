//! Network topologies for the class `N_n^D`.
//!
//! The paper quantifies over *all* networks with at most `n` nodes and
//! degree at most `D`; the simulator instantiates concrete members of that
//! class — deterministic shapes (ring, line, star, grid, tree) and random
//! ones (degree-capped geometric and Erdős–Rényi graphs) — plus dynamics:
//! edge churn and random-waypoint mobility, under which a
//! topology-transparent schedule must keep working without recomputation.

use rand::rngs::SmallRng;
use rand::Rng;
#[cfg(test)]
use rand::SeedableRng;
use ttdc_util::BitSet;

/// An undirected graph over nodes `[0, n)` with adjacency bit sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    adj: Vec<BitSet>,
}

impl Topology {
    /// An empty (edgeless) topology on `n` nodes.
    pub fn empty(n: usize) -> Topology {
        Topology {
            n,
            adj: vec![BitSet::new(n); n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{a, b}`. Returns `false` if it existed.
    pub fn add_edge(&mut self, a: usize, b: usize) -> bool {
        assert!(a != b, "no self-loops");
        let fresh = self.adj[a].insert(b);
        self.adj[b].insert(a);
        fresh
    }

    /// Removes the undirected edge `{a, b}`. Returns `false` if absent.
    pub fn remove_edge(&mut self, a: usize, b: usize) -> bool {
        let had = self.adj[a].remove(b);
        self.adj[b].remove(a);
        had
    }

    /// Edge test.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(b)
    }

    /// The neighbour set of `x`.
    pub fn neighbors(&self, x: usize) -> &BitSet {
        &self.adj[x]
    }

    /// The full adjacency table (indexable by node).
    pub fn adjacency(&self) -> &[BitSet] {
        &self.adj
    }

    /// Degree of `x`.
    pub fn degree(&self, x: usize) -> usize {
        self.adj[x].len()
    }

    /// Maximum degree over all nodes — the `D` this topology needs.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|x| self.degree(x)).max().unwrap_or(0)
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        (0..self.n).map(|x| self.degree(x)).sum::<usize>() / 2
    }

    /// All undirected edges as `(a, b)` with `a < b`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for a in 0..self.n {
            for b in &self.adj[a] {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// `true` if the graph is connected (trivially true for `n ≤ 1`).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = BitSet::new(self.n);
        let mut stack = vec![0usize];
        seen.insert(0);
        while let Some(v) = stack.pop() {
            for w in &self.adj[v] {
                if seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        seen.len() == self.n
    }

    /// BFS hop distances from `src` (`usize::MAX` when unreachable).
    pub fn bfs_distances(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            for w in &self.adj[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    // ---- deterministic shapes ----

    /// Cycle `0-1-…-(n−1)-0` (degree 2); needs `n ≥ 3`.
    pub fn ring(n: usize) -> Topology {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        let mut t = Topology::empty(n);
        for i in 0..n {
            t.add_edge(i, (i + 1) % n);
        }
        t
    }

    /// Path `0-1-…-(n−1)` (degree ≤ 2); needs `n ≥ 2`.
    pub fn line(n: usize) -> Topology {
        assert!(n >= 2);
        let mut t = Topology::empty(n);
        for i in 0..n - 1 {
            t.add_edge(i, i + 1);
        }
        t
    }

    /// Star with hub `0` (hub degree `n−1`); needs `n ≥ 2`.
    pub fn star(n: usize) -> Topology {
        assert!(n >= 2);
        let mut t = Topology::empty(n);
        for i in 1..n {
            t.add_edge(0, i);
        }
        t
    }

    /// `w × h` grid (degree ≤ 4), row-major node ids.
    pub fn grid(w: usize, h: usize) -> Topology {
        assert!(w >= 1 && h >= 1 && w * h >= 2);
        let mut t = Topology::empty(w * h);
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    t.add_edge(v, v + 1);
                }
                if y + 1 < h {
                    t.add_edge(v, v + w);
                }
            }
        }
        t
    }

    /// Random tree built by attaching each node to a uniformly random
    /// earlier node whose degree is still below `max_degree`.
    pub fn random_tree(n: usize, max_degree: usize, rng: &mut SmallRng) -> Topology {
        assert!(n >= 1 && max_degree >= 2);
        let mut t = Topology::empty(n);
        for v in 1..n {
            // Rejection-sample a parent with spare degree (always exists:
            // a tree on v nodes with degree cap ≥ 2 has a leaf).
            loop {
                let p = rng.gen_range(0..v);
                if t.degree(p) < max_degree {
                    t.add_edge(v, p);
                    break;
                }
            }
        }
        t
    }

    /// Degree-capped Erdős–Rényi: each pair is linked with probability `p`
    /// unless that would push either endpoint past `max_degree`.
    pub fn random_gnp_capped(n: usize, p: f64, max_degree: usize, rng: &mut SmallRng) -> Topology {
        let mut t = Topology::empty(n);
        for a in 0..n {
            for b in a + 1..n {
                if t.degree(a) < max_degree && t.degree(b) < max_degree && rng.gen_bool(p) {
                    t.add_edge(a, b);
                }
            }
        }
        t
    }
}

/// A geometric deployment: node positions in the unit square, unit-disk
/// connectivity with a degree cap (closest neighbours win), and
/// random-waypoint mobility. This is the paper's motivating WSN setting —
/// the topology changes under mobility while `(n, D)` stay bounded.
#[derive(Clone, Debug)]
pub struct GeometricNetwork {
    positions: Vec<(f64, f64)>,
    radius: f64,
    max_degree: usize,
    waypoints: Vec<(f64, f64)>,
}

impl GeometricNetwork {
    /// Scatters `n` nodes uniformly in the unit square.
    pub fn random(n: usize, radius: f64, max_degree: usize, rng: &mut SmallRng) -> Self {
        assert!(n >= 1 && radius > 0.0 && max_degree >= 1);
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let waypoints = positions.clone();
        GeometricNetwork {
            positions,
            radius,
            max_degree,
            waypoints,
        }
    }

    /// A connected deployment: draws [`random`](Self::random) fields from
    /// `rng` until one's [`topology`](Self::topology) is connected, and
    /// returns that topology. Loops forever if `radius` and `max_degree`
    /// can never connect `n` nodes.
    pub fn connected(n: usize, radius: f64, max_degree: usize, rng: &mut SmallRng) -> Topology {
        loop {
            let t = Self::random(n, radius, max_degree, rng).topology();
            if t.is_connected() {
                return t;
            }
        }
    }

    /// Node positions.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// The current unit-disk topology, with each node keeping only its
    /// `max_degree` nearest in-range neighbours (mutually agreed).
    pub fn topology(&self) -> Topology {
        let n = self.positions.len();
        let mut t = Topology::empty(n);
        // Candidate edges sorted by length: greedily accept under the cap,
        // so the result is degree-bounded and favours strong links.
        let mut cands: Vec<(f64, usize, usize)> = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                let d2 = dist2(self.positions[a], self.positions[b]);
                if d2 <= self.radius * self.radius {
                    cands.push((d2, a, b));
                }
            }
        }
        cands.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        for (_, a, b) in cands {
            if t.degree(a) < self.max_degree && t.degree(b) < self.max_degree {
                t.add_edge(a, b);
            }
        }
        t
    }

    /// Random-waypoint step: each node moves `speed` toward its waypoint,
    /// drawing a new waypoint on arrival. Call [`topology`](Self::topology)
    /// afterwards for the updated graph.
    pub fn step(&mut self, speed: f64, rng: &mut SmallRng) {
        for i in 0..self.positions.len() {
            let (px, py) = self.positions[i];
            let (wx, wy) = self.waypoints[i];
            let (dx, dy) = (wx - px, wy - py);
            let dist = (dx * dx + dy * dy).sqrt();
            if dist <= speed {
                self.positions[i] = (wx, wy);
                self.waypoints[i] = (rng.gen::<f64>(), rng.gen::<f64>());
            } else {
                self.positions[i] = (px + dx / dist * speed, py + dy / dist * speed);
            }
        }
    }
}

fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)
}

/// Edge churn: removes `removals` random existing edges and attempts
/// `additions` random new edges respecting the degree cap. Models link
/// failures/appearances with `(n, D)` preserved.
pub fn churn(
    topo: &mut Topology,
    removals: usize,
    additions: usize,
    max_degree: usize,
    rng: &mut SmallRng,
) {
    for _ in 0..removals {
        let edges = topo.edges();
        if edges.is_empty() {
            break;
        }
        let (a, b) = edges[rng.gen_range(0..edges.len())];
        topo.remove_edge(a, b);
    }
    let n = topo.num_nodes();
    if n < 2 {
        return;
    }
    for _ in 0..additions {
        for _attempt in 0..32 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b
                && !topo.has_edge(a, b)
                && topo.degree(a) < max_degree
                && topo.degree(b) < max_degree
            {
                topo.add_edge(a, b);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn edge_basic_ops() {
        let mut t = Topology::empty(4);
        assert!(t.add_edge(0, 1));
        assert!(!t.add_edge(1, 0), "undirected: duplicate");
        assert!(t.has_edge(1, 0));
        assert_eq!(t.num_edges(), 1);
        assert_eq!(t.degree(0), 1);
        assert!(t.remove_edge(0, 1));
        assert!(!t.remove_edge(0, 1));
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        Topology::empty(3).add_edge(1, 1);
    }

    #[test]
    fn ring_line_star_shapes() {
        let r = Topology::ring(5);
        assert_eq!(r.num_edges(), 5);
        assert_eq!(r.max_degree(), 2);
        assert!(r.is_connected());

        let l = Topology::line(5);
        assert_eq!(l.num_edges(), 4);
        assert_eq!(l.max_degree(), 2);
        assert_eq!(l.degree(0), 1);

        let s = Topology::star(6);
        assert_eq!(s.num_edges(), 5);
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.max_degree(), 5);
        assert!(s.is_connected());
    }

    #[test]
    fn grid_shape() {
        let g = Topology::grid(3, 2);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 3 + 4); // 3 vertical + 4 horizontal
        assert_eq!(g.max_degree(), 3);
        assert!(g.is_connected());
        // Corner has degree 2.
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn bfs_distances_on_line() {
        let l = Topology::line(5);
        assert_eq!(l.bfs_distances(0), vec![0, 1, 2, 3, 4]);
        let mut disc = Topology::empty(3);
        disc.add_edge(0, 1);
        let d = disc.bfs_distances(0);
        assert_eq!(d[2], usize::MAX);
        assert!(!disc.is_connected());
    }

    #[test]
    fn connected_deployment_is_the_first_connected_draw() {
        let mut draws = rng(3);
        let want = loop {
            let t = GeometricNetwork::random(25, 0.35, 4, &mut draws).topology();
            if t.is_connected() {
                break t;
            }
        };
        let mut same = rng(3);
        assert_eq!(GeometricNetwork::connected(25, 0.35, 4, &mut same), want);
        assert!(want.is_connected() && want.max_degree() <= 4);
    }

    #[test]
    fn random_tree_is_connected_tree_with_cap() {
        for seed in 0..10 {
            let t = Topology::random_tree(20, 3, &mut rng(seed));
            assert_eq!(t.num_edges(), 19);
            assert!(t.is_connected());
            assert!(t.max_degree() <= 3, "seed {seed}");
        }
    }

    #[test]
    fn gnp_respects_cap() {
        for seed in 0..5 {
            let t = Topology::random_gnp_capped(30, 0.5, 4, &mut rng(seed));
            assert!(t.max_degree() <= 4, "seed {seed}");
        }
    }

    #[test]
    fn geometric_respects_cap_and_radius() {
        for seed in 0..5 {
            let g = GeometricNetwork::random(40, 0.3, 5, &mut rng(seed));
            let t = g.topology();
            assert!(t.max_degree() <= 5);
            for (a, b) in t.edges() {
                assert!(dist2(g.positions()[a], g.positions()[b]) <= 0.3 * 0.3 + 1e-12);
            }
        }
    }

    #[test]
    fn mobility_changes_topology_but_respects_cap() {
        let mut g = GeometricNetwork::random(30, 0.25, 4, &mut rng(7));
        let before = g.topology();
        for _ in 0..50 {
            g.step(0.05, &mut rng(8));
        }
        let after = g.topology();
        assert!(after.max_degree() <= 4);
        assert_ne!(before, after, "mobility should change some edges");
        // Positions stay in the unit square.
        for &(x, y) in g.positions() {
            assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn churn_preserves_degree_cap() {
        let mut t = Topology::ring(12);
        let mut r = rng(3);
        for _ in 0..20 {
            churn(&mut t, 1, 1, 3, &mut r);
            assert!(t.max_degree() <= 3);
        }
    }

    #[test]
    fn churn_on_tiny_graphs_is_safe() {
        let mut t = Topology::empty(1);
        churn(&mut t, 2, 2, 3, &mut rng(0));
        assert_eq!(t.num_edges(), 0);
        let mut t2 = Topology::empty(2);
        churn(&mut t2, 0, 5, 3, &mut rng(0));
        assert!(t2.num_edges() <= 1);
    }

    #[test]
    fn edges_listing_sorted_pairs() {
        let t = Topology::ring(4);
        let e = t.edges();
        assert_eq!(e.len(), 4);
        assert!(e.iter().all(|&(a, b)| a < b));
    }
}
