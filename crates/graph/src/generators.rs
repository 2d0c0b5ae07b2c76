//! Cluster-topology generators.
//!
//! Every generator returns a [`Graph<Role, ()>`]: a pure *shape* whose nodes
//! are tagged [`Role::Host`] (can run guests) or [`Role::Switch`] (routes
//! traffic but hosts nothing). The model layer decorates these shapes with
//! capacities. The paper evaluates on a 2-D torus and on cascaded 64-port
//! switches and claims HMN handles *arbitrary* cluster networks, so a wide
//! menu of shapes is provided for tests and ablations.
//!
//! Random generators take an explicit `&mut impl Rng` for reproducibility.

use crate::algo::is_connected;
use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// What a topology node is allowed to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// A workstation that runs a VMM and can host guests.
    Host,
    /// A network switch: forwards traffic, cannot host guests.
    Switch,
}

/// A generated topology shape.
pub type Topology = Graph<Role, ()>;

/// `n` hosts in a cycle. `n == 1` yields a single node with no edges;
/// `n == 2` yields a single edge (not a doubled one).
pub fn ring(n: usize) -> Topology {
    let mut g = Graph::with_capacity(n, n);
    let ids: Vec<_> = (0..n).map(|_| g.add_node(Role::Host)).collect();
    if n >= 2 {
        for i in 0..n {
            let j = (i + 1) % n;
            if i < j || (j == 0 && n > 2) {
                g.add_edge(ids[i], ids[j], ());
            }
        }
    }
    g
}

/// `n` hosts in a path.
pub fn line(n: usize) -> Topology {
    let mut g = Graph::with_capacity(n, n.saturating_sub(1));
    let ids: Vec<_> = (0..n).map(|_| g.add_node(Role::Host)).collect();
    for w in ids.windows(2) {
        g.add_edge(w[0], w[1], ());
    }
    g
}

/// One central host connected to `n - 1` leaves (all hosts).
pub fn star(n: usize) -> Topology {
    let mut g = Graph::with_capacity(n, n.saturating_sub(1));
    let ids: Vec<_> = (0..n).map(|_| g.add_node(Role::Host)).collect();
    for &leaf in &ids[1..] {
        g.add_edge(ids[0], leaf, ());
    }
    g
}

/// Every pair of the `n` hosts directly connected.
pub fn complete(n: usize) -> Topology {
    let mut g = Graph::with_capacity(n, n * n.saturating_sub(1) / 2);
    let ids: Vec<_> = (0..n).map(|_| g.add_node(Role::Host)).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(ids[i], ids[j], ());
        }
    }
    g
}

/// `rows x cols` grid *without* wraparound.
pub fn grid2d(rows: usize, cols: usize) -> Topology {
    let mut g = Graph::with_capacity(rows * cols, 2 * rows * cols);
    let ids: Vec<_> = (0..rows * cols).map(|_| g.add_node(Role::Host)).collect();
    let at = |r: usize, c: usize| ids[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(at(r, c), at(r, c + 1), ());
            }
            if r + 1 < rows {
                g.add_edge(at(r, c), at(r + 1, c), ());
            }
        }
    }
    g
}

/// `rows x cols` 2-D torus (grid with wraparound), the paper's first
/// physical topology. Wraparound edges that would duplicate a grid edge
/// (dimension of size 2) or form a self-loop (dimension of size 1) are
/// skipped, so the result is always a simple graph.
pub fn torus2d(rows: usize, cols: usize) -> Topology {
    let mut g = Graph::with_capacity(rows * cols, 2 * rows * cols);
    let ids: Vec<_> = (0..rows * cols).map(|_| g.add_node(Role::Host)).collect();
    let at = |r: usize, c: usize| ids[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            // Rightward edge with wraparound.
            if cols > 1 {
                let cn = (c + 1) % cols;
                if c + 1 < cols || cols > 2 {
                    g.add_edge(at(r, c), at(r, cn), ());
                }
            }
            // Downward edge with wraparound.
            if rows > 1 {
                let rn = (r + 1) % rows;
                if r + 1 < rows || rows > 2 {
                    g.add_edge(at(r, c), at(rn, c), ());
                }
            }
        }
    }
    g
}

/// Hosts connected to a chain of cascaded switches with `ports` ports each —
/// the paper's second physical topology ("hosts were connected to cascade
/// 64-port switches").
///
/// Each switch reserves one port for the uplink to the next switch in the
/// cascade (the last switch needs none), so a 64-port switch serves 63 hosts
/// (the first switch in a multi-switch cascade serves 63, middle switches
/// 62, because they also have a downlink). With 40 hosts and 64 ports a
/// single switch suffices and the topology degenerates to a star of hosts
/// around one switch.
///
/// # Panics
/// Panics if `ports < 3` (a cascade needs at least one host port plus up to
/// two cascade ports) or `n_hosts == 0`.
pub fn switched_cascade(n_hosts: usize, ports: usize) -> Topology {
    assert!(
        ports >= 3,
        "cascaded switches need at least 3 ports, got {ports}"
    );
    assert!(n_hosts > 0, "need at least one host");
    let mut g = Graph::new();
    let hosts: Vec<_> = (0..n_hosts).map(|_| g.add_node(Role::Host)).collect();

    let mut switches: Vec<NodeId> = vec![g.add_node(Role::Switch)];
    let mut free_ports = vec![ports]; // per-switch remaining ports

    let mut current = 0usize;
    for &h in &hosts {
        // A switch must keep one port free for a potential uplink unless we
        // can prove it is the last switch; conservatively reserve one port
        // on the current switch while hosts remain to be attached.
        if free_ports[current] <= 1 {
            // Add a new switch cascaded onto the current one.
            let s = g.add_node(Role::Switch);
            g.add_edge(switches[current], s, ());
            free_ports[current] -= 1; // uplink consumed
            switches.push(s);
            free_ports.push(ports - 1); // downlink to previous consumed
            current += 1;
        }
        g.add_edge(h, switches[current], ());
        free_ports[current] -= 1;
    }
    g
}

/// A complete `arity`-ary tree over `n` hosts (all nodes are hosts; node 0
/// is the root, node `k`'s children are `arity*k + 1 ..= arity*k + arity`).
pub fn tree(n: usize, arity: usize) -> Topology {
    assert!(arity >= 1, "tree arity must be >= 1");
    let mut g = Graph::with_capacity(n, n.saturating_sub(1));
    let ids: Vec<_> = (0..n).map(|_| g.add_node(Role::Host)).collect();
    for k in 0..n {
        for c in 1..=arity {
            let child = arity * k + c;
            if child < n {
                g.add_edge(ids[k], ids[child], ());
            }
        }
    }
    g
}

/// A `k`-ary fat tree (k pods; k even, k >= 2): `k^3/4` hosts at the leaves,
/// with edge, aggregation, and core *switches* above them. This is the
/// canonical data-center shape; it exercises HMN's claim of handling
/// arbitrary topologies with multi-path routing.
///
/// # Panics
/// Panics if `k` is odd or `k < 2`.
pub fn fat_tree(k: usize) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat tree requires even k >= 2, got {k}"
    );
    let half = k / 2;
    let mut g = Graph::new();

    // Hosts: k pods x (k/2 edge switches) x (k/2 hosts each).
    let hosts: Vec<Vec<Vec<NodeId>>> = (0..k)
        .map(|_| {
            (0..half)
                .map(|_| (0..half).map(|_| g.add_node(Role::Host)).collect())
                .collect()
        })
        .collect();
    // Edge and aggregation switches per pod.
    let edge_sw: Vec<Vec<NodeId>> = (0..k)
        .map(|_| (0..half).map(|_| g.add_node(Role::Switch)).collect())
        .collect();
    let agg_sw: Vec<Vec<NodeId>> = (0..k)
        .map(|_| (0..half).map(|_| g.add_node(Role::Switch)).collect())
        .collect();
    // Core switches: (k/2)^2.
    let core_sw: Vec<NodeId> = (0..half * half).map(|_| g.add_node(Role::Switch)).collect();

    for pod in 0..k {
        for e in 0..half {
            for &host in &hosts[pod][e] {
                g.add_edge(host, edge_sw[pod][e], ());
            }
            for &agg in &agg_sw[pod] {
                g.add_edge(edge_sw[pod][e], agg, ());
            }
        }
        for a in 0..half {
            for c in 0..half {
                g.add_edge(agg_sw[pod][a], core_sw[a * half + c], ());
            }
        }
    }
    g
}

/// The number of edges a simple graph of `n` nodes has at density `d`
/// (fraction of the `n(n-1)/2` possible edges), never below the `n - 1`
/// needed for connectivity.
pub fn edges_for_density(n: usize, density: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&density),
        "density must be in [0,1], got {density}"
    );
    if n < 2 {
        return 0;
    }
    let possible = n * (n - 1) / 2;
    let want = (density * possible as f64).round() as usize;
    want.clamp(n - 1, possible)
}

/// A uniformly random *connected* simple graph over `n` host nodes with
/// approximately the given `density` (see [`edges_for_density`]).
///
/// Construction: a random spanning tree (random-permutation attachment,
/// which yields a uniform random recursive tree — adequate spread for the
/// paper's workloads) followed by uniform rejection sampling of additional
/// distinct non-adjacent pairs. Mirrors the paper's generator contract:
/// "the algorithm used to generate the graph topology guarantees that the
/// output graph is connected."
pub fn random_connected<R: Rng + ?Sized>(n: usize, density: f64, rng: &mut R) -> Topology {
    let target_edges = edges_for_density(n, density);
    let mut g = Graph::with_capacity(n, target_edges);
    let ids: Vec<_> = (0..n).map(|_| g.add_node(Role::Host)).collect();
    if n < 2 {
        return g;
    }

    // Random spanning tree: shuffle, then attach each node to a random
    // earlier node in the shuffled order.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    // Pairs already joined (`has_edge` would rebuild the CSR per edge).
    let mut placed = HashSet::with_capacity(target_edges);
    let pair = |a: usize, b: usize| (a.min(b), a.max(b));
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        let child = order[i];
        g.add_edge(ids[parent], ids[child], ());
        placed.insert(pair(parent, child));
    }

    // Densify with rejection sampling. Collision probability stays low at
    // the paper's densities (<= 0.025), so this terminates quickly; a
    // safety valve falls back to enumeration if the graph is nearly
    // complete.
    let mut edges = g.edge_count();
    let mut attempts = 0usize;
    let max_attempts = 50 * target_edges.max(16);
    while edges < target_edges && attempts < max_attempts {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b || !placed.insert(pair(a, b)) {
            continue;
        }
        g.add_edge(ids[a], ids[b], ());
        edges += 1;
    }
    if edges < target_edges {
        // Dense regime: enumerate the missing pairs and sample from them.
        let mut missing: Vec<(usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if !placed.contains(&(a, b)) {
                    missing.push((a, b));
                }
            }
        }
        missing.shuffle(rng);
        for (a, b) in missing.into_iter().take(target_edges - edges) {
            g.add_edge(ids[a], ids[b], ());
        }
    }

    debug_assert!(is_connected(&g));
    g
}

/// Host node-ids of a topology (skipping switches), in insertion order.
pub fn host_ids(topology: &Topology) -> Vec<NodeId> {
    topology
        .nodes()
        .filter(|(_, role)| **role == Role::Host)
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ring_edge_counts() {
        assert_eq!(ring(1).edge_count(), 0);
        assert_eq!(ring(2).edge_count(), 1);
        assert_eq!(ring(3).edge_count(), 3);
        assert_eq!(ring(10).edge_count(), 10);
        assert!(is_connected(&ring(10)));
    }

    #[test]
    fn ring_degree_is_two() {
        let g = ring(8);
        for v in g.node_ids() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn line_and_star_shapes() {
        let l = line(5);
        assert_eq!(l.edge_count(), 4);
        assert!(is_connected(&l));
        let s = star(5);
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.degree(NodeId::from_index(0)), 4);
    }

    #[test]
    fn complete_graph_has_all_pairs() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        for a in g.node_ids() {
            assert_eq!(g.degree(a), 5);
        }
    }

    #[test]
    fn torus_is_4_regular_when_big_enough() {
        let g = torus2d(5, 8); // 40 hosts, the paper's cluster size
        assert_eq!(g.node_count(), 40);
        assert_eq!(g.edge_count(), 80); // 2 edges per node in a torus
        for v in g.node_ids() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_degenerate_dimensions() {
        // 1xN torus = ring of N.
        let g = torus2d(1, 5);
        assert_eq!(g.edge_count(), 5);
        for v in g.node_ids() {
            assert_eq!(g.degree(v), 2);
        }
        // 2xN torus must not double the vertical edges.
        let g = torus2d(2, 4);
        assert_eq!(g.node_count(), 8);
        // horizontal: 2 rows x 4 wrap edges = 8; vertical: 4 single edges.
        assert_eq!(g.edge_count(), 12);
        // 1x1 and 1x2 stay simple.
        assert_eq!(torus2d(1, 1).edge_count(), 0);
        assert_eq!(torus2d(1, 2).edge_count(), 1);
    }

    #[test]
    fn grid_has_no_wraparound() {
        let g = grid2d(3, 3);
        assert_eq!(g.edge_count(), 12);
        let corner_degree = g.degree(NodeId::from_index(0));
        assert_eq!(corner_degree, 2);
    }

    #[test]
    fn switched_single_switch_when_ports_suffice() {
        // The paper's setup: 40 hosts, 64-port switches -> one switch.
        let g = switched_cascade(40, 64);
        let switches: Vec<_> = g.nodes().filter(|(_, r)| **r == Role::Switch).collect();
        assert_eq!(switches.len(), 1);
        assert_eq!(g.node_count(), 41);
        assert_eq!(g.edge_count(), 40);
        assert!(is_connected(&g));
    }

    #[test]
    fn switched_cascades_when_hosts_exceed_ports() {
        let g = switched_cascade(10, 4); // 3 usable host ports per switch
        assert!(is_connected(&g));
        let switches = g.nodes().filter(|(_, r)| **r == Role::Switch).count();
        assert!(
            switches >= 3,
            "10 hosts on 4-port switches need >= 3 switches, got {switches}"
        );
        // Port budget respected on every switch.
        for (id, role) in g.nodes() {
            if *role == Role::Switch {
                assert!(g.degree(id) <= 4, "switch {id} exceeds port budget");
            }
        }
        // Hosts have exactly one uplink.
        for (id, role) in g.nodes() {
            if *role == Role::Host {
                assert_eq!(g.degree(id), 1);
            }
        }
    }

    #[test]
    fn tree_shape() {
        let g = tree(7, 2); // perfect binary tree of 7 nodes
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(NodeId::from_index(0)), 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn fat_tree_k4_structure() {
        let g = fat_tree(4);
        let hosts = g.nodes().filter(|(_, r)| **r == Role::Host).count();
        let switches = g.nodes().filter(|(_, r)| **r == Role::Switch).count();
        assert_eq!(hosts, 16); // k^3/4
        assert_eq!(switches, 4 * 2 + 4 * 2 + 4); // edge + agg + core
        assert!(is_connected(&g));
    }

    #[test]
    fn edges_for_density_bounds() {
        assert_eq!(edges_for_density(0, 0.5), 0);
        assert_eq!(edges_for_density(1, 0.5), 0);
        // Never below spanning tree.
        assert_eq!(edges_for_density(100, 0.0), 99);
        // Never above complete.
        assert_eq!(edges_for_density(10, 1.0), 45);
        // Paper's high-level scenario: 400 guests at density 0.02.
        let e = edges_for_density(400, 0.02);
        assert_eq!(e, (0.02f64 * (400.0 * 399.0 / 2.0)).round() as usize);
    }

    #[test]
    fn random_connected_meets_contract() {
        let mut rng = SmallRng::seed_from_u64(7);
        for &(n, d) in &[
            (2usize, 0.0),
            (40, 0.1),
            (100, 0.015),
            (400, 0.025),
            (800, 0.01),
        ] {
            let g = random_connected(n, d, &mut rng);
            assert_eq!(g.node_count(), n);
            assert!(is_connected(&g), "n={n} d={d} disconnected");
            assert_eq!(g.edge_count(), edges_for_density(n, d), "n={n} d={d}");
            // Simple graph: no duplicate edges.
            let mut seen = std::collections::HashSet::new();
            for e in g.edges() {
                let key = if e.a < e.b { (e.a, e.b) } else { (e.b, e.a) };
                assert!(seen.insert(key), "duplicate edge {key:?}");
                assert_ne!(e.a, e.b, "self loop");
            }
        }
    }

    #[test]
    fn random_connected_is_deterministic_per_seed() {
        let g1 = random_connected(50, 0.05, &mut SmallRng::seed_from_u64(42));
        let g2 = random_connected(50, 0.05, &mut SmallRng::seed_from_u64(42));
        let e1: Vec<_> = g1.edges().map(|e| (e.a, e.b)).collect();
        let e2: Vec<_> = g2.edges().map(|e| (e.a, e.b)).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn random_connected_dense_regime_falls_back_to_enumeration() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = random_connected(12, 0.98, &mut rng);
        assert_eq!(g.edge_count(), edges_for_density(12, 0.98));
        assert!(is_connected(&g));
    }

    #[test]
    fn host_ids_skips_switches() {
        let g = switched_cascade(5, 8);
        let hosts = host_ids(&g);
        assert_eq!(hosts.len(), 5);
        for h in hosts {
            assert_eq!(*g.node(h), Role::Host);
        }
    }
}
