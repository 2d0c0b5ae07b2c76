//! Property-based tests for the graph substrate.

use emumap_graph::algo::{bfs_path, connected_components, dijkstra, is_connected};
use emumap_graph::generators::{
    edges_for_density, fat_tree, random_connected, ring, switched_cascade, torus2d, Role,
};
use emumap_graph::{Graph, NeighborRef, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An arbitrary connected weighted graph: node count, density, edge-weight
/// seed.
fn arb_connected_graph() -> impl Strategy<Value = (Graph<Role, f64>, u64)> {
    (2usize..60, 0.0f64..0.3, any::<u64>()).prop_map(|(n, d, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = random_connected(n, d, &mut rng);
        let mut k = 0u32;
        let g = shape.map_edges(|_, _| {
            k += 1;
            1.0 + f64::from(k % 17)
        });
        (g, seed)
    })
}

/// Each node's set representative after joining the endpoints of every
/// edge in a union–find forest: the reference for `connected_components`.
fn union_find_roots(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..n).collect();
    for &(a, b) in edges {
        let root = find(&mut parent, a);
        parent[root] = find(&mut parent, b);
    }
    (0..n).map(|v| find(&mut parent, v)).collect()
}

proptest! {
    #[test]
    fn random_connected_always_connected((g, _seed) in arb_connected_graph()) {
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn random_connected_edge_count_matches_density(
        n in 2usize..120, d in 0.0f64..0.5, seed in any::<u64>()
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_connected(n, d, &mut rng);
        prop_assert_eq!(g.edge_count(), edges_for_density(n, d));
    }

    #[test]
    fn dijkstra_distances_satisfy_triangle_inequality((g, _) in arb_connected_graph()) {
        // For every edge (u,v): dist(s,v) <= dist(s,u) + w(u,v).
        let s = NodeId::from_index(0);
        let r = dijkstra(&g, s, |_, w| *w);
        for e in g.edges() {
            let du = r.distance(e.a).unwrap();
            let dv = r.distance(e.b).unwrap();
            prop_assert!(dv <= du + *e.weight + 1e-9);
            prop_assert!(du <= dv + *e.weight + 1e-9);
        }
    }

    #[test]
    fn dijkstra_path_cost_equals_reported_distance((g, _) in arb_connected_graph()) {
        let s = NodeId::from_index(0);
        let t = NodeId::from_index(g.node_count() - 1);
        let r = dijkstra(&g, s, |_, w| *w);
        let edges = r.edge_path_to(t).unwrap();
        let total: f64 = edges.iter().map(|&e| *g.edge(e)).sum();
        prop_assert!((total - r.distance(t).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn dijkstra_matches_bfs_on_unit_weights(n in 2usize..60, d in 0.0f64..0.3, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_connected(n, d, &mut rng);
        let s = NodeId::from_index(0);
        let r = dijkstra(&g, s, |_, _| 1.0);
        for t in g.node_ids() {
            let hops = bfs_path(&g, s, t).unwrap().len() - 1;
            prop_assert_eq!(r.distance(t).unwrap() as usize, hops);
        }
    }

    #[test]
    fn components_agree_with_union_find(
        n in 1usize..80,
        edges in prop::collection::vec((0usize..80, 0usize..80), 0..160)
    ) {
        let mut g: Graph<(), ()> = Graph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        let edges: Vec<_> = edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        for &(a, b) in &edges {
            g.add_edge(ids[a], ids[b], ());
        }
        let roots = union_find_roots(n, &edges);
        let (labels, count) = connected_components(&g);
        prop_assert_eq!(count, (0..n).filter(|&v| roots[v] == v).count());
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(labels[a] == labels[b], roots[a] == roots[b]);
            }
        }
    }

    #[test]
    fn torus_always_connected_and_regular(rows in 1usize..12, cols in 1usize..12) {
        let g = torus2d(rows, cols);
        prop_assert_eq!(g.node_count(), rows * cols);
        prop_assert!(is_connected(&g));
        if rows > 2 && cols > 2 {
            for v in g.node_ids() {
                prop_assert_eq!(g.degree(v), 4);
            }
        }
    }

    #[test]
    fn switched_cascade_port_budget_holds(hosts in 1usize..200, ports in 3usize..65) {
        let g = switched_cascade(hosts, ports);
        prop_assert!(is_connected(&g));
        let host_count = g.nodes().filter(|(_, r)| **r == Role::Host).count();
        prop_assert_eq!(host_count, hosts);
        for (id, role) in g.nodes() {
            match role {
                Role::Switch => prop_assert!(g.degree(id) <= ports),
                Role::Host => prop_assert_eq!(g.degree(id), 1),
            }
        }
    }

    #[test]
    fn ring_shortest_path_wraps(n in 3usize..40) {
        let g = ring(n);
        let s = NodeId::from_index(0);
        let r = dijkstra(&g, s, |_, _| 1.0);
        for k in 0..n {
            let t = NodeId::from_index(k);
            let expect = k.min(n - k) as f64;
            prop_assert_eq!(r.distance(t).unwrap(), expect);
        }
    }
}

#[test]
fn fat_tree_hosts_reach_each_other_within_six_hops() {
    let g = fat_tree(4);
    let hosts: Vec<_> = g
        .nodes()
        .filter(|(_, r)| **r == Role::Host)
        .map(|(id, _)| id)
        .collect();
    let r = dijkstra(&g, hosts[0], |_, _| 1.0);
    for &h in &hosts {
        assert!(r.distance(h).unwrap() <= 6.0);
    }
}

/// Smaller graphs for the polynomial-cost algorithms (Yen, diameter)
/// so the debug-mode suite stays fast.
fn arb_small_connected_graph() -> impl Strategy<Value = (Graph<Role, f64>, u64)> {
    (2usize..22, 0.0f64..0.3, any::<u64>()).prop_map(|(n, d, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = random_connected(n, d, &mut rng);
        let mut k = 0u32;
        let g = shape.map_edges(|_, _| {
            k += 1;
            1.0 + f64::from(k % 17)
        });
        (g, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ksp_is_sorted_simple_and_starts_with_dijkstra((g, _) in arb_small_connected_graph()) {
        let s = NodeId::from_index(0);
        let t = NodeId::from_index(g.node_count() - 1);
        let paths = emumap_graph::algo::k_shortest_paths(&g, s, t, 4, |_, w| *w);
        prop_assert!(!paths.is_empty());
        // First path cost equals the Dijkstra distance.
        let d = dijkstra(&g, s, |_, w| *w).distance(t).unwrap();
        prop_assert!((paths[0].cost - d).abs() < 1e-9);
        // Sorted, simple, endpoint-correct, cost-consistent.
        for w in paths.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost + 1e-9);
        }
        for p in &paths {
            prop_assert_eq!(*p.nodes.first().unwrap(), s);
            prop_assert_eq!(*p.nodes.last().unwrap(), t);
            let mut sorted = p.nodes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), p.nodes.len());
            let total: f64 = p.edges.iter().map(|&e| *g.edge(e)).sum();
            prop_assert!((total - p.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn diameter_bounds_every_dijkstra_distance((g, _) in arb_small_connected_graph()) {
        let d = emumap_graph::algo::diameter(&g, |_, w| *w).unwrap();
        let s = NodeId::from_index(0);
        let r = dijkstra(&g, s, |_, w| *w);
        for v in g.node_ids() {
            prop_assert!(r.distance(v).unwrap() <= d + 1e-9);
        }
    }
}

/// Checks that `g.csr()` lists each node's `(neighbor, edge)` pairs in
/// edge-id order, rebuilt here from the edge list alone (a self-loop
/// once).
fn check_adjacency(g: &Graph<(), ()>) -> Result<(), TestCaseError> {
    let mut lists = vec![Vec::new(); g.node_count()];
    for e in g.edges() {
        lists[e.a.index()].push(NeighborRef {
            node: e.b,
            edge: e.id,
        });
        if e.a != e.b {
            lists[e.b.index()].push(NeighborRef {
                node: e.a,
                edge: e.id,
            });
        }
    }
    prop_assert_eq!(g.csr().node_count(), g.node_count());
    for v in g.node_ids() {
        prop_assert_eq!(g.csr().neighbors(v), lists[v.index()].as_slice());
    }
    Ok(())
}

proptest! {
    #[test]
    fn csr_lists_each_node_in_edge_id_order(
        n in 1usize..12,
        pairs in prop::collection::vec((0usize..64, 0usize..64), 0..40),
        extra in (0usize..64, 0usize..64),
    ) {
        // Endpoints modulo `n`: parallel edges and self-loops are common.
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        for &(a, b) in &pairs {
            g.add_edge(ids[a % n], ids[b % n], ());
        }
        check_adjacency(&g)?;
        // A clone carries the adjacency; changes after a read show up.
        let copy = g.clone();
        g.add_edge(ids[extra.0 % n], ids[extra.1 % n], ());
        check_adjacency(&g)?;
        g.add_node(());
        check_adjacency(&g)?;
        check_adjacency(&copy)?;
        prop_assert_eq!(copy.edge_count() + 1, g.edge_count());
    }
}

/// FNV-1a over `random_connected`'s edge lists for 200 seeds, at sparse
/// and near-complete densities. Pins the generator's output: the RNG
/// draws and the edges they place must not change.
#[test]
fn random_connected_output_is_pinned_across_200_seeds() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..200u64 {
        let (n, d) = [(2, 0.0), (30, 0.05), (60, 0.02), (15, 0.9), (9, 1.0)][seed as usize % 5];
        let g = random_connected(n, d, &mut SmallRng::seed_from_u64(seed));
        let ends = g.edges().flat_map(|e| [e.a.index(), e.b.index()]);
        for x in ends.chain([g.edge_count()]) {
            h = (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(h, 1_729_167_661_336_392_450);
}
