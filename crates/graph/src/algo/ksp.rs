//! Yen's K-shortest simple paths.
//!
//! A\*Prune (Liu & Ramakrishnan 2001) is itself a K-shortest-paths
//! algorithm; the paper uses its 1-constrained variant. Yen's algorithm is
//! the classical alternative, provided here (a) as an independent oracle
//! for A\*Prune's property tests — the widest feasible path must appear
//! among the K cheapest-by-latency simple paths for large enough K — and
//! (b) to power the `KspRouting` extension strategy in `emumap-core`.

use crate::algo::DijkstraScratch;
use crate::{CsrAdjacency, EdgeId, Graph, NodeId};

/// A simple path: total cost plus the node sequence from source to target.
#[derive(Clone, Debug, PartialEq)]
pub struct CostedPath {
    /// Sum of edge costs along the path.
    pub cost: f64,
    /// Node sequence, source first.
    pub nodes: Vec<NodeId>,
    /// Edge sequence (`nodes.len() - 1` entries).
    pub edges: Vec<EdgeId>,
}

/// Dijkstra restricted to a subgraph: `banned_edges` may not be used,
/// `banned_nodes` may not be visited. Returns the cheapest path as a
/// [`CostedPath`], or `None`.
#[allow(clippy::too_many_arguments)]
fn dijkstra_path_filtered<N, E, F>(
    graph: &Graph<N, E>,
    csr: &CsrAdjacency,
    source: NodeId,
    target: NodeId,
    cost: &mut F,
    banned_edges: &[EdgeId],
    banned_nodes: &[NodeId],
    scratch: &mut DijkstraScratch,
) -> Option<CostedPath>
where
    F: FnMut(EdgeId, &E) -> f64,
{
    if banned_nodes.contains(&source) || banned_nodes.contains(&target) {
        return None;
    }
    // The search never stands on a banned node, so an edge leads to one
    // iff either endpoint is banned.
    let usable = |e: EdgeId| {
        let (a, b) = graph.endpoints(e);
        !banned_edges.contains(&e) && !banned_nodes.contains(&a) && !banned_nodes.contains(&b)
    };
    scratch.run(
        graph,
        csr,
        source,
        0.0,
        |e, w| usable(e).then(|| cost(e, w)),
        |v, _| v == target,
    );
    let dist = scratch.distances()[target.index()];
    if !dist.is_finite() {
        return None;
    }
    let mut nodes = vec![target];
    let mut edges = Vec::new();
    let mut cur = target;
    while cur != source {
        let (p, e) = scratch.prev[cur.index()].expect("finite distance implies predecessor");
        nodes.push(p);
        edges.push(e);
        cur = p;
    }
    nodes.reverse();
    edges.reverse();
    Some(CostedPath {
        cost: dist,
        nodes,
        edges,
    })
}

/// Returns up to `k` cheapest simple paths from `source` to `target` in
/// ascending cost order (Yen's algorithm), iterating neighbors through
/// `csr`, a [`Graph::to_csr`] snapshot of `graph`. Returns fewer than `k`
/// when the graph has fewer simple paths. Costs must be non-negative.
pub fn k_shortest_paths<N, E, F>(
    graph: &Graph<N, E>,
    csr: &CsrAdjacency,
    source: NodeId,
    target: NodeId,
    k: usize,
    mut cost: F,
) -> Vec<CostedPath>
where
    F: FnMut(EdgeId, &E) -> f64,
{
    debug_assert_eq!(csr.node_count(), graph.node_count());
    if k == 0 {
        return Vec::new();
    }
    let mut scratch = DijkstraScratch::new();
    let Some(first) = dijkstra_path_filtered(
        graph,
        csr,
        source,
        target,
        &mut cost,
        &[],
        &[],
        &mut scratch,
    ) else {
        return Vec::new();
    };
    let mut accepted: Vec<CostedPath> = vec![first];
    // Candidate set: (path, spur metadata is already folded into the path).
    let mut candidates: Vec<CostedPath> = Vec::new();

    while accepted.len() < k {
        let last = accepted.last().expect("at least the shortest path");
        // Each node of the previous path (except the target) is a spur.
        for spur_idx in 0..last.nodes.len() - 1 {
            let spur_node = last.nodes[spur_idx];
            let root_nodes = &last.nodes[..=spur_idx];
            let root_edges = &last.edges[..spur_idx];
            let root_cost: f64 = root_edges.iter().map(|&e| cost(e, graph.edge(e))).sum();

            // Edges to ban: the next edge of every accepted path sharing
            // this root (forces a deviation).
            let mut banned_edges: Vec<EdgeId> = Vec::new();
            for p in accepted.iter().chain(candidates.iter()) {
                if p.nodes.len() > spur_idx + 1 && p.nodes[..=spur_idx] == *root_nodes {
                    banned_edges.push(p.edges[spur_idx]);
                }
            }
            // Nodes to ban: the root minus the spur node itself (keeps the
            // total path simple).
            let banned_nodes = &root_nodes[..spur_idx];

            if let Some(spur) = dijkstra_path_filtered(
                graph,
                csr,
                spur_node,
                target,
                &mut cost,
                &banned_edges,
                banned_nodes,
                &mut scratch,
            ) {
                let mut nodes = root_nodes.to_vec();
                nodes.extend_from_slice(&spur.nodes[1..]);
                let mut edges = root_edges.to_vec();
                edges.extend_from_slice(&spur.edges);
                let total = CostedPath {
                    cost: root_cost + spur.cost,
                    nodes,
                    edges,
                };
                if !candidates.contains(&total) && !accepted.contains(&total) {
                    candidates.push(total);
                }
            }
        }
        // Promote the cheapest candidate (ties: lexicographic nodes for
        // determinism).
        candidates.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.nodes.cmp(&b.nodes)));
        if candidates.is_empty() {
            break;
        }
        accepted.push(candidates.remove(0));
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// The classic Yen example graph.
    fn yen_graph() -> (Graph<&'static str, f64>, Vec<NodeId>) {
        let mut g = Graph::new();
        let c = g.add_node("C");
        let d = g.add_node("D");
        let e = g.add_node("E");
        let f = g.add_node("F");
        let gg = g.add_node("G");
        let h = g.add_node("H");
        for &(a, b, w) in &[
            (c, d, 3.0),
            (c, e, 2.0),
            (d, f, 4.0),
            (e, d, 1.0),
            (e, f, 2.0),
            (e, gg, 3.0),
            (f, gg, 2.0),
            (f, h, 1.0),
            (gg, h, 2.0),
        ] {
            g.add_edge(a, b, w);
        }
        (g, vec![c, d, e, f, gg, h])
    }

    #[test]
    fn yen_reference_example() {
        let (g, ids) = yen_graph();
        let (c, h) = (ids[0], ids[5]);
        let paths = k_shortest_paths(&g, &g.to_csr(), c, h, 3, |_, w| *w);
        assert_eq!(paths.len(), 3);
        // Undirected version of Yen's example still has C-E-F-H = 5 as the
        // shortest path.
        assert_eq!(paths[0].cost, 5.0);
        assert!(paths[0].cost <= paths[1].cost);
        assert!(paths[1].cost <= paths[2].cost);
    }

    #[test]
    fn paths_are_simple_and_connect_endpoints() {
        let (g, ids) = yen_graph();
        let paths = k_shortest_paths(&g, &g.to_csr(), ids[0], ids[5], 10, |_, w| *w);
        assert!(paths.len() >= 3);
        for p in &paths {
            assert_eq!(p.nodes.first(), Some(&ids[0]));
            assert_eq!(p.nodes.last(), Some(&ids[5]));
            let mut sorted = p.nodes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), p.nodes.len(), "path revisits a node");
            // Edge costs sum to the reported cost.
            let total: f64 = p.edges.iter().map(|&e| *g.edge(e)).sum();
            assert!((total - p.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn all_paths_distinct() {
        let (g, ids) = yen_graph();
        let paths = k_shortest_paths(&g, &g.to_csr(), ids[0], ids[5], 20, |_, w| *w);
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                assert_ne!(paths[i].nodes, paths[j].nodes);
            }
        }
    }

    #[test]
    fn k_zero_and_unreachable() {
        let (g, ids) = yen_graph();
        assert!(k_shortest_paths(&g, &g.to_csr(), ids[0], ids[5], 0, |_, w| *w).is_empty());
        let mut g2: Graph<(), f64> = Graph::new();
        let a = g2.add_node(());
        let b = g2.add_node(());
        assert!(k_shortest_paths(&g2, &g2.to_csr(), a, b, 3, |_, w| *w).is_empty());
    }

    #[test]
    fn exhausts_small_graphs_gracefully() {
        // A triangle has exactly 2 simple paths between any two nodes.
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 1.0);
        g.add_edge(a, c, 1.0);
        let paths = k_shortest_paths(&g, &g.to_csr(), a, c, 10, |_, w| *w);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].cost, 1.0);
        assert_eq!(paths[1].cost, 2.0);
    }

    #[test]
    fn costs_are_monotone_on_a_ring() {
        let shape = crate::generators::ring(6);
        let g = shape.map_edges(|_, _| 1.0f64);
        let paths = k_shortest_paths(
            &g,
            &g.to_csr(),
            NodeId::from_index(0),
            NodeId::from_index(2),
            5,
            |_, w| *w,
        );
        assert_eq!(
            paths.len(),
            2,
            "a ring has exactly two simple paths per pair"
        );
        assert_eq!(paths[0].cost, 2.0);
        assert_eq!(paths[1].cost, 4.0);
    }
}
