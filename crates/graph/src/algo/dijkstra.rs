//! Dijkstra's single-source shortest paths with caller-supplied edge costs.
//!
//! The Networking stage of HMN needs one-to-all *latency* distances toward
//! each virtual-link destination (the admissible lower bound `ar[]` in the
//! paper's Algorithm 1), so [`dijkstra`] computes the full distance vector;
//! [`DijkstraResult::path_to`] reconstructs one path from it. The loop
//! itself is [`DijkstraScratch::run`], which also serves searches that
//! reuse their buffers, skip edges or stop early (Yen's spur searches,
//! A\*Prune's bandwidth guide). Every run walks the graph's own
//! adjacency, [`Graph::csr`].

use crate::{EdgeId, Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of a Dijkstra run from a single source.
#[derive(Clone, Debug)]
pub struct DijkstraResult {
    source: NodeId,
    /// `dist[v]` = shortest distance from the source, `f64::INFINITY` if
    /// unreachable.
    dist: Vec<f64>,
    /// `prev[v]` = (predecessor node, edge used) on one shortest path.
    prev: Vec<Option<(NodeId, EdgeId)>>,
}

impl DijkstraResult {
    /// The source node of this run.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// Raw distance vector (`INFINITY` for unreachable nodes), indexed by
    /// [`NodeId::index`]. This is the `ar[]` table of the paper's
    /// Algorithm 1 when the run is rooted at the link destination.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Consumes the result and returns its distance vector, the owned
    /// form of [`distances`](Self::distances).
    pub fn into_distances(self) -> Vec<f64> {
        self.dist
    }

    /// Reconstructs the shortest path from the source to `target` as a node
    /// sequence (source first), or `None` if unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if !self.dist[target.index()].is_finite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while cur != self.source {
            let (p, _) = self.prev[cur.index()].expect("finite distance implies predecessor");
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Reconstructs the shortest path as an edge sequence, or `None` if
    /// `target` is unreachable. Empty when `target == source`.
    pub fn edge_path_to(&self, target: NodeId) -> Option<Vec<EdgeId>> {
        if !self.dist[target.index()].is_finite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = target;
        while cur != self.source {
            let (p, e) = self.prev[cur.index()].expect("finite distance implies predecessor");
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        Some(edges)
    }
}

/// Runs Dijkstra from `source`, with the cost of each edge given by
/// `cost(edge_id, payload)`, iterating neighbors through the graph's
/// adjacency ([`Graph::csr`]).
///
/// Costs must be non-negative and finite; this is debug-asserted.
/// Undirected edges are relaxed in both directions.
pub fn dijkstra<N, E, F>(graph: &Graph<N, E>, source: NodeId, cost: F) -> DijkstraResult
where
    F: FnMut(EdgeId, &E) -> f64,
{
    dijkstra_seeded(graph, source, 0.0, cost)
}

/// [`dijkstra`] with the source starting at distance `start` instead of 0.
///
/// Every other distance is the left-to-right float sum `start + c1 + c2 +
/// ...` along a shortest path. So if `leaf`'s only edge `e` joins it to
/// `source`, seeding with `start = 0.0 + cost(e)` reproduces, bit for bit,
/// the distances of an unseeded run from `leaf` at every node but `leaf`
/// itself (which reads `2 * cost(e)` here instead of 0). `start` must be
/// non-negative and finite.
pub fn dijkstra_seeded<N, E, F>(
    graph: &Graph<N, E>,
    source: NodeId,
    start: f64,
    mut cost: F,
) -> DijkstraResult
where
    F: FnMut(EdgeId, &E) -> f64,
{
    let mut scratch = DijkstraScratch::default();
    scratch.run(graph, source, start, |e, w| Some(cost(e, w)), |_, _| false);
    let DijkstraScratch { dist, prev, .. } = scratch;
    DijkstraResult { source, dist, prev }
}

/// The buffers of the Dijkstra loop, reusable across runs, and the
/// distances of the last run.
///
/// [`run`](Self::run) is the one Dijkstra loop of the crate; [`dijkstra`]
/// and [`dijkstra_seeded`] are full runs on fresh buffers. A caller that
/// runs many searches on one graph keeps a scratch to stop allocating, and
/// can skip edges or stop early.
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    pub(crate) prev: Vec<Option<(NodeId, EdgeId)>>,
    // Min-heap of (cost bits, node): a non-negative f64's bit pattern
    // orders like the value, and f64 itself is not `Ord`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl DijkstraScratch {
    /// Empty buffers.
    pub fn new() -> Self {
        DijkstraScratch::default()
    }

    /// Runs Dijkstra from `source` at start distance `start`, as
    /// [`dijkstra_seeded`] does, with two additions:
    ///
    /// * `cost(edge_id, payload)` returns `None` for an edge the search
    ///   must not use;
    /// * `stop(node, distance)` is called once per settled node, before
    ///   its edges are relaxed; returning `true` ends the run there.
    ///
    /// After a run stopped at distance `d`, every node to which a full run
    /// gives a distance below `d` holds that distance, bit for bit. Every
    /// other node holds at least `d`, and no less than a full run's value:
    /// a tentative distance, or `f64::INFINITY`. Costs must be
    /// non-negative and finite (debug-asserted).
    pub fn run<N, E>(
        &mut self,
        graph: &Graph<N, E>,
        source: NodeId,
        start: f64,
        mut cost: impl FnMut(EdgeId, &E) -> Option<f64>,
        mut stop: impl FnMut(NodeId, f64) -> bool,
    ) {
        debug_assert!(
            start >= 0.0 && start.is_finite(),
            "bad start distance {start}"
        );
        let n = graph.node_count();
        let csr = graph.csr();
        let DijkstraScratch { dist, prev, heap } = self;
        dist.clear();
        dist.resize(n, f64::INFINITY);
        prev.clear();
        prev.resize(n, None);
        heap.clear();
        dist[source.index()] = start;
        heap.push(Reverse((start.to_bits(), source.index() as u32)));

        while let Some(Reverse((dbits, v))) = heap.pop() {
            let d = f64::from_bits(dbits);
            let v = NodeId::from_index(v as usize);
            if d > dist[v.index()] {
                continue; // stale entry
            }
            if stop(v, d) {
                return;
            }
            for &nb in csr.neighbors(v) {
                let Some(w) = cost(nb.edge, graph.edge(nb.edge)) else {
                    continue;
                };
                debug_assert!(
                    w >= 0.0 && w.is_finite(),
                    "dijkstra requires non-negative finite edge costs, got {w}"
                );
                let nd = d + w;
                if nd < dist[nb.node.index()] {
                    dist[nb.node.index()] = nd;
                    prev[nb.node.index()] = Some((v, nb.edge));
                    heap.push(Reverse((nd.to_bits(), nb.node.index() as u32)));
                }
            }
        }
    }

    /// Distances of the last run, indexed by [`NodeId::index`]
    /// (`f64::INFINITY` where nothing was reached).
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// Builds the classic 5-node example with a known shortest-path tree.
    fn weighted() -> (Graph<(), f64>, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        let w = [
            (0, 1, 4.0),
            (0, 2, 1.0),
            (2, 1, 2.0),
            (1, 3, 1.0),
            (2, 3, 5.0),
            (3, 4, 3.0),
        ];
        for (a, b, c) in w {
            g.add_edge(ids[a], ids[b], c);
        }
        (g, ids)
    }

    #[test]
    fn distances_match_hand_computation() {
        let (g, ids) = weighted();
        let r = dijkstra(&g, ids[0], |_, w| *w);
        assert_eq!(r.distance(ids[0]), Some(0.0));
        assert_eq!(r.distance(ids[2]), Some(1.0));
        assert_eq!(r.distance(ids[1]), Some(3.0)); // 0-2-1
        assert_eq!(r.distance(ids[3]), Some(4.0)); // 0-2-1-3
        assert_eq!(r.distance(ids[4]), Some(7.0));
    }

    #[test]
    fn path_reconstruction() {
        let (g, ids) = weighted();
        let r = dijkstra(&g, ids[0], |_, w| *w);
        let path = r.path_to(ids[3]).unwrap();
        assert_eq!(r.distance(ids[3]), Some(4.0));
        assert_eq!(path, vec![ids[0], ids[2], ids[1], ids[3]]);
    }

    #[test]
    fn edge_path_lengths_are_consistent() {
        let (g, ids) = weighted();
        let r = dijkstra(&g, ids[0], |_, w| *w);
        let edges = r.edge_path_to(ids[4]).unwrap();
        let total: f64 = edges.iter().map(|&e| *g.edge(e)).sum();
        assert_eq!(total, 7.0);
        assert!(r.edge_path_to(ids[0]).unwrap().is_empty());
    }

    #[test]
    fn unreachable_is_none() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let r = dijkstra(&g, a, |_, w| *w);
        assert_eq!(r.distance(b), None);
        assert!(r.path_to(b).is_none());
        assert!(r.edge_path_to(b).is_none());
    }

    #[test]
    fn zero_cost_edges_are_fine() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 0.0);
        g.add_edge(b, c, 0.0);
        let r = dijkstra(&g, a, |_, w| *w);
        assert_eq!(r.distance(c), Some(0.0));
    }

    #[test]
    fn parallel_edges_take_cheapest() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 5.0);
        g.add_edge(a, b, 2.0);
        let r = dijkstra(&g, a, |_, w| *w);
        assert_eq!(r.distance(b), Some(2.0));
    }

    #[test]
    fn self_loop_does_not_shorten_anything() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, a, 0.0);
        g.add_edge(a, b, 3.0);
        let r = dijkstra(&g, a, |_, w| *w);
        assert_eq!(r.distance(b), Some(3.0));
    }
}
