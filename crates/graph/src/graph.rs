//! The core undirected multigraph.

use crate::{EdgeId, NodeId};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// One stored edge: its two endpoints and its payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct EdgeSlot<E> {
    a: NodeId,
    b: NodeId,
    weight: E,
}

/// A neighbor of a node: the node reached and the edge used to reach it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborRef {
    /// The adjacent node.
    pub node: NodeId,
    /// The connecting edge.
    pub edge: EdgeId,
}

/// A borrowed view of an edge: its id, endpoints, and payload.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRef<'g, E> {
    /// The edge's id.
    pub id: EdgeId,
    /// First endpoint (as passed to [`Graph::add_edge`]).
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// The edge payload.
    pub weight: &'g E,
}

impl<'g, E> EdgeRef<'g, E> {
    /// Given one endpoint of this edge, returns the other one.
    ///
    /// # Panics
    /// Panics if `from` is not an endpoint of the edge.
    #[inline]
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("{from} is not an endpoint of edge {}", self.id)
        }
    }
}

/// A graph's adjacency in CSR (compressed sparse row) form: every
/// `(neighbor, edge)` pair in one contiguous array, with per-node offsets
/// into it, so the hot search loops (A\*Prune, Dijkstra) scan one slice
/// per node. A node's entries follow edge-id order; a self-loop appears
/// once. It is the only adjacency a [`Graph`] has: [`Graph::csr`] builds
/// it from the edge list and keeps it until the graph's structure changes.
#[derive(Clone, Debug)]
pub struct CsrAdjacency {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`;
    /// length `node_count + 1`.
    offsets: Vec<u32>,
    /// All adjacency entries, grouped by node in id order.
    neighbors: Vec<NeighborRef>,
}

impl CsrAdjacency {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `node` as a contiguous slice, in edge-id order.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NeighborRef] {
        let i = node.index();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Counting sort of `edges` by endpoint: O(V + E).
    fn build<E>(node_count: usize, edges: &[EdgeSlot<E>]) -> Self {
        let mut offsets = vec![0u32; node_count + 1];
        for slot in edges {
            offsets[slot.a.index() + 1] += 1;
            if slot.a != slot.b {
                offsets[slot.b.index() + 1] += 1;
            }
        }
        let mut total = 0u32;
        for offset in &mut offsets {
            total = total.checked_add(*offset).expect("adjacency fits in u32");
            *offset = total;
        }
        // `next[v]` is where `v`'s next entry goes.
        let mut next = offsets.clone();
        let placeholder = NeighborRef {
            node: NodeId(0),
            edge: EdgeId(0),
        };
        let mut neighbors = vec![placeholder; total as usize];
        for (i, slot) in edges.iter().enumerate() {
            let edge = EdgeId::from_index(i);
            let mut push = |v: NodeId, node| {
                neighbors[next[v.index()] as usize] = NeighborRef { node, edge };
                next[v.index()] += 1;
            };
            push(slot.a, slot.b);
            if slot.a != slot.b {
                push(slot.b, slot.a);
            }
        }
        CsrAdjacency { offsets, neighbors }
    }
}

/// An undirected multigraph with dense integer node/edge ids.
///
/// * Nodes carry a payload `N`, edges a payload `E`.
/// * Parallel edges and self-loops are allowed (virtual environments may
///   legitimately contain several links between the same pair of guests;
///   self-loops model intra-host traffic and are simply never routed).
/// * Removal is not supported: the mapping workloads only ever *build*
///   topologies, and append-only storage keeps ids dense so algorithm
///   side-tables can be flat `Vec`s.
/// * The adjacency ([`Graph::csr`]) is derived state: equality ignores it.
#[derive(Clone, Debug)]
pub struct Graph<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeSlot<E>>,
    csr: OnceLock<CsrAdjacency>,
}

impl<N: PartialEq, E: PartialEq> PartialEq for Graph<N, E> {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> Graph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            edges: Vec::new(),
            csr: OnceLock::new(),
        }
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes and
    /// `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            csr: OnceLock::new(),
        }
    }

    /// Adds a node with the given payload; returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(weight);
        self.csr.take();
        id
    }

    /// Adds an undirected edge between `a` and `b`; returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: E) -> EdgeId {
        assert!(
            a.index() < self.nodes.len(),
            "edge endpoint {a} out of range"
        );
        assert!(
            b.index() < self.nodes.len(),
            "edge endpoint {b} out of range"
        );
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeSlot { a, b, weight });
        self.csr.take();
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `true` if `node` is a valid id for this graph.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.nodes.len()
    }

    /// Payload of `node`.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[inline]
    pub fn node(&self, node: NodeId) -> &N {
        &self.nodes[node.index()]
    }

    /// Mutable payload of `node`.
    #[inline]
    pub fn node_mut(&mut self, node: NodeId) -> &mut N {
        &mut self.nodes[node.index()]
    }

    /// Payload of `edge`.
    #[inline]
    pub fn edge(&self, edge: EdgeId) -> &E {
        &self.edges[edge.index()].weight
    }

    /// Mutable payload of `edge`.
    #[inline]
    pub fn edge_mut(&mut self, edge: EdgeId) -> &mut E {
        &mut self.edges[edge.index()].weight
    }

    /// The two endpoints of `edge`, in insertion order.
    #[inline]
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let slot = &self.edges[edge.index()];
        (slot.a, slot.b)
    }

    /// A full borrowed view of `edge`.
    #[inline]
    pub fn edge_ref(&self, edge: EdgeId) -> EdgeRef<'_, E> {
        let slot = &self.edges[edge.index()];
        EdgeRef {
            id: edge,
            a: slot.a,
            b: slot.b,
            weight: &slot.weight,
        }
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterator over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Iterator over `(id, payload)` for all nodes.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &N)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, w)| (NodeId::from_index(i), w))
    }

    /// Iterator over borrowed edge views.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeRef<'_, E>> {
        self.edges.iter().enumerate().map(|(i, slot)| EdgeRef {
            id: EdgeId::from_index(i),
            a: slot.a,
            b: slot.b,
            weight: &slot.weight,
        })
    }

    /// The adjacency, built from the edge list (O(V + E)) on the first call
    /// after a structural change and kept until the next one.
    #[inline]
    pub fn csr(&self) -> &CsrAdjacency {
        self.csr
            .get_or_init(|| CsrAdjacency::build(self.nodes.len(), &self.edges))
    }

    /// Neighbors of `node`: each adjacent node paired with the edge reaching
    /// it, in edge-id order. Parallel edges yield one entry per edge; a
    /// self-loop yields a single entry pointing back at `node`.
    pub fn neighbors(&self, node: NodeId) -> impl ExactSizeIterator<Item = NeighborRef> + '_ {
        self.csr().neighbors(node).iter().copied()
    }

    /// Degree of `node` (number of incident edge endpoints; a self-loop
    /// counts once because the adjacency lists it once).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.csr().neighbors(node).len()
    }

    /// Finds an edge connecting `a` and `b`, if any (first match in `a`'s
    /// adjacency list; O(degree(a))).
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.csr()
            .neighbors(a)
            .iter()
            .find(|nb| nb.node == b)
            .map(|nb| nb.edge)
    }

    /// `true` if some edge connects `a` and `b`.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.find_edge(a, b).is_some()
    }

    /// Maps edge payloads, preserving structure and ids.
    pub fn map_edges<F, E2>(&self, mut f: F) -> Graph<N, E2>
    where
        N: Clone,
        F: FnMut(EdgeId, &E) -> E2,
    {
        Graph {
            nodes: self.nodes.clone(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, slot)| EdgeSlot {
                    a: slot.a,
                    b: slot.b,
                    weight: f(EdgeId::from_index(i), &slot.weight),
                })
                .collect(),
            csr: self.csr.clone(),
        }
    }

    /// Sum of edge-payload projections; convenience for capacity audits.
    pub fn total_edge_weight<F>(&self, mut f: F) -> f64
    where
        F: FnMut(&E) -> f64,
    {
        self.edges.iter().map(|slot| f(&slot.weight)).sum()
    }
}

// The wire format is the one the derive wrote when the adjacency was a
// stored field: `nodes`, `edges` and `adjacency` (per node, its
// `[neighbor, edge]` pairs). Loading derives the adjacency from `edges`
// and rejects a file whose stored lists disagree with it.
impl<N: Serialize, E: Serialize> Serialize for Graph<N, E> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("nodes".to_string(), self.nodes.to_value()),
            ("edges".to_string(), self.edges.to_value()),
            ("adjacency".to_string(), adjacency_lists(self).to_value()),
        ])
    }
}

impl<N: Deserialize, E: Deserialize> Deserialize for Graph<N, E> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let pairs = value.expect_object("Graph")?;
        let graph = Graph {
            nodes: serde::__field(pairs, "nodes", "Graph")?,
            edges: serde::__field(pairs, "edges", "Graph")?,
            csr: OnceLock::new(),
        };
        let n = graph.node_count();
        if let Some(e) = graph.edges().find(|e| e.a.index() >= n || e.b.index() >= n) {
            let (id, a, b) = (e.id.index(), e.a, e.b);
            let msg = format!("Graph.edges[{id}]: endpoint out of range ({a} -- {b}, {n} nodes)");
            return Err(DeError::new(msg));
        }
        let stored: Vec<Vec<(NodeId, EdgeId)>> = serde::__field(pairs, "adjacency", "Graph")?;
        if stored != adjacency_lists(&graph) {
            return Err(DeError::new(
                "Graph.adjacency: does not match the adjacency of the edge list",
            ));
        }
        Ok(graph)
    }
}

/// The adjacency in its wire form: per node, its `(neighbor, edge)` pairs.
fn adjacency_lists<N, E>(graph: &Graph<N, E>) -> Vec<Vec<(NodeId, EdgeId)>> {
    let csr = graph.csr();
    (graph.node_ids())
        .map(|v| {
            csr.neighbors(v)
                .iter()
                .map(|nb| (nb.node, nb.edge))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph<u32, f64>, [NodeId; 3], [EdgeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        let ab = g.add_edge(a, b, 1.0);
        let bc = g.add_edge(b, c, 2.0);
        let ca = g.add_edge(c, a, 3.0);
        (g, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn counts_and_payloads() {
        let (g, [a, b, c], [ab, ..]) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(*g.node(b), 1);
        assert_eq!(*g.edge(ab), 1.0);
        assert_eq!(g.endpoints(ab), (a, b));
        assert!(!g.is_empty());
        assert!(g.contains_node(c));
        assert!(!g.contains_node(NodeId::from_index(3)));
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (g, [a, b, _c], _) = triangle();
        let from_a: Vec<_> = g.neighbors(a).map(|n| n.node).collect();
        assert!(from_a.contains(&b));
        let from_b: Vec<_> = g.neighbors(b).map(|n| n.node).collect();
        assert!(from_b.contains(&a));
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    fn find_edge_both_directions() {
        let (g, [a, b, _], [ab, ..]) = triangle();
        assert_eq!(g.find_edge(a, b), Some(ab));
        assert_eq!(g.find_edge(b, a), Some(ab));
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e1 = g.add_edge(a, b, 1.0);
        let e2 = g.add_edge(a, b, 2.0);
        assert_ne!(e1, e2);
        assert_eq!(g.neighbors(a).count(), 2);
        // find_edge returns one of them
        assert!(g.find_edge(a, b).is_some());
    }

    #[test]
    fn self_loop_listed_once() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert_eq!(g.degree(a), 1);
        let n: Vec<_> = g.neighbors(a).collect();
        assert_eq!(n[0].node, a);
    }

    #[test]
    fn edge_ref_other_endpoint() {
        let (g, [a, b, _], [ab, ..]) = triangle();
        let r = g.edge_ref(ab);
        assert_eq!(r.other(a), b);
        assert_eq!(r.other(b), a);
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn edge_ref_other_panics_for_non_endpoint() {
        let (g, [_, _, c], [ab, ..]) = triangle();
        let r = g.edge_ref(ab);
        let _ = r.other(c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_rejects_unknown_node() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId::from_index(5), ());
    }

    #[test]
    fn map_edges_preserves_structure() {
        let (g, [a, b, _], _) = triangle();
        let g2 = g.map_edges(|_, w| (*w * 10.0) as u64);
        assert_eq!(g2.edge_count(), 3);
        assert_eq!(g2.endpoints(EdgeId::from_index(0)), (a, b));
        assert_eq!(*g2.edge(EdgeId::from_index(2)), 30);
    }

    #[test]
    fn total_edge_weight_sums() {
        let (g, _, _) = triangle();
        assert_eq!(g.total_edge_weight(|w| *w), 6.0);
    }

    #[test]
    fn iterators_cover_everything() {
        let (g, _, _) = triangle();
        assert_eq!(g.node_ids().count(), 3);
        assert_eq!(g.edge_ids().count(), 3);
        assert_eq!(g.nodes().count(), 3);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn csr_matches_native_adjacency() {
        let (g, ids, _) = triangle();
        let csr = g.csr();
        assert_eq!(csr.node_count(), 3);
        for &v in &ids {
            // Each node's entries follow edge-id order, read off the edge list.
            let native: Vec<_> = g
                .edges()
                .filter(|e| e.a == v || e.b == v)
                .map(|e| NeighborRef {
                    node: e.other(v),
                    edge: e.id,
                })
                .collect();
            assert_eq!(csr.neighbors(v), native.as_slice());
            assert!(g.neighbors(v).eq(native.iter().copied()));
        }
    }

    #[test]
    fn csr_handles_isolated_nodes_and_self_loops() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(()); // isolated
        g.add_edge(a, a, ());
        let csr = g.csr();
        assert_eq!(csr.neighbors(a).len(), 1);
        assert_eq!(csr.neighbors(a)[0].node, a);
        assert!(csr.neighbors(b).is_empty());
    }

    #[test]
    fn csr_of_empty_graph() {
        let g: Graph<(), ()> = Graph::new();
        assert_eq!(g.csr().node_count(), 0);
    }

    #[test]
    fn clone_is_deep() {
        let (g, _, _) = triangle();
        g.csr();
        let mut g2 = g.clone();
        *g2.edge_mut(EdgeId::from_index(1)) = 99.0;
        assert!(
            g2.csr.get().is_some(),
            "clones and payload edits keep the CSR"
        );
        assert_eq!(*g.edge(EdgeId::from_index(1)), 2.0);
        assert_eq!(*g2.edge(EdgeId::from_index(1)), 99.0);
    }
}
