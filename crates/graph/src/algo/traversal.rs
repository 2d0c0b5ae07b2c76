//! Breadth-first path search: the hop-count reference the property tests
//! hold the weighted shortest-path searches to.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Shortest path by hop count from `source` to `target`, as a node sequence,
/// or `None` if unreachable.
pub fn bfs_path<N, E>(graph: &Graph<N, E>, source: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
    let mut prev: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut seen = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        if v == target {
            let mut path = vec![target];
            let mut cur = target;
            while cur != source {
                let p = prev[cur.index()].expect("reached node has predecessor");
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for nb in graph.neighbors(v) {
            if !seen[nb.node.index()] {
                seen[nb.node.index()] = true;
                prev[nb.node.index()] = Some(v);
                queue.push_back(nb.node);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn bfs_path_is_shortest_in_hops() {
        let mut g: Graph<(), ()> = Graph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1], ());
        g.add_edge(ids[1], ids[3], ());
        g.add_edge(ids[0], ids[2], ());
        g.add_edge(ids[2], ids[3], ());
        g.add_edge(ids[0], ids[3], ()); // direct edge
        let p = bfs_path(&g, ids[0], ids[3]).unwrap();
        assert_eq!(p, vec![ids[0], ids[3]]);
    }

    #[test]
    fn bfs_path_none_when_disconnected() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        assert!(bfs_path(&g, a, b).is_none());
    }
}
