//! Whole-graph metrics: diameter, eccentricity, average path length.
//!
//! Used by the mapping diagnostics (e.g. "no virtual latency bound below
//! `diameter x hop latency` can ever be satisfied between worst-case host
//! pairs") and by tests characterizing the generated topologies.

use crate::algo::dijkstra::{dijkstra, DijkstraResult};
use crate::{EdgeId, Graph, NodeId};

/// Eccentricity of `node`: the greatest shortest-path cost from it to any
/// reachable node. `None` if the graph has unreachable nodes from `node`
/// (infinite eccentricity).
pub fn eccentricity<N, E, F>(graph: &Graph<N, E>, node: NodeId, cost: F) -> Option<f64>
where
    F: FnMut(EdgeId, &E) -> f64,
{
    farthest(graph, &dijkstra(graph, node, cost))
}

/// The greatest distance in `result`, or `None` if some node of `graph`
/// is unreachable.
fn farthest<N, E>(graph: &Graph<N, E>, result: &DijkstraResult) -> Option<f64> {
    let mut max = 0.0f64;
    for v in graph.node_ids() {
        max = max.max(result.distance(v)?);
    }
    Some(max)
}

/// Diameter: the maximum eccentricity over all nodes. `None` for
/// disconnected or empty graphs.
pub fn diameter<N, E, F>(graph: &Graph<N, E>, mut cost: F) -> Option<f64>
where
    F: FnMut(EdgeId, &E) -> f64,
{
    if graph.node_count() == 0 {
        return None;
    }
    let mut max = 0.0f64;
    for v in graph.node_ids() {
        max = max.max(farthest(graph, &dijkstra(graph, v, &mut cost))?);
    }
    Some(max)
}

/// Mean shortest-path cost over all ordered node pairs (excluding self
/// pairs). `None` for disconnected graphs or fewer than two nodes.
pub fn average_path_cost<N, E, F>(graph: &Graph<N, E>, mut cost: F) -> Option<f64>
where
    F: FnMut(EdgeId, &E) -> f64,
{
    let n = graph.node_count();
    if n < 2 {
        return None;
    }
    let mut total = 0.0;
    for v in graph.node_ids() {
        let result = dijkstra(graph, v, &mut cost);
        for u in graph.node_ids() {
            if u != v {
                total += result.distance(u)?;
            }
        }
    }
    Some(total / (n * (n - 1)) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn line_diameter_is_length() {
        let g = generators::line(5).map_edges(|_, _| 1.0f64);
        assert_eq!(diameter(&g, |_, w| *w), Some(4.0));
    }

    #[test]
    fn ring_diameter_is_half() {
        let g = generators::ring(8).map_edges(|_, _| 1.0f64);
        assert_eq!(diameter(&g, |_, w| *w), Some(4.0));
    }

    #[test]
    fn paper_torus_diameter_matches_hand_count() {
        // 5x8 torus: floor(5/2) + floor(8/2) = 2 + 4 = 6 hops; at 5 ms per
        // hop that is 30 ms — exactly the lower edge of Table 1's virtual
        // latency bounds, which is why the torus scenarios are feasible at
        // all.
        let g = generators::torus2d(5, 8).map_edges(|_, _| 5.0f64);
        assert_eq!(diameter(&g, |_, w| *w), Some(30.0));
    }

    #[test]
    fn switched_diameter_is_two_hops() {
        let g = generators::switched_cascade(40, 64).map_edges(|_, _| 5.0f64);
        assert_eq!(diameter(&g, |_, w| *w), Some(10.0));
    }

    #[test]
    fn eccentricity_of_star_center_is_one() {
        let g = generators::star(6).map_edges(|_, _| 1.0f64);
        assert_eq!(
            eccentricity(&g, crate::NodeId::from_index(0), |_, w| *w),
            Some(1.0)
        );
        assert_eq!(
            eccentricity(&g, crate::NodeId::from_index(1), |_, w| *w),
            Some(2.0)
        );
    }

    #[test]
    fn disconnected_metrics_are_none() {
        let mut g: crate::Graph<(), f64> = crate::Graph::new();
        g.add_node(());
        g.add_node(());
        assert_eq!(diameter(&g, |_, w| *w), None);
        assert_eq!(average_path_cost(&g, |_, w| *w), None);
    }

    #[test]
    fn average_path_cost_of_triangle_is_one() {
        let g = generators::complete(3).map_edges(|_, _| 1.0f64);
        assert_eq!(average_path_cost(&g, |_, w| *w), Some(1.0));
    }

    #[test]
    fn trivial_graphs() {
        let empty: crate::Graph<(), f64> = crate::Graph::new();
        assert_eq!(diameter(&empty, |_, w| *w), None);
        let single = generators::line(1).map_edges(|_, _| 1.0f64);
        assert_eq!(diameter(&single, |_, w| *w), Some(0.0));
        assert_eq!(average_path_cost(&single, |_, w| *w), None);
    }
}
