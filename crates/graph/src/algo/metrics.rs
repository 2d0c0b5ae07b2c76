//! Whole-graph metrics: the diameter.
//!
//! Used by the mapping diagnostics (e.g. "no virtual latency bound below
//! `diameter x hop latency` can ever be satisfied between worst-case host
//! pairs") and by tests characterizing the generated topologies.

use crate::algo::dijkstra::dijkstra;
use crate::{EdgeId, Graph};

/// Diameter: the greatest shortest-path cost between any two nodes.
/// `None` for disconnected or empty graphs.
pub fn diameter<N, E, F>(graph: &Graph<N, E>, mut cost: F) -> Option<f64>
where
    F: FnMut(EdgeId, &E) -> f64,
{
    if graph.node_count() == 0 {
        return None;
    }
    let mut max = 0.0f64;
    for v in graph.node_ids() {
        let from_v = dijkstra(graph, v, &mut cost);
        for u in graph.node_ids() {
            max = max.max(from_v.distance(u)?);
        }
    }
    Some(max)
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
    fn disconnected_metrics_are_none() {
        let mut g: crate::Graph<(), f64> = crate::Graph::new();
        g.add_node(());
        g.add_node(());
        assert_eq!(diameter(&g, |_, w| *w), None);
    }

    #[test]
    fn trivial_graphs() {
        let empty: crate::Graph<(), f64> = crate::Graph::new();
        assert_eq!(diameter(&empty, |_, w| *w), None);
        let single = generators::line(1).map_edges(|_, _| 1.0f64);
        assert_eq!(diameter(&single, |_, w| *w), Some(0.0));
    }
}
