//! Graph algorithms: shortest paths, traversals, connectivity, K-shortest
//! paths, and whole-graph metrics.

mod components;
mod dijkstra;
mod ksp;
mod metrics;
mod traversal;

pub use components::{connected_components, is_connected};
pub use dijkstra::{dijkstra, dijkstra_seeded, DijkstraResult, DijkstraScratch};
pub use ksp::{k_shortest_paths, CostedPath};
pub use metrics::{average_path_cost, diameter, eccentricity};
pub use traversal::{bfs_order, bfs_path, dfs_order, dfs_path_filtered};
