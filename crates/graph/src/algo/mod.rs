//! Graph algorithms: shortest paths, breadth-first path search,
//! connectivity, K-shortest paths, and the diameter.

mod components;
mod dijkstra;
mod ksp;
mod metrics;
mod traversal;

pub use components::{connected_components, is_connected};
pub use dijkstra::{dijkstra, dijkstra_seeded, DijkstraResult, DijkstraScratch};
pub use ksp::{k_shortest_paths, CostedPath};
pub use metrics::diameter;
pub use traversal::bfs_path;
