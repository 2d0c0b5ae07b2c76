//! # emumap-graph
//!
//! Graph substrate for the `emumap` project — a from-scratch adjacency-list
//! graph library sized for emulation-testbed mapping workloads (tens of
//! physical hosts, thousands of guests, tens of thousands of virtual links).
//!
//! The crate provides:
//!
//! * [`Graph`] — an undirected multigraph with typed [`NodeId`] / [`EdgeId`]
//!   handles and arbitrary node/edge payloads,
//! * shortest-path algorithms in [`algo`] (Dijkstra with generic edge
//!   costs, BFS paths, connectivity, Yen's K-shortest paths, diameter),
//! * cluster-topology generators in [`generators`] (2-D torus, cascaded
//!   switches, ring, line, star, tree, fat-tree, random connected graphs).
//!
//! Everything is deterministic: generators take an explicit RNG so the same
//! seed always yields the same topology, which the paper's 30-repetition
//! experiment protocol relies on.
//!
//! ## Example
//!
//! ```
//! use emumap_graph::{Graph, algo};
//!
//! let mut g: Graph<&str, f64> = Graph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, 1.0);
//! g.add_edge(b, c, 2.0);
//! g.add_edge(a, c, 10.0);
//!
//! let dist = algo::dijkstra(&g, a, |_, w| *w);
//! assert_eq!(dist.distance(c), Some(3.0)); // a -> b -> c beats the direct edge
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod dot;
pub mod generators;
mod graph;
mod ids;

pub use dot::{to_dot, DotOptions};
pub use graph::{CsrAdjacency, EdgeRef, Graph, NeighborRef};
pub use ids::{EdgeId, NodeId};
