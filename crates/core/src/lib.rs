//! # emumap-core
//!
//! The mapping heuristics of Calheiros, Buyya & De Rose, *"A Heuristic for
//! Mapping Virtual Machines and Links in Emulation Testbeds"* (ICPP 2009) —
//! the paper's primary contribution:
//!
//! * [`Hmn`] — the **Hosting–Migration–Networking** heuristic (§4):
//!   affinity-driven placement, load-balance refinement, and widest-path
//!   routing with the modified 1-constrained A\*Prune;
//! * the evaluation's baselines (§5): [`RandomDfs`] (R), [`RandomAStar`]
//!   (RA) and [`HostingDfs`] (HS);
//! * the future-work extensions (§6): [`ConsolidatingHmn`] (minimize hosts
//!   used) and [`HeuristicPool`] (select among heuristics per scenario);
//! * the extension family beyond the paper — greedy bin-packing baselines,
//!   [`Annealing`] (SA), [`ParallelTempering`] (PT) and
//!   [`RandomizedRounding`] (RR, LP relaxation + seeded rounding) — all
//!   enumerated by the [`MAPPERS`] registry, the single registration site
//!   every harness surface (CLI, bench, compare, serve) derives from.
//!
//! Stages are public ([`hosting`], [`migration`], [`networking`],
//! [`astar_prune`](mod@astar_prune)) so they can be recombined, benchmarked and ablated
//! independently.
//!
//! ## Example
//!
//! ```
//! use emumap_core::{Hmn, Mapper};
//! use emumap_graph::generators;
//! use emumap_model::{
//!     validate_mapping, GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips,
//!     PhysicalTopology, StorGb, VLinkSpec, VirtualEnvironment, VmmOverhead,
//! };
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // A 3x4 torus of 2 GHz-class hosts.
//! let phys = PhysicalTopology::from_shape(
//!     &generators::torus2d(3, 4),
//!     std::iter::repeat(HostSpec::new(Mips(2000.0), MemMb::from_gb(2), StorGb(2000.0))),
//!     LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
//!     VmmOverhead::NONE,
//! );
//!
//! // A small virtual chain.
//! let mut venv = VirtualEnvironment::new();
//! let guests: Vec<_> = (0..6)
//!     .map(|_| venv.add_guest(GuestSpec::new(Mips(75.0), MemMb(192), StorGb(150.0))))
//!     .collect();
//! for pair in guests.windows(2) {
//!     venv.add_link(pair[0], pair[1], VLinkSpec::new(Kbps(750.0), Millis(45.0)));
//! }
//!
//! let outcome = Hmn::new().map(&phys, &venv, &mut SmallRng::seed_from_u64(0)).unwrap();
//! assert_eq!(validate_mapping(&phys, &venv, &outcome.mapping), Ok(()));
//! println!("objective = {:.1} MIPS stddev", outcome.objective);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod astar_prune;
pub mod cache;
pub mod consolidation;
pub mod dfs_routing;
pub mod diagnostics;
mod error;
pub mod exact;
mod greedy;
mod hmn;
pub mod hosting;
pub mod ksp_routing;
pub mod lagrangian;
mod mapper;
pub mod migration;
pub mod networking;
pub mod parallel;
mod pool;
mod random;
mod recorder;
mod registry;
pub mod rounding;
pub mod serve;
mod state;
pub mod tempering;

pub use annealing::{Annealing, AnnealingConfig};
pub use astar_prune::{astar_prune, AStarPruneConfig, PathMetric, RouteScratch, SearchStats};
pub use cache::{AnnealScratch, ArTables, ArView, MapCache, RoundingScratch};
pub use consolidation::{drain_stage, ConsolidatingHmn, DrainStats};
pub use dfs_routing::{naive_dfs_route, DfsRouter, DfsScratch, WANDER_PROBABILITY};
pub use diagnostics::{cluster_diagnostics, diagnose_route, ClusterDiagnostics};
pub use emumap_trace::LinkVerdict;
pub use error::MapError;
pub use exact::{
    residual_stddev_lower_bound, solve_exact_with, BoundKind, ExactConfig, ExactOutcome,
    ExactSolution, ExactStats, ExactStatus, SymmetryCertificate,
};
pub use greedy::{BestFit, FirstFitDecreasing, WorstFit};
pub use hmn::{Hmn, HmnConfig, LinkOrder};
pub use hosting::{hosting_stage, links_by_descending_bw, HostingPolicy, HostingStats};
pub use ksp_routing::{HmnKsp, YenKsp};
pub use lagrangian::{
    lagrangian_bound, lagrangian_bound_for_partial, tightest_peer_bounds, LagrangianBound,
    LagrangianScratch, NodeView,
};
pub use mapper::{MapOutcome, MapStats, Mapper};
pub use migration::{migration_stage, migration_stage_exhaustive, MigrationPolicy, MigrationStats};
pub use networking::{networking_stage, LinkRequest, LinkRouter, Routed};
pub use parallel::ParallelRunner;
pub use pool::{HeuristicPool, PoolPolicy};
pub use random::{HostingDfs, RandomAStar, RandomDfs, DEFAULT_MAX_ATTEMPTS};
pub use registry::{
    build_mapper, find_mapper, mapper_keys, mapper_usage, MapperConfig, MapperEntry, MAPPERS,
};
pub use rounding::{RandomizedRounding, RoundingConfig};
pub use serve::{
    AdmitReport, ApplyOutcome, RemoveReport, ServeError, Session, Snapshot, StatusReport,
    TenantRecord, SNAPSHOT_VERSION,
};
pub use state::{HostOrder, PlacementState};
pub use tempering::{ParallelTempering, TemperingConfig};
