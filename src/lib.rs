//! # emumap
//!
//! A complete, from-scratch reproduction of **"A Heuristic for Mapping
//! Virtual Machines and Links in Emulation Testbeds"** (Calheiros, Buyya &
//! De Rose, ICPP 2009): the HMN heuristic, the paper's baselines, the
//! simulation substrate, the Table 1 workload generators, and the full
//! evaluation harness.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `emumap-graph` | graphs, Dijkstra/BFS paths, topology generators |
//! | [`model`] | `emumap-model` | clusters, virtual environments, mappings, Eqs. 1–10 |
//! | [`mapping`] | `emumap-core` | HMN, R, RA, HS, pool & consolidation extensions |
//! | [`sim`] | `emumap-sim` | CloudSim-equivalent DES, experiment runtime model |
//! | [`workloads`] | `emumap-workloads` | Table 1 scenario/workload generators |
//!
//! ## Quickstart
//!
//! ```
//! use emumap::prelude::*;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // The paper's cluster: 40 heterogeneous hosts in a 2-D torus.
//! let cluster = ClusterSpec::paper();
//! let mut rng = SmallRng::seed_from_u64(2009);
//! let phys = cluster.build(ClusterSpec::paper_torus(), &mut rng);
//!
//! // A 100-guest high-level virtual environment (2.5 guests per host).
//! let venv = VirtualEnvSpec::high_level(100, 0.02).generate(&mut rng);
//!
//! // Map it with HMN and check every constraint of the formal model.
//! let outcome = Hmn::new().map(&phys, &venv, &mut rng).expect("mappable");
//! assert_eq!(validate_mapping(&phys, &venv, &outcome.mapping), Ok(()));
//!
//! // Run the emulated experiment on the mapped testbed.
//! let result = run_experiment(&phys, &venv, &outcome.mapping, &ExperimentSpec::default());
//! println!(
//!     "objective = {:.1} MIPS stddev, experiment = {:.1}s",
//!     outcome.objective, result.total_s
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use emumap_core as mapping;
pub use emumap_graph as graph;
pub use emumap_model as model;
pub use emumap_sim as sim;
pub use emumap_workloads as workloads;

/// One-stop imports for the common workflow: build a cluster, generate a
/// virtual environment, map it, validate, simulate.
pub mod prelude {
    pub use emumap_core::{
        build_mapper, cluster_diagnostics, diagnose_route, lagrangian_bound_for_partial,
        residual_stddev_lower_bound, solve_exact_with, tightest_peer_bounds, AStarPruneConfig,
        AdmitReport, Annealing, AnnealingConfig, ApplyOutcome, ArTables, BestFit, BoundKind,
        ClusterDiagnostics, ConsolidatingHmn, ExactConfig, ExactOutcome, ExactSolution, ExactStats,
        ExactStatus, FirstFitDecreasing, HeuristicPool, Hmn, HmnConfig, HmnKsp, HostingDfs,
        HostingPolicy, LagrangianBound, LagrangianScratch, LinkOrder, LinkVerdict, MapCache,
        MapError, MapOutcome, MapStats, Mapper, MapperConfig, MapperEntry, MigrationPolicy,
        PathMetric, PoolPolicy, RandomAStar, RandomDfs, RandomizedRounding, RemoveReport,
        RoundingConfig, ServeError, Session, Snapshot, StatusReport, SymmetryCertificate,
        TenantRecord, WorstFit, MAPPERS,
    };
    pub use emumap_graph::{generators, EdgeId, Graph, NodeId};
    pub use emumap_model::{
        objective, validate_mapping, GuestId, GuestSpec, HostSpec, Kbps, LinkSpec, Mapping, MemMb,
        Millis, Mips, PhysicalTopology, ResidualState, Route, StorGb, VLinkId, VLinkSpec,
        Violation, VirtualEnvironment, VmmOverhead,
    };
    pub use emumap_sim::{
        run_experiment, ExperimentResult, ExperimentSpec, NetworkModel, RateModel, SimTime,
    };
    pub use emumap_workloads::{
        instantiate, instantiate_both, paper_scenarios, ClusterSpec, ClusterTopology, Distribution,
        Instance, Range, Scenario, VirtualEnvSpec, WorkloadKind,
    };
}
