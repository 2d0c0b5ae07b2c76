//! Reusable per-worker caches for the routing hot paths.
//!
//! §5.2 of the paper observes that "most part of mapping time is spend in
//! the Networking stage to calculate the shortest path of each host to the
//! link destination". The per-`networking_stage` `HashMap` cache already
//! collapses that to one Dijkstra per distinct destination *per trial* —
//! but a benchmark sweep runs hundreds of trials on the *same* topology,
//! and the `ar[]` tables depend only on link latencies, never on residual
//! bandwidth or the virtual environment. [`ArTables`] promotes the cache
//! to topology lifetime: tables survive across trials and are invalidated
//! only when the topology's generation (its shape, ids and link latencies)
//! changes.
//!
//! [`MapCache`] bundles the table cache with the search scratch buffers
//! ([`RouteScratch`], [`DfsScratch`]) into the one state blob a worker
//! thread owns. Apart from the [`Tracer`] (a passive observer), everything
//! here is a pure cache: any sequence of mapper calls produces
//! bit-identical results with a fresh cache, a warm cache, or a cache
//! previously used on a different topology — and the *decision* stream of
//! trace events is equally cache-independent (see `emumap_trace`).

use crate::astar_prune::RouteScratch;
use crate::dfs_routing::DfsScratch;
use emumap_graph::algo::dijkstra;
use emumap_graph::{CsrAdjacency, NodeId};
use emumap_model::{GuestId, PhysicalTopology};
use emumap_trace::Tracer;
use std::collections::HashMap;

/// Topology-lifetime cache of per-destination Dijkstra tables plus the CSR
/// adjacency snapshot the searches iterate.
///
/// Two table families are kept:
///
/// * `ar` — latency-to-destination (the admissible `ar[]` lower bound of
///   the paper's Algorithm 1), used by A\*Prune and the KSP early-exit;
/// * `hops` — unit-cost hop counts, used to bias the naive DFS router of
///   the R / RA / HS baselines.
///
/// Both depend only on the topology (latencies / connectivity), so they are
/// keyed by [`PhysicalTopology::generation`] and survive across trials,
/// mappers, and virtual environments on the same cluster, and across the
/// residual-capacity copies a serve session derives from it.
#[derive(Debug, Default)]
pub struct ArTables {
    /// Generation of the topology the tables were built for (0 = unset,
    /// which no topology has).
    generation: u64,
    csr: CsrAdjacency,
    ar: HashMap<NodeId, Vec<f64>>,
    hops: HashMap<NodeId, Vec<f64>>,
    dijkstra_runs: usize,
    hits: usize,
}

impl ArTables {
    /// Empty cache; first [`prepare`](Self::prepare) populates the CSR view.
    pub fn new() -> Self {
        ArTables::default()
    }

    /// Binds the cache to `phys`, rebuilding the CSR snapshot and dropping
    /// all tables if the topology's generation changed since the last
    /// call. Returns `true` when the cached tables were kept.
    pub fn prepare(&mut self, phys: &PhysicalTopology) -> bool {
        // O(1): every trial of a benchmark sweep after the first, and every
        // serve apply on the session's derived topology, keeps the tables.
        if phys.generation() == self.generation {
            return true;
        }
        self.generation = phys.generation();
        self.csr = phys.graph().to_csr();
        self.ar.clear();
        self.hops.clear();
        false
    }

    /// The latency `ar[]` table rooted at `dest` together with the CSR
    /// snapshot, both under one borrow (callers need them simultaneously
    /// for [`astar_prune`](crate::astar_prune)).
    ///
    /// Must be called after [`prepare`](Self::prepare) on the same `phys`.
    pub fn ar_and_csr(&mut self, phys: &PhysicalTopology, dest: NodeId) -> (&[f64], &CsrAdjacency) {
        debug_assert_eq!(
            self.generation,
            phys.generation(),
            "call ArTables::prepare first"
        );
        if !self.ar.contains_key(&dest) {
            self.dijkstra_runs += 1;
            let table = dijkstra(phys.graph(), &self.csr, dest, |_, link| link.lat.value())
                .into_distances();
            self.ar.insert(dest, table);
        } else {
            self.hits += 1;
        }
        (self.ar.get(&dest).expect("just inserted"), &self.csr)
    }

    /// Unit-cost hop-count table rooted at `dest` (the DFS neighbor-order
    /// bias of the baselines) together with the CSR snapshot the DFS routes
    /// through. Same caching discipline as [`ar_and_csr`](Self::ar_and_csr).
    pub fn hops_and_csr(
        &mut self,
        phys: &PhysicalTopology,
        dest: NodeId,
    ) -> (&[f64], &CsrAdjacency) {
        debug_assert_eq!(
            self.generation,
            phys.generation(),
            "call ArTables::prepare first"
        );
        if !self.hops.contains_key(&dest) {
            self.dijkstra_runs += 1;
            let table = dijkstra(phys.graph(), &self.csr, dest, |_, _| 1.0).into_distances();
            self.hops.insert(dest, table);
        } else {
            self.hits += 1;
        }
        (self.hops.get(&dest).expect("just inserted"), &self.csr)
    }

    /// The CSR adjacency snapshot of the prepared topology.
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }

    /// Total Dijkstra runs since construction (both table families).
    pub fn dijkstra_runs(&self) -> usize {
        self.dijkstra_runs
    }

    /// Table lookups answered from cache since construction.
    pub fn hits(&self) -> usize {
        self.hits
    }
}

/// Reusable buffers for the annealer's search loop: the host list the
/// proposal sampler indexes, the best-placement snapshot, and the
/// displaced-guest list of the final restore. With these owned by the
/// [`MapCache`], the steady-state annealing loop performs no allocations
/// at all — proposals are evaluated as accumulator deltas and the only
/// vectors involved are these, refilled in place.
#[derive(Debug, Default)]
pub struct AnnealScratch {
    /// Host ids in `phys.hosts()` order (proposal sampling).
    pub(crate) hosts: Vec<NodeId>,
    /// Best placement visited, dense by guest index.
    pub(crate) best: Vec<NodeId>,
    /// Guests whose final host differs from the best snapshot (restore).
    pub(crate) displaced: Vec<GuestId>,
}

impl AnnealScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        AnnealScratch::default()
    }

    /// Clears the buffers for a new run, keeping their capacity.
    pub(crate) fn begin(&mut self) {
        self.hosts.clear();
        self.best.clear();
        self.displaced.clear();
    }
}

/// Reusable buffers for the randomized-rounding mapper's fractional
/// solve + rounding loop. The big flat buffers (the guests × hosts
/// distribution matrix, price and load vectors, the per-iteration cost
/// row) keep their capacity across runs so the steady-state LP loop
/// allocates only inside Dijkstra table builds — the same discipline as
/// [`ArTables`].
#[derive(Debug, Default)]
pub struct RoundingScratch {
    /// The fractional placement `x[g][h]` under refinement.
    pub(crate) frac: emumap_model::FractionalPlacement,
    /// Expected per-host resource loads induced by `frac`.
    pub(crate) loads: emumap_model::ExpectedLoads,
    /// Multiplicative-weights congestion price per host (dense host index).
    pub(crate) host_prices: Vec<f64>,
    /// Congestion price per physical edge (dense edge index).
    pub(crate) edge_prices: Vec<f64>,
    /// Expected bandwidth utilization per physical edge this iteration.
    pub(crate) edge_loads: Vec<f64>,
    /// Per-guest normalized worst-resource demand per host (guests × hosts).
    pub(crate) fit_cost: Vec<f64>,
    /// Current mode (argmax) host per guest, dense host index.
    pub(crate) modes: Vec<usize>,
    /// One cost row (hosts long), rebuilt per guest per iteration.
    pub(crate) cost_row: Vec<f64>,
    /// Priced-Dijkstra tables rooted at this iteration's mode hosts.
    pub(crate) priced: Vec<(NodeId, emumap_graph::algo::DijkstraResult)>,
    /// Sampled placement of the current rounding attempt, by guest index.
    pub(crate) sampled: Vec<NodeId>,
}

impl RoundingScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        RoundingScratch::default()
    }

    /// Clears the buffers for a new run, keeping their capacity.
    pub(crate) fn begin(&mut self) {
        self.host_prices.clear();
        self.edge_prices.clear();
        self.edge_loads.clear();
        self.fit_cost.clear();
        self.modes.clear();
        self.cost_row.clear();
        self.priced.clear();
        self.sampled.clear();
    }
}

/// Everything a worker reuses across mapper calls: topology tables plus
/// the A\*Prune and DFS scratch buffers.
///
/// Pass one per thread to [`Mapper::map_with_cache`](crate::Mapper::
/// map_with_cache); results are identical to a fresh cache's for any
/// cache history.
#[derive(Debug, Default)]
pub struct MapCache {
    /// Cross-trial Dijkstra tables + CSR adjacency.
    pub topo: ArTables,
    /// A\*Prune arena/heap/on-path buffers.
    pub scratch: RouteScratch,
    /// Naive-DFS stack and visited buffers.
    pub dfs: DfsScratch,
    /// Annealing-loop buffers (host list, best placement, restore list).
    pub anneal: AnnealScratch,
    /// Randomized-rounding buffers (fractional matrix, prices, loads).
    pub rounding: RoundingScratch,
    /// Lagrangian-bound buffers (priced tables, multipliers, gradients)
    /// for the exact oracle.
    pub lagrangian: crate::lagrangian::LagrangianScratch,
    /// Structured-event tracer; disabled (zero-cost) by default. Attach a
    /// sink with [`Tracer::new`] to stream [`emumap_trace::TraceEvent`]s
    /// from every mapper run through this cache.
    pub trace: Tracer,
}

impl MapCache {
    /// Fresh, cold cache.
    pub fn new() -> Self {
        MapCache::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, StorGb, VmmOverhead};

    fn phys_line(n: usize, lat: f64) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::line(n),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0))),
            LinkSpec::new(Kbps(1000.0), Millis(lat)),
            VmmOverhead::NONE,
        )
    }

    #[test]
    fn tables_survive_repeated_prepare_on_same_topology() {
        let phys = phys_line(4, 5.0);
        let mut t = ArTables::new();
        assert!(!t.prepare(&phys), "first prepare is a rebuild");
        let dest = phys.hosts()[3];
        let (ar, _) = t.ar_and_csr(&phys, dest);
        assert_eq!(ar[phys.hosts()[0].index()], 15.0);
        assert_eq!(t.dijkstra_runs(), 1);

        assert!(t.prepare(&phys), "same topology keeps tables");
        let _ = t.ar_and_csr(&phys, dest);
        assert_eq!(t.dijkstra_runs(), 1, "second lookup is a hit");
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn residual_copy_keeps_tables_but_a_fresh_build_does_not() {
        let phys = phys_line(4, 5.0);
        let mut t = ArTables::new();
        t.prepare(&phys);
        let _ = t.ar_and_csr(&phys, phys.hosts()[3]);
        let copy = phys.with_capacities(|h| *phys.host_spec(h), |_| Kbps(1.0));
        assert!(t.prepare(&copy), "same generation keeps tables");
        let _ = t.ar_and_csr(&copy, copy.hosts()[3]);
        assert_eq!(t.dijkstra_runs(), 1);
        // Round-trip through JSON: same content, fresh generation.
        let json = serde_json::to_string(&phys).unwrap();
        let reparsed: PhysicalTopology = serde_json::from_str(&json).unwrap();
        assert!(!t.prepare(&reparsed), "a new generation rebuilds");
    }

    #[test]
    fn topology_change_invalidates_tables() {
        let a = phys_line(4, 5.0);
        let b = phys_line(4, 7.0); // same shape, different latencies
        let mut t = ArTables::new();
        t.prepare(&a);
        let (ar, _) = t.ar_and_csr(&a, a.hosts()[3]);
        assert_eq!(ar[a.hosts()[0].index()], 15.0);
        assert!(!t.prepare(&b), "latency change must rebuild");
        let (ar, _) = t.ar_and_csr(&b, b.hosts()[3]);
        assert_eq!(ar[b.hosts()[0].index()], 21.0);
    }

    #[test]
    fn hop_tables_use_unit_costs() {
        let phys = phys_line(5, 3.0);
        let mut t = ArTables::new();
        t.prepare(&phys);
        let (hops, _) = t.hops_and_csr(&phys, phys.hosts()[4]);
        assert_eq!(hops[phys.hosts()[0].index()], 4.0);
        assert_eq!(hops[phys.hosts()[4].index()], 0.0);
    }

    #[test]
    fn ar_and_hops_are_cached_independently() {
        let phys = phys_line(3, 5.0);
        let mut t = ArTables::new();
        t.prepare(&phys);
        let dest = phys.hosts()[2];
        let _ = t.ar_and_csr(&phys, dest);
        let _ = t.hops_and_csr(&phys, dest);
        assert_eq!(t.dijkstra_runs(), 2, "latency and hop tables are distinct");
        let _ = t.ar_and_csr(&phys, dest);
        let _ = t.hops_and_csr(&phys, dest);
        assert_eq!(t.dijkstra_runs(), 2);
        assert_eq!(t.hits(), 2);
    }
}
