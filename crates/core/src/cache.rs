//! Reusable per-worker caches for the routing hot paths.
//!
//! §5.2 of the paper observes that "most part of mapping time is spend in
//! the Networking stage to calculate the shortest path of each host to the
//! link destination". [`ArTables`] keeps those `ar[]` tables for the
//! topology's lifetime: they depend only on link latencies, never on
//! residual bandwidth or the virtual environment, so they survive across
//! trials and are invalidated only when the topology's generation (its
//! shape, ids and link latencies) changes. It also builds one table per
//! *attachment point* rather than per destination: a leaf host reads the
//! table of the switch it hangs off, so the hosts behind one switch share
//! a single Dijkstra run. The adjacency every search walks is not cached
//! here: the physical graph owns it ([`emumap_graph::Graph::csr`]).
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
use emumap_graph::algo::dijkstra_seeded;
use emumap_graph::{CsrAdjacency, EdgeId, NodeId};
use emumap_model::{GuestId, LinkSpec, PhysicalTopology};
use emumap_trace::Tracer;
use std::collections::HashMap;
use std::ops::Index;

/// A destination's distance table: `view[v]` is the shortest distance
/// from node index `v` to the destination, `f64::INFINITY` if
/// unreachable, and exactly `0.0` at the destination itself.
///
/// [`ArTables`] hands these out over a table it shares between the leaves
/// of one attachment point; such a table holds `2 * cost(e)` at the leaf,
/// which the view masks.
#[derive(Clone, Copy, Debug)]
pub struct ArView<'a> {
    table: &'a [f64],
    dest: usize,
}

impl<'a> ArView<'a> {
    /// A view of `table` as distances to `dest`; `table` is indexed by
    /// [`NodeId::index`], e.g. a [`dijkstra`](emumap_graph::algo::dijkstra)
    /// run rooted at `dest`.
    pub fn new(table: &'a [f64], dest: NodeId) -> Self {
        ArView {
            table,
            dest: dest.index(),
        }
    }
}

impl Index<usize> for ArView<'_> {
    type Output = f64;

    #[inline]
    fn index(&self, v: usize) -> &f64 {
        if v == self.dest {
            &0.0
        } else {
            &self.table[v]
        }
    }
}

/// Which edge cost a table family sums.
#[derive(Clone, Copy)]
enum Family {
    /// Link latency: the `ar[]` tables.
    Latency,
    /// Unit cost: hop counts.
    Hops,
}

impl Family {
    fn cost(self, link: &LinkSpec) -> f64 {
        match self {
            Family::Latency => link.lat.value(),
            Family::Hops => 1.0,
        }
    }
}

/// Topology-lifetime cache of Dijkstra distance tables.
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
///
/// Tables are stored per *attachment key*, not per destination. A node
/// whose only neighbour is another node `s`, over edge `e`, reads the
/// table rooted at `s` with start distance `cost(e)`: every path out of it
/// runs through `s`, so that table equals its own bit for bit everywhere
/// but at the node itself, which [`ArView`] reads as `0.0`. Every other
/// node reads its own table. On a fat-tree or the paper's switched
/// cluster this turns one Dijkstra per destination host into one per edge
/// switch.
#[derive(Debug, Default)]
pub struct ArTables {
    /// Generation of the topology the tables were built for (0 = unset,
    /// which no topology has).
    generation: u64,
    /// Table slot each node reads as a destination, by node index.
    slot_of: Vec<u32>,
    /// Per slot: the root its tables are built from, and the leaf edge
    /// whose cost seeds the root (`None` for a node's own table).
    roots: Vec<(NodeId, Option<EdgeId>)>,
    /// Latency tables by slot; empty until first requested.
    ar: Vec<Vec<f64>>,
    /// Hop-count tables by slot; empty until first requested.
    hops: Vec<Vec<f64>>,
    dijkstra_runs: usize,
    hits: usize,
}

impl ArTables {
    /// Empty cache; the first [`prepare`](Self::prepare) binds it.
    pub fn new() -> Self {
        ArTables::default()
    }

    /// Binds the cache to `phys`, rebuilding the attachment slots and
    /// dropping all tables if the topology's generation changed since the
    /// last call. Returns `true` when the cached tables were kept.
    pub fn prepare(&mut self, phys: &PhysicalTopology) -> bool {
        // O(1): every trial of a benchmark sweep after the first, and every
        // serve apply on the session's derived topology, keeps the tables.
        if phys.generation() == self.generation {
            return true;
        }
        self.generation = phys.generation();
        let csr = phys.graph().csr();
        self.slot_of.clear();
        self.roots.clear();
        // Leaves behind one node share a slot when their edges' latencies
        // are bit-equal (the hop family's start, 1.0, is then equal too).
        let mut leaf_slots: HashMap<(NodeId, u64), u32> = HashMap::new();
        for v in phys.graph().node_ids() {
            let roots = &mut self.roots;
            let mut new_slot = |key| {
                roots.push(key);
                u32::try_from(roots.len() - 1).expect("node ids fit in u32")
            };
            let slot = match *csr.neighbors(v) {
                [nb] if nb.node != v => {
                    let lat = phys.link(nb.edge).lat.value().to_bits();
                    *leaf_slots
                        .entry((nb.node, lat))
                        .or_insert_with(|| new_slot((nb.node, Some(nb.edge))))
                }
                _ => new_slot((v, None)),
            };
            self.slot_of.push(slot);
        }
        for tables in [&mut self.ar, &mut self.hops] {
            tables.clear();
            tables.resize(self.roots.len(), Vec::new());
        }
        false
    }

    /// The latency `ar[]` table of `dest`, with the adjacency of `phys`'s
    /// graph beside it.
    ///
    /// Must be called after [`prepare`](Self::prepare) on the same `phys`.
    pub fn ar_and_csr<'p>(
        &mut self,
        phys: &'p PhysicalTopology,
        dest: NodeId,
    ) -> (ArView<'_>, &'p CsrAdjacency) {
        self.lookup(phys, dest, Family::Latency)
    }

    /// Unit-cost hop-count table of `dest` (the DFS neighbor-order bias of
    /// the baselines), with the adjacency of `phys`'s graph beside it.
    /// Same caching discipline as [`ar_and_csr`](Self::ar_and_csr).
    pub fn hops_and_csr<'p>(
        &mut self,
        phys: &'p PhysicalTopology,
        dest: NodeId,
    ) -> (ArView<'_>, &'p CsrAdjacency) {
        self.lookup(phys, dest, Family::Hops)
    }

    fn lookup<'p>(
        &mut self,
        phys: &'p PhysicalTopology,
        dest: NodeId,
        family: Family,
    ) -> (ArView<'_>, &'p CsrAdjacency) {
        debug_assert_eq!(
            self.generation,
            phys.generation(),
            "call ArTables::prepare first"
        );
        let slot = self.slot_of[dest.index()] as usize;
        let table = match family {
            Family::Latency => &mut self.ar[slot],
            Family::Hops => &mut self.hops[slot],
        };
        if table.is_empty() {
            self.dijkstra_runs += 1;
            let (root, via) = self.roots[slot];
            // `0.0 + cost` is exactly the leaf's own first relaxation.
            let start = via.map_or(0.0, |e| 0.0 + family.cost(phys.link(e)));
            *table = dijkstra_seeded(phys.graph(), root, start, |_, link| family.cost(link))
                .into_distances();
        } else {
            self.hits += 1;
        }
        (ArView::new(table, dest), phys.graph().csr())
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
/// Pass one per thread to
/// [`Mapper::map_with_cache`](crate::Mapper::map_with_cache); results are
/// identical to a fresh cache's for any cache history.
#[derive(Debug, Default)]
pub struct MapCache {
    /// Cross-trial Dijkstra tables.
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
    use emumap_graph::{generators, Graph};
    use emumap_model::{
        HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysNode, StorGb, VmmOverhead,
    };

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
    fn leaves_share_their_switch_table_per_link_latency() {
        // One switch with three 5 ms leaves and one 7 ms leaf.
        let mut g = Graph::new();
        let sw = g.add_node(PhysNode::Switch);
        for lat in [5.0, 5.0, 5.0, 7.0] {
            let spec = HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0));
            let h = g.add_node(PhysNode::Host(spec));
            g.add_edge(h, sw, LinkSpec::new(Kbps(1000.0), Millis(lat)));
        }
        let phys = PhysicalTopology::from_graph(g, VmmOverhead::NONE);
        let h = phys.hosts();
        let mut t = ArTables::new();
        t.prepare(&phys);
        for &dest in h {
            let (ar, _) = t.ar_and_csr(&phys, dest);
            assert_eq!(ar[dest.index()], 0.0);
        }
        assert_eq!(t.dijkstra_runs(), 2, "one table per (switch, latency)");
        assert_eq!(t.hits(), 2);
        let (ar, _) = t.ar_and_csr(&phys, h[0]);
        assert_eq!(
            (ar[h[1].index()], ar[h[3].index()], ar[sw.index()]),
            (10.0, 12.0, 5.0)
        );
        let (hops, _) = t.hops_and_csr(&phys, h[3]);
        assert_eq!((hops[h[0].index()], hops[h[3].index()]), (2.0, 0.0));
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
