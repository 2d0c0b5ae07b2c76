//! The modified 1-constrained A\*Prune path search (paper §4.3,
//! Algorithm 1), after Liu & Ramakrishnan (INFOCOM 2001).
//!
//! A\*Prune keeps a set of feasible partial paths and repeatedly expands the
//! most promising one. The paper's modification selects by **greatest
//! bottleneck bandwidth** ("the rationale ... is to keep the links with the
//! largest amount of bandwidth available to map the rest of the links") and
//! prunes with two tests:
//!
//! * *bandwidth*: an edge whose residual bandwidth is below the link's
//!   demand can never appear on a feasible path — drop it;
//! * *latency admissibility*: `ar[h]` is the unconstrained Dijkstra latency
//!   from `h` to the destination, an admissible lower bound, so any partial
//!   path with `accumulated + edge + ar[h] > bound` can never satisfy
//!   Eq. 8 — drop it. (The paper's pseudocode prints the test as
//!   `lat((d,h)) + ar[h] <= latency`; we include the accumulated latency of
//!   the partial path, without which the printed test would accept paths
//!   that already exceed the bound — the accumulated term is clearly
//!   intended, as A\*Prune's original definition uses the full
//!   `g + h`-style estimate.)
//!
//! # The bandwidth guide
//!
//! With the paper's configuration (bottleneck metric, `ar[]` bound on,
//! dominance pruning off) most expansions cannot lead to the returned
//! path: the search explores every lightly loaded region of the graph
//! before it learns that the destination is only reachable through a
//! narrower edge. A bandwidth floor plus one additive bound is polynomial
//! (Wang & Crowcroft, IEEE JSAC 1996), so before searching, [`astar_prune`]
//! computes the answer's bottleneck `b*` exactly and hands the loop three
//! tighter values:
//!
//! 1. The distinct residuals `>= demand` are the candidate levels; none
//!    above the widest bottleneck between the endpoints (Kruskal's order
//!    over a union–find) connects them. For a level `b`, let `lat(b)` be
//!    the shortest latency from the origin to the destination over the
//!    edges with residual `>= b` (a Dijkstra rooted at the destination,
//!    stopped early). Starting at the widest level, which is usually the
//!    answer, a binary search finds the highest level with
//!    `lat(b) <= bound`, with no slack.
//! 2. That level is `b*` only if the next higher one is out of reach even
//!    with the loop's `1e-9` acceptance slack plus rounding:
//!    `lat(next) > bound + 2e-9`. Otherwise the guide gives up and the
//!    search runs unguided. If the endpoints are not connected, or no
//!    level is feasible and the lowest has `lat > bound + 2e-9`, the
//!    search returns `None`: no path exists, a proof rather than an
//!    exhausted budget.
//! 3. The loop then runs with floor `b*` instead of the demand, the
//!    level's latency table `T` instead of `ar[]`, and cap
//!    `T[origin] + 1e-9` instead of `bound + 1e-9`.
//!
//! **Why the path is identical.** A child's key is strictly below its
//! parent's, so the loop pops candidates in key order, and the answer `A`
//! is the first destination candidate in that order. Its bottleneck is
//! `b*`: the level's shortest path passes every test, and step 2 rules
//! out anything wider. So every candidate popped before `A` is at least
//! `b*` wide. `A` has latency at most `T[origin]` (up to rounding),
//! because the level's shortest path is a rival with the same
//! bottleneck, so all of its prefixes pass the guided tests. The guided
//! tests are at least as strict as the paper's (`b* >= demand`,
//! `T >= ar`, `T[origin] <= bound`), so the guided search sees a
//! prefix-closed subset of the same candidates that still holds `A`; the
//! survivors keep their relative pop and push order, push-order
//! tie-breaks included, and the first destination pop is `A` again. Only a search that used to hit
//! `max_expansions` can now succeed. "Up to rounding" needs the rounding
//! error of a loop-free path's latency sum well below the `1e-9` slack,
//! so the guide runs only while `node_count * bound * f64::EPSILON` is.
//! [`SearchStats::guide_probes`] counts the guide's Dijkstra runs.
//!
//! Partial paths are stored in an arena (parent-pointer tree) so expanding
//! a path is O(1) in memory instead of cloning edge vectors. The candidate
//! heap holds 32-byte entries: the arena index plus a key of three `u64`s
//! that encode the path's bottleneck, latency and hop count so that integer
//! order is the selection order (ties go to the earlier push), and the
//! three values are decoded from the key when a candidate is popped. The
//! loop check (Eq. 7) is O(1) per neighbour: each expansion stamps the
//! nodes of its partial path into a per-node array and a neighbour is on
//! the path iff it carries the current stamp.

use crate::cache::ArView;
use emumap_graph::algo::{DijkstraScratch, UnionFind};
use emumap_graph::{EdgeId, NodeId};
use emumap_model::{Kbps, Millis, PhysicalTopology, ResidualState};
use std::collections::BinaryHeap;

/// Which quantity the search maximizes when choosing the next partial path
/// to expand. [`PathMetric::BottleneckBandwidth`] is the paper's choice;
/// [`PathMetric::HopCount`] is provided for the ablation bench (classic
/// shortest-path behaviour).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PathMetric {
    /// Prefer the partial path whose minimum residual edge bandwidth is
    /// largest (the paper's widest-path metric).
    #[default]
    BottleneckBandwidth,
    /// Prefer the partial path with the fewest hops (ablation).
    HopCount,
}

/// Tuning knobs for the search.
#[derive(Clone, Copy, Debug)]
pub struct AStarPruneConfig {
    /// Path-selection metric (paper: bottleneck bandwidth).
    pub metric: PathMetric,
    /// Use the Dijkstra latency lower bound `ar[]` for pruning (paper:
    /// yes). With `false`, pruning only checks the accumulated latency —
    /// still correct, explores more paths (ablation).
    pub use_latency_lower_bound: bool,
    /// Hard cap on expanded partial paths; exceeded means "no path found".
    /// A safety valve against pathological exponential blow-ups in dense
    /// graphs; the paper's 40-host clusters stay far below it.
    pub max_expansions: usize,
    /// Per-node Pareto dominance pruning (datacenter-scale accelerator):
    /// drop a candidate reaching a node with `(bottleneck, latency, hops)`
    /// all no better than a label already recorded there. On
    /// high-multiplicity fabrics (fat-trees), where the exhaustive search
    /// enumerates every loop-free path inside the latency bound, this keeps
    /// the frontier near-linear in the node count. It is a heuristic: the
    /// dominating label's extensions may be blocked by the loop check where
    /// the dominated one's were not, so in adversarial topologies a feasible
    /// path can be missed, and tie-breaking among equal-metric paths can
    /// differ from the exhaustive order. Paper-faithful runs leave it off
    /// (the default); the 10k-host scale bench switches it on. The
    /// bandwidth guide (module docs) does not run with it.
    pub prune_dominated: bool,
}

impl Default for AStarPruneConfig {
    fn default() -> Self {
        AStarPruneConfig {
            metric: PathMetric::BottleneckBandwidth,
            use_latency_lower_bound: true,
            max_expansions: 1_000_000,
            prune_dominated: false,
        }
    }
}

/// Search statistics, surfaced for Figure 1 analysis and the ablation
/// benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Partial paths popped from the candidate set.
    pub expanded: usize,
    /// Partial paths pushed into the candidate set.
    pub pushed: usize,
    /// Candidates dropped by Pareto dominance pruning (0 unless
    /// [`AStarPruneConfig::prune_dominated`] is set).
    pub dominated: usize,
    /// Dijkstra runs of the bandwidth guide (module docs); 0 when the
    /// configuration does not run it.
    pub guide_probes: usize,
}

/// One arena slot: a partial path represented as a parent pointer.
#[derive(Debug)]
struct PathNode {
    parent: u32,
    /// Edge taken from the parent's end node (undefined for the root).
    edge: EdgeId,
    /// End node of this partial path.
    end: NodeId,
}

const ROOT: u32 = u32::MAX;

/// A candidate in the priority queue: the partial path's arena slot and a
/// key of three integers whose lexicographic max-order pops the best
/// candidate first under either metric.
///
/// The key stores the path's bottleneck, latency and hop count in an
/// order-preserving integer form (see [`ord`]), so comparing two candidates
/// is three `u64` compares, and the values are decoded back from it on pop
/// ([`Candidate::unpack`]) instead of being stored twice. Ties on the whole
/// key go to the smaller arena index, i.e. the earlier push (FIFO): arena
/// slots are allocated in push order, so the index is the push sequence.
#[derive(Debug, PartialEq, Eq)]
struct Candidate {
    key: [u64; 3],
    arena_index: u32,
}

// The heap moves candidates on every push and pop; keep them at 32 bytes.
const _: () = assert!(std::mem::size_of::<Candidate>() == 32);

impl Candidate {
    fn new(metric: PathMetric, bottleneck: f64, latency: f64, hops: u32, arena_index: u32) -> Self {
        let (b, lat, hops) = (ord(bottleneck), !ord(latency), !u64::from(hops));
        let key = match metric {
            // Max bottleneck; among equals, min latency, then min hops.
            PathMetric::BottleneckBandwidth => [b, lat, hops],
            PathMetric::HopCount => [hops, b, lat],
        };
        Candidate { key, arena_index }
    }

    /// `(bottleneck, latency, hops)` as passed to [`Candidate::new`], bit
    /// for bit.
    fn unpack(&self, metric: PathMetric) -> (f64, f64, u32) {
        let [b, lat, hops] = match metric {
            PathMetric::BottleneckBandwidth => self.key,
            PathMetric::HopCount => [self.key[1], self.key[2], self.key[0]],
        };
        (unord(b), unord(!lat), !hops as u32)
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.arena_index.cmp(&self.arena_index))
    }
}

/// Maps a float to a `u64` whose unsigned order equals [`f64::total_cmp`]:
/// floats with a clear sign bit get it set, the others are inverted.
/// `!ord(x) == ord(-x)`, so `!` negates a key field.
fn ord(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Inverse of [`ord`].
fn unord(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Reusable buffers for [`astar_prune`]: the search frontier and the
/// bandwidth guide's Dijkstra buffers.
///
/// One search of a paper-scale instance pushes thousands of arena nodes and
/// heap candidates; a mapping routes thousands of links, so a fresh
/// allocation per search puts the allocator squarely on the hot path.
/// Keeping one `RouteScratch` per worker amortizes those buffers across
/// every search of a trial (and across trials): after warm-up the search
/// itself allocates nothing but the returned edge sequence.
#[derive(Debug, Default)]
pub struct RouteScratch {
    frontier: Frontier,
    guide: GuideScratch,
}

impl RouteScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        RouteScratch::default()
    }
}

/// The loop's buffers: the partial-path arena, the candidate heap, the
/// per-node on-path stamps and the dominance labels.
#[derive(Debug, Default)]
struct Frontier {
    arena: Vec<PathNode>,
    heap: BinaryHeap<Candidate>,
    /// Loop check (Eq. 7): `on_path[v] == stamp` iff node `v` lies on the
    /// partial path being expanded. Every expansion takes a fresh stamp,
    /// so nothing is cleared between expansions or searches.
    on_path: Vec<u32>,
    stamp: u32,
    /// Per-node Pareto labels `(bottleneck, latency, hops)` for dominance
    /// pruning; indexed by node, reset lazily via `touched`.
    labels: Vec<Vec<(f64, f64, u32)>>,
    touched: Vec<u32>,
}

impl Frontier {
    /// Clears the buffers for a new search on a graph of `node_count`
    /// nodes, keeping their capacity.
    fn begin(&mut self, node_count: usize) {
        self.arena.clear();
        self.heap.clear();
        if self.on_path.len() < node_count {
            self.on_path.resize(node_count, 0);
        }
        for &t in &self.touched {
            self.labels[t as usize].clear();
        }
        self.touched.clear();
    }
}

/// The bandwidth guide's buffers: the usable edges by residual, the
/// node sets that find the widest bottleneck, the Dijkstra run of the
/// current probe, and the latency table `T` of the highest feasible level
/// probed so far.
#[derive(Debug, Default)]
struct GuideScratch {
    edges: Vec<(f64, EdgeId)>,
    sets: UnionFind,
    probe: DijkstraScratch,
    table: DijkstraScratch,
}

/// What the guide found out about one search.
enum Guide {
    /// `b*`, proven; [`GuideScratch::table`] holds its latency table.
    Floor(f64),
    /// `b*` could not be proven: search with the paper's tests.
    Unguided,
    /// No path within the bound exists.
    NoPath,
}

impl GuideScratch {
    /// Steps 1 and 2 of the module docs.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        phys: &PhysicalTopology,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        demand: f64,
        bound: f64,
        probes: &mut usize,
    ) -> Guide {
        let graph = phys.graph();
        let GuideScratch {
            edges,
            sets,
            probe,
            table,
        } = self;
        edges.clear();
        edges.extend(graph.edge_ids().filter_map(|e| {
            let b = residual.bw(e).value();
            (b >= demand).then_some((b, e))
        }));
        edges.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));

        // Above the widest bottleneck between the endpoints no path
        // exists at all, so the levels start there (Kruskal's order).
        sets.reset(graph.node_count());
        let Some(widest) = edges.iter().position(|&(_, e)| {
            let (a, b) = graph.endpoints(e);
            sets.union(a.index(), b.index());
            sets.connected(origin.index(), destination.index())
        }) else {
            return Guide::NoPath;
        };
        // One entry per edge, so a level can repeat; equal levels are
        // equally feasible, so `lo - 1` below is always a higher level.
        let levels = &edges[widest..];

        // Levels before `lo` are infeasible and `above` is the latency of
        // `lo - 1` (none above the widest level); the level at `hi`, if
        // any, is feasible and its latency table is in `table`. The widest
        // level comes first: it is usually `b*`.
        let (mut lo, mut hi) = (0, levels.len());
        let mut above = f64::INFINITY;
        let mut mid = 0;
        while lo < hi {
            let level = levels[mid].0;
            *probes += 1;
            // Once the origin is in bound, settle every node up to
            // `T[origin] + 1e-9`, the loop's cap; nodes further out keep
            // values above the cap, which prune exactly as their true
            // distances would. Stop as soon as the origin is out of bound.
            let mut limit = bound + 2e-9;
            probe.run(
                graph,
                destination,
                0.0,
                |e, link| (residual.bw(e).value() >= level).then(|| link.lat.value()),
                |v, d| {
                    if v == origin {
                        if d > bound {
                            return true;
                        }
                        limit = d + 1e-9;
                    }
                    d > limit
                },
            );
            let lat = probe.distances()[origin.index()];
            if lat <= bound {
                hi = mid;
                std::mem::swap(probe, table);
            } else {
                lo = mid + 1;
                above = lat;
            }
            mid = (lo + hi) / 2;
        }
        if above <= bound + 2e-9 {
            Guide::Unguided
        } else if lo == levels.len() {
            Guide::NoPath
        } else {
            Guide::Floor(levels[lo].0)
        }
    }
}

/// Finds a path from `origin` to `destination` with residual bandwidth
/// `>= demand` on every edge and total latency `<= latency_bound`,
/// maximizing the configured metric. Returns the edge sequence and search
/// statistics, or `None` if no feasible path exists (or the expansion cap
/// was hit).
///
/// `ar` must hold, for every node index, a lower bound on the latency from
/// that node to `destination` (`f64::INFINITY` for unreachable nodes) —
/// normally the destination's table from
/// [`ArTables::ar_and_csr`](crate::ArTables::ar_and_csr). Only consulted when
/// [`AStarPruneConfig::use_latency_lower_bound`] is set.
///
/// With the paper's configuration the bandwidth guide of the module docs
/// runs first: it returns the same path with far fewer expansions, and a
/// `None` it returns without searching means no feasible path exists.
///
/// `scratch` holds the search buffers; hot paths (the Networking stage,
/// the parallel runner) keep it in a [`MapCache`](crate::MapCache).
/// Results are identical for any scratch state: buffers are cleared on
/// entry and on-path marks from earlier expansions never equal the
/// current stamp, so the search is a pure function of the other
/// arguments, and it allocates nothing but the returned edge sequence
/// once the buffers are warm.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Algorithm 1 signature
pub fn astar_prune(
    phys: &PhysicalTopology,
    residual: &ResidualState,
    origin: NodeId,
    destination: NodeId,
    demand: Kbps,
    latency_bound: Millis,
    ar: ArView<'_>,
    config: &AStarPruneConfig,
    scratch: &mut RouteScratch,
) -> Option<(Vec<EdgeId>, SearchStats)> {
    // The precision condition of the module docs; it also rules out
    // infinite and NaN bounds.
    let guided = config.metric == PathMetric::BottleneckBandwidth
        && config.use_latency_lower_bound
        && !config.prune_dominated
        && phys.graph().node_count() as f64 * latency_bound.value() * f64::EPSILON < 1e-9;
    route(
        phys,
        residual,
        origin,
        destination,
        demand,
        latency_bound,
        ar,
        config,
        scratch,
        guided,
    )
}

/// [`astar_prune`], with the guide run only if `guided`.
#[allow(clippy::too_many_arguments)]
fn route(
    phys: &PhysicalTopology,
    residual: &ResidualState,
    origin: NodeId,
    destination: NodeId,
    demand: Kbps,
    latency_bound: Millis,
    ar: ArView<'_>,
    config: &AStarPruneConfig,
    scratch: &mut RouteScratch,
    guided: bool,
) -> Option<(Vec<EdgeId>, SearchStats)> {
    let mut stats = SearchStats::default();
    if origin == destination {
        return Some((Vec::new(), stats));
    }
    let bound = latency_bound.value();
    let want = demand.value();

    // Root admissibility: if even the unconstrained latency from the origin
    // exceeds the bound (with the inner prune's tolerance), no path can
    // exist.
    if config.use_latency_lower_bound && ar[origin.index()] > bound + 1e-9 {
        return None;
    }

    let RouteScratch { frontier, guide } = scratch;
    let verdict = if guided {
        guide.run(
            phys,
            residual,
            origin,
            destination,
            want,
            bound,
            &mut stats.guide_probes,
        )
    } else {
        Guide::Unguided
    };
    let (floor, table, cap) = match verdict {
        Guide::NoPath => return None,
        Guide::Floor(b) => {
            let table = ArView::new(guide.table.distances(), destination);
            (b, table, table[origin.index()] + 1e-9)
        }
        Guide::Unguided => (want, ar, bound + 1e-9),
    };
    let edges = frontier.search(
        phys,
        residual,
        origin,
        destination,
        floor,
        table,
        cap,
        config,
        &mut stats,
    )?;
    Some((edges, stats))
}

impl Frontier {
    /// The one A\*Prune loop: edges below `floor` are pruned, and so is a
    /// partial path whose latency plus `table[h]` (when the lower bound is
    /// on) exceeds `cap`.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        phys: &PhysicalTopology,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        floor: f64,
        table: ArView<'_>,
        cap: f64,
        config: &AStarPruneConfig,
        stats: &mut SearchStats,
    ) -> Option<Vec<EdgeId>> {
        let csr = phys.graph().csr();
        self.begin(csr.node_count());
        let Frontier {
            arena,
            heap,
            on_path,
            stamp,
            labels,
            touched,
        } = self;
        if config.prune_dominated && labels.len() < csr.node_count() {
            labels.resize(csr.node_count(), Vec::new());
        }
        arena.push(PathNode {
            parent: ROOT,
            edge: EdgeId::from_index(0),
            end: origin,
        });
        heap.push(Candidate::new(config.metric, f64::INFINITY, 0.0, 0, 0));

        while let Some(best) = heap.pop() {
            stats.expanded += 1;
            if stats.expanded > config.max_expansions {
                return None;
            }
            let (best_bottleneck, best_latency, best_hops) = best.unpack(config.metric);
            let d = arena[best.arena_index as usize].end;
            if d == destination {
                // Reconstruct the edge sequence.
                let mut edges = Vec::with_capacity(best_hops as usize);
                let mut cur = best.arena_index;
                while arena[cur as usize].parent != ROOT {
                    edges.push(arena[cur as usize].edge);
                    cur = arena[cur as usize].parent;
                }
                edges.reverse();
                return Some(edges);
            }

            // Stamp the nodes already on this partial path (loop check,
            // Eq. 7). On wrap-around every old stamp is cleared, so a stale
            // mark can never equal a live one.
            if *stamp == u32::MAX {
                on_path.fill(0);
                *stamp = 0;
            }
            *stamp += 1;
            let mark = *stamp;
            let mut cur = best.arena_index;
            loop {
                on_path[arena[cur as usize].end.index()] = mark;
                let p = arena[cur as usize].parent;
                if p == ROOT {
                    break;
                }
                cur = p;
            }

            for &nb in csr.neighbors(d) {
                let h = nb.node;
                if on_path[h.index()] == mark {
                    continue;
                }
                // Bandwidth pruning: "links whose available bandwidth are
                // smaller than the required bandwidth are also pruned."
                let avail = residual.bw(nb.edge).value();
                if avail < floor {
                    continue;
                }
                // Latency pruning with the admissible Dijkstra bound.
                let step = phys.link(nb.edge).lat.value();
                let acc = best_latency + step;
                let optimistic = if config.use_latency_lower_bound {
                    table[h.index()]
                } else {
                    0.0
                };
                if acc + optimistic > cap {
                    continue;
                }
                let bottleneck = best_bottleneck.min(avail);
                let hops = best_hops + 1;
                if config.prune_dominated {
                    let slot = &mut labels[h.index()];
                    if slot
                        .iter()
                        .any(|&(b, l, k)| b >= bottleneck && l <= acc && k <= hops)
                    {
                        stats.dominated += 1;
                        continue;
                    }
                    if slot.is_empty() {
                        touched.push(u32::try_from(h.index()).expect("node fits in u32"));
                    }
                    slot.retain(|&(b, l, k)| !(b <= bottleneck && l >= acc && k >= hops));
                    slot.push((bottleneck, acc, hops));
                }
                let arena_index = u32::try_from(arena.len()).expect("arena fits in u32");
                arena.push(PathNode {
                    parent: best.arena_index,
                    edge: nb.edge,
                    end: h,
                });
                stats.pushed += 1;
                heap.push(Candidate::new(
                    config.metric,
                    bottleneck,
                    acc,
                    hops,
                    arena_index,
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::algo::dijkstra;
    use emumap_graph::generators;
    use emumap_graph::Graph;
    use emumap_model::{HostSpec, LinkSpec, MemMb, Mips, PhysNode, StorGb, VmmOverhead};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    /// The candidate key before the integer encoding: four floats compared
    /// lexicographically with `total_cmp`, the push sequence negated last.
    /// Kept as the reference [`Candidate::cmp`] must agree with.
    fn reference_key(
        metric: PathMetric,
        bottleneck: f64,
        latency: f64,
        hops: u32,
        seq: u32,
    ) -> [f64; 4] {
        let (hops, seq) = (f64::from(hops), f64::from(seq));
        match metric {
            PathMetric::BottleneckBandwidth => [bottleneck, -latency, -hops, -seq],
            PathMetric::HopCount => [-hops, bottleneck, -latency, -seq],
        }
    }

    fn reference_cmp(a: &[f64; 4], b: &[f64; 4]) -> Ordering {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Bottleneck or latency values: the root's `INFINITY` and `0.0`,
    /// `-0.0`, a few repeated values so keys often tie, or any float.
    fn arb_value() -> impl Strategy<Value = f64> {
        (0u8..5, 0u32..3, any::<f64>()).prop_map(|(kind, k, x)| match kind {
            0 => f64::INFINITY,
            1 => 0.0,
            2 => -0.0,
            3 => f64::from(k) * 5.0,
            _ => x,
        })
    }

    fn arb_count() -> impl Strategy<Value = u32> {
        (any::<bool>(), 0u32..3, any::<u32>()).prop_map(|(small, k, x)| if small { k } else { x })
    }

    /// `(bottleneck, latency, hops, index)`.
    fn arb_fields() -> impl Strategy<Value = (f64, f64, u32, u32)> {
        (arb_value(), arb_value(), arb_count(), arb_count())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The integer key orders candidates exactly as the float key did,
        /// including ties that only the push order breaks, and decodes
        /// back to its inputs bit for bit.
        #[test]
        fn candidate_order_matches_float_reference(
            a in arb_fields(),
            b in arb_fields(),
            tie in any::<bool>(),
        ) {
            // With `tie`, only the index differs.
            let b = if tie { (a.0, a.1, a.2, b.3) } else { b };
            for metric in [PathMetric::BottleneckBandwidth, PathMetric::HopCount] {
                let ca = Candidate::new(metric, a.0, a.1, a.2, a.3);
                let cb = Candidate::new(metric, b.0, b.1, b.2, b.3);
                let ra = reference_key(metric, a.0, a.1, a.2, a.3);
                let rb = reference_key(metric, b.0, b.1, b.2, b.3);
                prop_assert_eq!(ca.cmp(&cb), reference_cmp(&ra, &rb));
                let (bottleneck, latency, hops) = ca.unpack(metric);
                prop_assert_eq!(bottleneck.to_bits(), a.0.to_bits());
                prop_assert_eq!(latency.to_bits(), a.1.to_bits());
                prop_assert_eq!(hops, a.2);
            }
        }
    }

    #[test]
    fn root_admissibility_allows_rounding_slack() {
        // Three 0.1 ms edges sum to 0.30000000000000004 ms, so `ar[origin]`
        // exceeds a 0.3 ms bound by one ulp. The root test allows the same
        // 1e-9 slack as the inner prune and the Eq. 8 validator.
        let phys = phys_from_edges(
            4,
            &[(0, 1, 100.0, 0.1), (1, 2, 100.0, 0.1), (2, 3, 100.0, 0.1)],
        );
        assert!(ar_for(&phys, phys.hosts()[3])[0] > 0.3);
        let path = run(&phys, 0, 3, 1.0, 0.3).expect("path within the bound");
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn stamp_wrap_around_keeps_results() {
        // A warm scratch whose stamp is about to wrap: its array holds
        // marks from the warm-up that later stamps reuse, so the wrap must
        // clear them for the results to match a fresh scratch.
        let phys = PhysicalTopology::from_shape(
            &generators::torus2d(5, 5),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let residual = ResidualState::new(&phys);
        let config = AStarPruneConfig::default();
        let queries = [
            (0usize, 12usize, 50.0),
            (4, 20, 60.0),
            (2, 17, 45.0),
            (7, 18, 40.0),
        ];
        let mut warm = RouteScratch::new();
        for (i, &(from, to, bound)) in queries.iter().enumerate() {
            let dest = phys.hosts()[to];
            let ar = ar_for(&phys, dest);
            let origin = phys.hosts()[from];
            let fresh = search(
                &phys,
                &residual,
                origin,
                dest,
                Kbps(5.0),
                Millis(bound),
                &ar,
                &config,
            );
            let reused = astar_prune(
                &phys,
                &residual,
                origin,
                dest,
                Kbps(5.0),
                Millis(bound),
                ArView::new(&ar, dest),
                &config,
                &mut warm,
            );
            assert_eq!(fresh, reused);
            if i == 0 {
                warm.frontier.stamp = u32::MAX - 1;
            }
        }
        assert!(
            warm.frontier.stamp < u32::MAX - 1,
            "the searches must cross the wrap-around"
        );
    }

    /// Physical topology from explicit edges `(a, b, bw, lat)`.
    fn phys_from_edges(n: usize, edges: &[(usize, usize, f64, f64)]) -> PhysicalTopology {
        let mut g: Graph<PhysNode, LinkSpec> = Graph::new();
        let ids: Vec<_> = (0..n)
            .map(|_| {
                g.add_node(PhysNode::Host(HostSpec::new(
                    Mips(1000.0),
                    MemMb(1024),
                    StorGb(100.0),
                )))
            })
            .collect();
        for &(a, b, bw, lat) in edges {
            g.add_edge(ids[a], ids[b], LinkSpec::new(Kbps(bw), Millis(lat)));
        }
        PhysicalTopology::from_graph(g, VmmOverhead::NONE)
    }

    fn ar_for(phys: &PhysicalTopology, dest: NodeId) -> Vec<f64> {
        dijkstra(phys.graph(), dest, |_, l| l.lat.value()).into_distances()
    }

    /// One search on a fresh adjacency snapshot and fresh scratch.
    #[allow(clippy::too_many_arguments)]
    fn search(
        phys: &PhysicalTopology,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        demand: Kbps,
        latency_bound: Millis,
        ar: &[f64],
        config: &AStarPruneConfig,
    ) -> Option<(Vec<EdgeId>, SearchStats)> {
        astar_prune(
            phys,
            residual,
            origin,
            destination,
            demand,
            latency_bound,
            ArView::new(ar, destination),
            config,
            &mut RouteScratch::new(),
        )
    }

    fn run(
        phys: &PhysicalTopology,
        from: usize,
        to: usize,
        demand: f64,
        bound: f64,
    ) -> Option<Vec<EdgeId>> {
        let residual = ResidualState::new(phys);
        let dest = phys.hosts()[to];
        let ar = ar_for(phys, dest);
        search(
            phys,
            &residual,
            phys.hosts()[from],
            dest,
            Kbps(demand),
            Millis(bound),
            &ar,
            &AStarPruneConfig::default(),
        )
        .map(|(p, _)| p)
    }

    #[test]
    fn reused_scratch_matches_fresh_search() {
        // Run a batch of distinct queries twice: once on fresh scratch,
        // once through one shared scratch + CSR. Results must be
        // bit-identical regardless of scratch history.
        let phys = phys_from_edges(
            5,
            &[
                (0, 1, 500.0, 5.0),
                (1, 2, 500.0, 5.0),
                (0, 2, 50.0, 5.0),
                (2, 3, 300.0, 2.0),
                (3, 4, 300.0, 2.0),
                (0, 4, 80.0, 30.0),
            ],
        );
        let residual = ResidualState::new(&phys);
        let mut scratch = RouteScratch::new();
        let config = AStarPruneConfig::default();
        let queries = [
            (0usize, 2usize, 10.0, 100.0),
            (0, 4, 10.0, 100.0),
            (1, 3, 60.0, 50.0),
            (4, 0, 70.0, 40.0),
        ];
        for &(from, to, demand, bound) in &queries {
            let dest = phys.hosts()[to];
            let ar = ar_for(&phys, dest);
            let fresh = search(
                &phys,
                &residual,
                phys.hosts()[from],
                dest,
                Kbps(demand),
                Millis(bound),
                &ar,
                &config,
            );
            let reused = astar_prune(
                &phys,
                &residual,
                phys.hosts()[from],
                dest,
                Kbps(demand),
                Millis(bound),
                ArView::new(&ar, dest),
                &config,
                &mut scratch,
            );
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn picks_widest_path_not_shortest() {
        // Two routes 0 -> 2: direct but narrow (bw 50), or via 1 and wide
        // (bw 500 each). Latency allows both.
        let phys = phys_from_edges(
            3,
            &[(0, 2, 50.0, 5.0), (0, 1, 500.0, 5.0), (1, 2, 500.0, 5.0)],
        );
        let path = run(&phys, 0, 2, 10.0, 100.0).unwrap();
        assert_eq!(path.len(), 2, "widest path goes via node 1");
    }

    #[test]
    fn latency_bound_forces_short_path() {
        // Same shape, but the bound only admits the direct edge.
        let phys = phys_from_edges(
            3,
            &[(0, 2, 50.0, 5.0), (0, 1, 500.0, 5.0), (1, 2, 500.0, 5.0)],
        );
        let path = run(&phys, 0, 2, 10.0, 5.0).unwrap();
        assert_eq!(path.len(), 1, "only the direct edge satisfies 5 ms");
    }

    #[test]
    fn bandwidth_pruning_rejects_narrow_edges() {
        let phys = phys_from_edges(
            3,
            &[(0, 2, 50.0, 5.0), (0, 1, 500.0, 5.0), (1, 2, 500.0, 5.0)],
        );
        // Demand 100 kbps rules out the direct 50 kbps edge.
        let path = run(&phys, 0, 2, 100.0, 100.0).unwrap();
        assert_eq!(path.len(), 2);
        // Demand 600 kbps rules out everything.
        assert!(run(&phys, 0, 2, 600.0, 100.0).is_none());
    }

    #[test]
    fn infeasible_latency_returns_none() {
        let phys = phys_from_edges(2, &[(0, 1, 100.0, 10.0)]);
        assert!(run(&phys, 0, 1, 1.0, 9.9).is_none());
        assert!(run(&phys, 0, 1, 1.0, 10.0).is_some());
    }

    #[test]
    fn same_node_is_empty_path() {
        let phys = phys_from_edges(2, &[(0, 1, 100.0, 10.0)]);
        let p = run(&phys, 0, 0, 1.0, 0.0).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn respects_committed_bandwidth() {
        let phys = phys_from_edges(2, &[(0, 1, 100.0, 5.0)]);
        let mut residual = ResidualState::new(&phys);
        let e: Vec<_> = phys.graph().edge_ids().collect();
        residual.commit_route(&e, Kbps(60.0));
        let dest = phys.hosts()[1];
        let ar = ar_for(&phys, dest);
        // 50 kbps no longer fits the 40 kbps residual.
        assert!(search(
            &phys,
            &residual,
            phys.hosts()[0],
            dest,
            Kbps(50.0),
            Millis(100.0),
            &ar,
            &AStarPruneConfig::default(),
        )
        .is_none());
        // 30 kbps does.
        assert!(search(
            &phys,
            &residual,
            phys.hosts()[0],
            dest,
            Kbps(30.0),
            Millis(100.0),
            &ar,
            &AStarPruneConfig::default(),
        )
        .is_some());
    }

    #[test]
    fn path_is_loop_free_on_torus() {
        let shape = generators::torus2d(4, 4);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let residual = ResidualState::new(&phys);
        let (from, to) = (phys.hosts()[0], phys.hosts()[15]);
        let ar = ar_for(&phys, to);
        let (path, _) = search(
            &phys,
            &residual,
            from,
            to,
            Kbps(1.0),
            Millis(60.0),
            &ar,
            &AStarPruneConfig::default(),
        )
        .unwrap();
        // Walk the path, ensuring no repeated node and correct endpoints.
        let mut cur = from;
        let mut seen = vec![cur];
        for e in &path {
            cur = phys.graph().edge_ref(*e).other(cur);
            assert!(!seen.contains(&cur));
            seen.push(cur);
        }
        assert_eq!(cur, to);
    }

    #[test]
    fn hop_count_metric_finds_shortest() {
        let phys = phys_from_edges(
            3,
            &[(0, 2, 50.0, 5.0), (0, 1, 500.0, 5.0), (1, 2, 500.0, 5.0)],
        );
        let residual = ResidualState::new(&phys);
        let dest = phys.hosts()[2];
        let ar = ar_for(&phys, dest);
        let cfg = AStarPruneConfig {
            metric: PathMetric::HopCount,
            ..Default::default()
        };
        let (path, _) = search(
            &phys,
            &residual,
            phys.hosts()[0],
            dest,
            Kbps(10.0),
            Millis(100.0),
            &ar,
            &cfg,
        )
        .unwrap();
        assert_eq!(path.len(), 1, "hop-count metric takes the direct edge");
    }

    #[test]
    fn lower_bound_pruning_reduces_expansions() {
        let shape = generators::torus2d(5, 8);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1_000_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let residual = ResidualState::new(&phys);
        let (from, to) = (phys.hosts()[0], phys.hosts()[22]);
        let ar = ar_for(&phys, to);
        let with_bound = AStarPruneConfig::default();
        let without_bound = AStarPruneConfig {
            use_latency_lower_bound: false,
            ..Default::default()
        };
        let (_, s1) = search(
            &phys,
            &residual,
            from,
            to,
            Kbps(1.0),
            Millis(30.0),
            &ar,
            &with_bound,
        )
        .unwrap();
        let (_, s2) = search(
            &phys,
            &residual,
            from,
            to,
            Kbps(1.0),
            Millis(30.0),
            &ar,
            &without_bound,
        )
        .unwrap();
        assert!(
            s1.expanded <= s2.expanded,
            "admissible pruning must not expand more ({} vs {})",
            s1.expanded,
            s2.expanded
        );
    }

    #[test]
    fn expansion_cap_is_enforced() {
        let shape = generators::torus2d(5, 8);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1_000_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let residual = ResidualState::new(&phys);
        let (from, to) = (phys.hosts()[0], phys.hosts()[39]);
        let ar = ar_for(&phys, to);
        let cfg = AStarPruneConfig {
            max_expansions: 1,
            ..Default::default()
        };
        assert!(search(
            &phys,
            &residual,
            from,
            to,
            Kbps(1.0),
            Millis(60.0),
            &ar,
            &cfg,
        )
        .is_none());
    }

    #[test]
    fn deterministic_across_runs() {
        let shape = generators::torus2d(4, 5);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let residual = ResidualState::new(&phys);
        let (from, to) = (phys.hosts()[1], phys.hosts()[18]);
        let ar = ar_for(&phys, to);
        let cfg = AStarPruneConfig::default();
        let a = search(
            &phys,
            &residual,
            from,
            to,
            Kbps(1.0),
            Millis(60.0),
            &ar,
            &cfg,
        );
        let b = search(
            &phys,
            &residual,
            from,
            to,
            Kbps(1.0),
            Millis(60.0),
            &ar,
            &cfg,
        );
        assert_eq!(a.map(|(p, _)| p), b.map(|(p, _)| p));
    }

    /// Sum of link latencies and minimum residual bandwidth along a path.
    fn path_cost(phys: &PhysicalTopology, residual: &ResidualState, path: &[EdgeId]) -> (f64, f64) {
        let lat = path.iter().map(|&e| phys.link(e).lat.value()).sum();
        let bw = path
            .iter()
            .map(|&e| residual.bw(e).value())
            .fold(f64::INFINITY, f64::min);
        (lat, bw)
    }

    #[test]
    fn dominance_pruning_preserves_widest_bottleneck() {
        // A torus has many equal-latency alternates, the worst case for the
        // exhaustive search. The pruned search must return a path with the
        // same bottleneck bandwidth and latency as the exhaustive one, and
        // actually prune. Guiding the exhaustive search beats both.
        let phys = PhysicalTopology::from_shape(
            &generators::torus2d(6, 6),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let residual = ResidualState::new(&phys);
        let pruned_cfg = AStarPruneConfig {
            prune_dominated: true,
            ..Default::default()
        };
        let exhaustive_cfg = AStarPruneConfig::default();
        for (from, to, bound) in [(0usize, 21usize, 60.0), (3, 32, 75.0), (7, 28, 90.0)] {
            let dest = phys.hosts()[to];
            let ar = ar_for(&phys, dest);
            let origin = phys.hosts()[from];
            let (full, full_stats) = search(
                &phys,
                &residual,
                origin,
                dest,
                Kbps(10.0),
                Millis(bound),
                &ar,
                &exhaustive_cfg,
            )
            .expect("exhaustive search finds a path");
            let (pruned, pruned_stats) = search(
                &phys,
                &residual,
                origin,
                dest,
                Kbps(10.0),
                Millis(bound),
                &ar,
                &pruned_cfg,
            )
            .expect("pruned search finds a path");
            let (_, unguided_stats) = route(
                &phys,
                &residual,
                origin,
                dest,
                Kbps(10.0),
                Millis(bound),
                ArView::new(&ar, dest),
                &exhaustive_cfg,
                &mut RouteScratch::new(),
                false,
            )
            .expect("unguided search finds a path");
            assert_eq!(
                path_cost(&phys, &residual, &full),
                path_cost(&phys, &residual, &pruned),
            );
            assert!(full_stats.expanded <= unguided_stats.expanded);
            assert!(pruned_stats.dominated > 0, "torus must trigger pruning");
            assert_eq!(full_stats.dominated, 0, "exhaustive mode never prunes");
        }
    }

    /// A latency that is a multiple of 0.1 ms, so path sums depend on the
    /// order of addition.
    fn tenths(rng: &mut SmallRng) -> f64 {
        f64::from(rng.gen_range(1..=30u32)) * 0.1
    }

    /// Capacities and demands come from one small pool, so residual levels
    /// tie often and demands sit exactly on them.
    const POOL: [f64; 4] = [100.0, 200.0, 300.0, 500.0];

    /// A random connected core with extra and parallel edges and the odd
    /// self-loop, plus leaves hanging off it.
    fn random_graph(rng: &mut SmallRng) -> PhysicalTopology {
        let core = rng.gen_range(2..9);
        let leaves = rng.gen_range(0..4usize);
        let mut pairs: Vec<(usize, usize)> = (1..core).map(|v| (rng.gen_range(0..v), v)).collect();
        for _ in 0..rng.gen_range(0..2 * core) {
            let pair = (rng.gen_range(0..core), rng.gen_range(0..core));
            pairs.push(pair);
            if rng.gen_bool(0.2) {
                pairs.push(pair); // parallel edge
            }
        }
        pairs.extend((core..core + leaves).map(|leaf| (rng.gen_range(0..core), leaf)));
        let edges: Vec<_> = pairs
            .into_iter()
            .map(|(a, b)| (a, b, POOL[rng.gen_range(0..POOL.len())], tenths(rng)))
            .collect();
        phys_from_edges(core + leaves, &edges)
    }

    /// The 5x8 torus with random latencies and capacities.
    fn random_torus(rng: &mut SmallRng) -> PhysicalTopology {
        let shape = generators::torus2d(5, 8);
        let edges: Vec<_> = shape
            .edges()
            .map(|e| {
                let cap = 4.0 * POOL[rng.gen_range(0..POOL.len())];
                (e.a.index(), e.b.index(), cap, tenths(rng))
            })
            .collect();
        phys_from_edges(shape.node_count(), &edges)
    }

    /// A random loop-free walk of up to `max_hops` edges from `origin`:
    /// its end and its edges.
    fn walk(
        phys: &PhysicalTopology,
        origin: NodeId,
        max_hops: usize,
        rng: &mut SmallRng,
    ) -> (NodeId, Vec<EdgeId>) {
        let mut at = origin;
        let mut seen = vec![origin];
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(1..=max_hops) {
            let next: Vec<_> = phys
                .graph()
                .neighbors(at)
                .filter(|nb| !seen.contains(&nb.node))
                .collect();
            if next.is_empty() {
                break;
            }
            let nb = next[rng.gen_range(0..next.len())];
            edges.push(nb.edge);
            seen.push(nb.node);
            at = nb.node;
        }
        (at, edges)
    }

    /// Routes one query guided (through [`astar_prune`]) and unguided and
    /// checks that both return the same path, with no more expansions
    /// guided. Returns the path.
    fn guided_matches_unguided(
        phys: &PhysicalTopology,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        demand: f64,
        bound: f64,
    ) -> Result<Option<Vec<EdgeId>>, TestCaseError> {
        let ar = ar_for(phys, destination);
        let config = AStarPruneConfig::default();
        let args = (Kbps(demand), Millis(bound), ArView::new(&ar, destination));
        let guided = astar_prune(
            phys,
            residual,
            origin,
            destination,
            args.0,
            args.1,
            args.2,
            &config,
            &mut RouteScratch::new(),
        );
        let unguided = route(
            phys,
            residual,
            origin,
            destination,
            args.0,
            args.1,
            args.2,
            &config,
            &mut RouteScratch::new(),
            false,
        );
        prop_assert_eq!(
            guided.as_ref().map(|(path, _)| path),
            unguided.as_ref().map(|(path, _)| path),
            "demand {} bound {}",
            demand,
            bound
        );
        if let (Some((_, g)), Some((_, u))) = (&guided, &unguided) {
            prop_assert!(g.expanded <= u.expanded, "{g:?} vs {u:?}");
        }
        Ok(guided.map(|(path, _)| path))
    }

    /// A query from `origin` to the end of a random walk. The bound is
    /// the walk's latency summed from either end, which puts the
    /// destination exactly at the edge of feasibility up to the rounding
    /// of the other order, or that plus or minus a few tenths.
    fn query(phys: &PhysicalTopology, origin: NodeId, rng: &mut SmallRng) -> (NodeId, f64, f64) {
        let (dest, edges) = walk(phys, origin, 6, rng);
        let mut lats: Vec<f64> = edges.iter().map(|&e| phys.link(e).lat.value()).collect();
        if rng.gen_bool(0.5) {
            lats.reverse();
        }
        let sum = lats.iter().fold(0.0, |acc, l| acc + l);
        let bound = match rng.gen_range(0..4) {
            0 | 1 => sum,
            2 => sum + tenths(rng),
            _ => sum - 0.1,
        };
        let demand =
            POOL[rng.gen_range(0..POOL.len())] - if rng.gen_bool(0.2) { 50.0 } else { 0.0 };
        (dest, demand, bound)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The guide changes no result on small random multigraphs, whose
        /// tied levels and exact-sum bounds reach the unguided fallback and
        /// both no-path proofs.
        #[test]
        fn guide_keeps_the_path_on_random_graphs(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phys = random_graph(&mut rng);
            let mut residual = ResidualState::new(&phys);
            let hosts = phys.hosts().to_vec();
            for _ in 0..rng.gen_range(0..3) {
                let (_, edges) = walk(&phys, hosts[rng.gen_range(0..hosts.len())], 4, &mut rng);
                if residual.route_feasible(&edges, Kbps(100.0)) {
                    residual.commit_route(&edges, Kbps(100.0));
                }
            }
            for _ in 0..4 {
                let origin = hosts[rng.gen_range(0..hosts.len())];
                let (dest, demand, bound) = query(&phys, origin, &mut rng);
                if dest != origin {
                    guided_matches_unguided(&phys, &residual, origin, dest, demand, bound)?;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The same on 5x8 tori, beyond what path enumeration can check,
        /// loaded by committing every route found.
        #[test]
        fn guide_keeps_the_path_on_loaded_tori(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phys = random_torus(&mut rng);
            let mut residual = ResidualState::new(&phys);
            let hosts = phys.hosts().to_vec();
            for _ in 0..40 {
                let origin = hosts[rng.gen_range(0..hosts.len())];
                let (dest, demand, bound) = if rng.gen_bool(0.5) {
                    query(&phys, origin, &mut rng)
                } else {
                    let dest = hosts[rng.gen_range(0..hosts.len())];
                    let slack = f64::from(rng.gen_range(0..8u32)) * 0.5;
                    (dest, 100.0 * f64::from(rng.gen_range(1..8u32)), ar_for(&phys, dest)[origin.index()] + slack)
                };
                if dest == origin {
                    continue;
                }
                if let Some(path) = guided_matches_unguided(&phys, &residual, origin, dest, demand, bound)? {
                    residual.commit_route(&path, Kbps(demand));
                }
            }
        }
    }

    #[test]
    fn dominance_pruning_scratch_reuse_is_pure() {
        // The per-node label store must reset between searches: a warm
        // scratch has to reproduce the fresh-scratch result exactly.
        let phys = PhysicalTopology::from_shape(
            &generators::torus2d(5, 5),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let residual = ResidualState::new(&phys);
        let cfg = AStarPruneConfig {
            prune_dominated: true,
            ..Default::default()
        };
        let mut warm = RouteScratch::new();
        for (from, to, bound) in [(0usize, 12usize, 50.0), (4, 20, 60.0), (2, 17, 45.0)] {
            let dest = phys.hosts()[to];
            let ar = ar_for(&phys, dest);
            let origin = phys.hosts()[from];
            let fresh = search(
                &phys,
                &residual,
                origin,
                dest,
                Kbps(5.0),
                Millis(bound),
                &ar,
                &cfg,
            );
            let reused = astar_prune(
                &phys,
                &residual,
                origin,
                dest,
                Kbps(5.0),
                Millis(bound),
                ArView::new(&ar, dest),
                &cfg,
                &mut warm,
            );
            assert_eq!(fresh, reused);
        }
    }
}
