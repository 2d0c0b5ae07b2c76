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
//! `prune_dominated` off) most expansions cannot lead to the returned
//! path: the search explores every lightly loaded region of the graph
//! before it learns that the destination is only reachable through a
//! narrower edge. A bandwidth floor plus one additive bound is polynomial
//! (Wang & Crowcroft, IEEE JSAC 1996), so before searching, [`astar_prune`]
//! computes the answer's bottleneck `b*` exactly and hands the loop three
//! tighter values:
//!
//! 1. The candidate levels are the residuals `>= demand`; none above `W`,
//!    the widest bottleneck between the endpoints, connects them. One
//!    max-min search from the destination over the edges with residual
//!    `>= demand` finds `W`. It stops when the origin pops, or earlier
//!    once the origin is reached at the endpoints' cap (the smaller of
//!    the endpoints' widest usable incident edges), which no path
//!    exceeds. For a level `b`, let `lat(b)` be the shortest latency
//!    from the origin to the destination over the edges with residual
//!    `>= b` (a Dijkstra rooted at the destination, stopped early). The
//!    first probe is at `W`, which is usually the answer. Only if
//!    `lat(W) > bound` are the distinct levels below `W` sorted, and a
//!    binary search over them finds the highest level with
//!    `lat(b) <= bound`, with no slack.
//! 2. That level is `b*` only if the next higher one (`W` itself when
//!    the binary search ends at the first level below it) is out of
//!    reach even with the loop's `1e-9` acceptance slack plus rounding:
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
//! tie-breaks included, and the first destination pop is `A` again. Only
//! a search that used to hit `max_expansions` can now succeed. "Up to
//! rounding" needs the rounding error of a loop-free path's latency sum
//! well below the `1e-9` slack, so the guide runs only while
//! `node_count * bound * f64::EPSILON` is.
//! [`SearchStats::guide_probes`] counts the guide's level probes, not its
//! max-min search.
//!
//! # Exact per-level routing
//!
//! A\*Prune keeps every loop-free partial path inside the bound, which on
//! fabrics with many equal-cost paths (fat-trees) is exponentially many.
//! With [`AStarPruneConfig::prune_dominated`] and the bottleneck metric,
//! [`astar_prune`] instead keeps one label per node at each bandwidth
//! level and returns the same `(bottleneck, latency, hops)` triple:
//!
//! 1. *Levels.* No path is wider than `cap`, the smaller over the two
//!    endpoints of the endpoint's widest incident residual `>= demand`,
//!    so the router probes `cap` first. If that fails it climbs: it
//!    probes the demand, then `b.next_up()` for the bottleneck `b` of the
//!    path it found, and so on while the level stays below `cap`; the
//!    first probe that fails leaves the last path found, whose bottleneck
//!    is the highest feasible level. A probe reads its level only through
//!    `residual < level`, so the probe at `b.next_up()` runs on the edges
//!    wider than `b`, the edge set of the least residual above `b`. When
//!    no usable residual lies between `b` and `cap`, that edge set is the
//!    failed cap probe's, and the climb tries one level more than a climb
//!    over the sorted residuals would. Each success raises the level
//!    strictly, so the climb ends. A failed probe at the demand proves
//!    that no path exists.
//!
//!    Before each probe a *reachability cut* asks whether the endpoints
//!    are joined at all over the edges with residual `>= level` and
//!    through no leaf, the probe's own tests without the latency bound.
//!    One breadth-first search grows from each endpoint, a node at a time
//!    in turn, until one reaches a node of the other (joined) or either
//!    runs dry (apart). Apart proves that the probe fails, so it is
//!    skipped, and every path and `None` stays as it was. On fat-trees
//!    most probes that fail are cut: at the cap when an endpoint's
//!    uplinks carry traffic, and at the level above the widest path's
//!    bottleneck. The two searches meet within a few nodes when the
//!    endpoints are joined, where a failing probe explores the whole
//!    latency ellipse.
//! 2. *Probes.* A probe at level `b` is an A\* search from the origin over
//!    the edges with residual `>= b`. A label is a path's `(latency,
//!    hops)`, with its bottleneck as the tie-break and a pointer to the
//!    label it extends; a node keeps the labels no other label of it
//!    covers. The heuristic is `ar[]`, admissible on any subgraph, and a
//!    label with `f = latency + ar[h] > bound + 1e-9` is dropped, A\*Prune's
//!    own test. Labels pop by `(f, est)`, where `est` adds to the hops the
//!    least hops `ar[h]` allows at the topology's longest link latency;
//!    among equals the deepest pops first, so on a plateau of equal-cost
//!    paths the probe walks straight to the destination. Latencies are
//!    summed from the origin in path order, as A\*Prune sums them, so an
//!    equal path has equal bits. Leaves other than the destination are
//!    never entered.
//! 3. *Answer.* At the highest feasible level every feasible path has
//!    that bottleneck, and the probe returns the least `(latency, hops)`
//!    among them: A\*Prune's triple, though ties between equal triples may
//!    pick another path.
//!
//! *Rounding.* When every link latency is a multiple of 2^-16 ms, sums
//! below 2^37 ms are exact, one label per node suffices and the first
//! destination label popped is the answer. Otherwise two paths whose
//! latencies differ by a few ulps can swap order once extended, so a node
//! also keeps the labels with fewer hops within `slack = 2 (n + 1) cap
//! eps` of its shortest, and the probe pops on until no open label can
//! beat the best destination label by more than that.
//!
//! A `None` is always a proof that no path exists; there is no budget,
//! so [`AStarPruneConfig::max_expansions`] does not apply. Popped labels
//! count as [`SearchStats::expanded`], labels kept as
//! [`SearchStats::pushed`], probes run as [`SearchStats::guide_probes`]
//! and probes the cut skipped as [`SearchStats::cut_proofs`].
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
use emumap_graph::algo::DijkstraScratch;
use emumap_graph::{CsrAdjacency, EdgeId, NodeId};
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
    /// Hard cap on partial paths A\*Prune expands; exceeded means "no path
    /// found". A safety valve against pathological exponential blow-ups
    /// in dense graphs; the paper's 40-host clusters stay far below it.
    /// The exact router of [`prune_dominated`](Self::prune_dominated)
    /// has no cap.
    pub max_expansions: usize,
    /// Exact per-level dominance (module docs, "Exact per-level
    /// routing"): with the bottleneck metric, route with one label per
    /// node at each bandwidth level instead of A\*Prune's every partial
    /// path. It returns the `(bottleneck, latency, hops)` triple A\*Prune
    /// returns, possibly along another path with that triple, and its
    /// `None` is a proof that no path exists. On fabrics with many
    /// equal-cost paths (fat-trees), where A\*Prune enumerates every
    /// loop-free path inside the latency bound, it keeps the search
    /// near-linear in the node count. Paper-faithful runs leave it off
    /// (the default); the fat-tree benches switch it on. With
    /// [`PathMetric::HopCount`] it has no effect.
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
    /// Partial paths popped from the candidate set, or labels the exact
    /// router settled.
    pub expanded: usize,
    /// Partial paths pushed into the candidate set, or labels the exact
    /// router pushed.
    pub pushed: usize,
    /// Level probes (Dijkstra runs) of the bandwidth guide, not counting
    /// its max-min search, or level probes of the exact router (module
    /// docs); 0 when the configuration runs neither.
    pub guide_probes: usize,
    /// Level probes of the exact router that its reachability cut proved
    /// to fail without running them (module docs), not counted in
    /// `guide_probes`; 0 in every other configuration.
    pub cut_proofs: usize,
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
pub(crate) fn ord(x: f64) -> u64 {
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

/// Reusable buffers for [`astar_prune`]: the search frontier, the
/// bandwidth guide's Dijkstra buffers and the exact router's labels.
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
    levels: LevelScratch,
}

impl RouteScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        RouteScratch::default()
    }
}

/// The loop's buffers: the partial-path arena, the candidate heap and the
/// per-node on-path stamps.
#[derive(Debug, Default)]
struct Frontier {
    arena: Vec<PathNode>,
    heap: BinaryHeap<Candidate>,
    /// Loop check (Eq. 7): `on_path[v] == stamp` iff node `v` lies on the
    /// partial path being expanded. Every expansion takes a fresh stamp,
    /// so nothing is cleared between expansions or searches.
    on_path: Vec<u32>,
    stamp: u32,
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
    }
}

/// The edges whose residual is at least `demand`, each beside its
/// residual: the guide's candidate bottleneck levels, one per edge.
fn usable_edges<'a>(
    phys: &'a PhysicalTopology,
    residual: &'a ResidualState,
    demand: f64,
) -> impl Iterator<Item = (f64, EdgeId)> + 'a {
    phys.graph().edge_ids().filter_map(move |e| {
        let b = residual.bw(e).value();
        (b >= demand).then_some((b, e))
    })
}

/// The endpoints' cap: the smaller over `origin` and `destination` of the
/// endpoint's widest incident residual `>= demand`. No path between them
/// is wider. `None` if either endpoint has no such edge, so no path
/// exists.
fn endpoint_cap(
    csr: &CsrAdjacency,
    residual: &ResidualState,
    origin: NodeId,
    destination: NodeId,
    demand: f64,
) -> Option<f64> {
    let widest = |v: NodeId| {
        csr.neighbors(v)
            .iter()
            .map(|nb| residual.bw(nb.edge).value())
            .filter(|&b| b >= demand)
            .max_by(f64::total_cmp)
    };
    Some(widest(origin)?.min(widest(destination)?))
}

/// The bandwidth guide's buffers: each node's widest bottleneck to the
/// destination (as an [`ord`] key) and the max-heap that finds it, the
/// levels below the widest one, the Dijkstra run of the current probe, and
/// the latency table `T` of the highest feasible level probed so far.
#[derive(Debug, Default)]
struct GuideScratch {
    width: Vec<u64>,
    heap: BinaryHeap<(u64, u32)>,
    levels: Vec<u64>,
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
        let csr = phys.graph().csr();
        let Some(cap) = endpoint_cap(csr, residual, origin, destination, demand) else {
            return Guide::NoPath;
        };
        let Some(widest) = self.widest(csr, residual, origin, destination, demand, cap) else {
            return Guide::NoPath;
        };
        // The widest level is usually `b*`.
        let mut above = self.probe(phys, residual, origin, destination, widest, bound, probes);
        if above <= bound {
            return Guide::Floor(widest);
        }

        // The distinct levels below the widest, highest first.
        self.levels.clear();
        self.levels.extend(
            usable_edges(phys, residual, demand)
                .map(|(level, _)| ord(level))
                .filter(|&level| level < ord(widest)),
        );
        self.levels.sort_unstable_by(|a, b| b.cmp(a));
        self.levels.dedup();
        // Levels before `lo` are infeasible and `above` is the latency of
        // `lo - 1` (of the widest level at 0); the level at `hi`, if any,
        // is feasible and its latency table is in `table`.
        let (mut lo, mut hi) = (0, self.levels.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let level = unord(self.levels[mid]);
            let lat = self.probe(phys, residual, origin, destination, level, bound, probes);
            if lat <= bound {
                hi = mid;
            } else {
                lo = mid + 1;
                above = lat;
            }
        }
        if above <= bound + 2e-9 {
            Guide::Unguided
        } else if lo == self.levels.len() {
            Guide::NoPath
        } else {
            Guide::Floor(unord(self.levels[lo]))
        }
    }

    /// The widest bottleneck between the endpoints over the edges with
    /// residual `>= demand`, by a max-min search from the destination, or
    /// `None` if they are not connected. The origin's width is final once
    /// it pops, or once it reaches `cap`, which no path exceeds.
    fn widest(
        &mut self,
        csr: &CsrAdjacency,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        demand: f64,
        cap: f64,
    ) -> Option<f64> {
        let GuideScratch { width, heap, .. } = self;
        // 0 is below the key of any residual `>= 0`: not reached.
        width.clear();
        width.resize(csr.node_count(), 0);
        heap.clear();
        let (from, cap) = (origin.index(), ord(cap));
        width[destination.index()] = u64::MAX;
        heap.push((u64::MAX, destination.index() as u32));
        while let Some((w, v)) = heap.pop() {
            let v = v as usize;
            if v == from {
                return Some(unord(w));
            }
            if w < width[v] {
                continue; // stale entry
            }
            for nb in csr.neighbors(NodeId::from_index(v)) {
                let b = residual.bw(nb.edge).value();
                let (h, w) = (nb.node.index(), w.min(ord(b)));
                if b >= demand && w > width[h] {
                    if h == from && w >= cap {
                        return Some(unord(w));
                    }
                    width[h] = w;
                    heap.push((w, h as u32));
                }
            }
        }
        None
    }

    /// One probe: `lat(level)`, the shortest latency from the origin over
    /// the edges with residual `>= level`. A feasible level's run becomes
    /// the table.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        phys: &PhysicalTopology,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        level: f64,
        bound: f64,
        probes: &mut usize,
    ) -> f64 {
        *probes += 1;
        // Once the origin is in bound, settle every node up to
        // `T[origin] + 1e-9`, the loop's cap; nodes further out keep values
        // above the cap, which prune exactly as their true distances
        // would. Stop as soon as the origin is out of bound.
        let mut limit = bound + 2e-9;
        self.probe.run(
            phys.graph(),
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
        let lat = self.probe.distances()[origin.index()];
        if lat <= bound {
            std::mem::swap(&mut self.probe, &mut self.table);
        }
        lat
    }
}

/// The exact router's buffers (module docs, "Exact per-level routing"):
/// the current probe's labels and each node's newest one, the nodes it
/// reached, the open labels, the path of the highest feasible level
/// probed so far, the latency facts of the topology last routed on, and
/// the marks and queues of the reachability cut that runs before each
/// probe. Once warm, none of them allocates.
#[derive(Debug, Default)]
struct LevelScratch {
    labels: Vec<Label>,
    newest: Vec<u32>,
    touched: Vec<u32>,
    open: BinaryHeap<Open>,
    path: Vec<EdgeId>,
    latencies: Latencies,
    /// The cut's marks: `seen[v]` is `stamp - 1` if the origin's search
    /// reached `v` and `stamp` if the destination's did. Every cut takes
    /// two fresh stamps, so nothing is cleared between cuts.
    seen: Vec<u32>,
    stamp: u32,
    /// The cut's two queues, the origin's first; each is read from a
    /// cursor and cleared when the next cut starts.
    queues: [Vec<u32>; 2],
}

/// What the exact router needs to know about a topology's latencies,
/// for the topology with `generation` (0 = none yet, which no topology
/// has).
#[derive(Debug, Default)]
struct Latencies {
    generation: u64,
    /// The longest link latency.
    longest: f64,
    /// Every latency is a multiple of 2^-16 ms, so sums below 2^37 ms are
    /// exact.
    dyadic: bool,
}

/// No label: the end of a node's label list.
const NONE: u32 = u32::MAX;

/// A path from the origin in the current probe: its end node, latency
/// (summed from the origin), bottleneck and hops, the label it extends and
/// the edge from that label's node.
#[derive(Clone, Copy, Debug)]
struct Label {
    latency: f64,
    bottleneck: f64,
    hops: u32,
    node: u32,
    via: EdgeId,
    parent: u32,
    /// The node's previous label, or [`NONE`].
    older: u32,
    /// Cleared once another label of the node makes this one useless.
    live: bool,
}

impl Label {
    /// Whether `self` is at least as good as `other` on every count:
    /// latency and hops, and the bottleneck as the tie-break.
    fn covers(&self, other: &Label) -> bool {
        self.latency <= other.latency
            && self.hops <= other.hops
            && (self.latency < other.latency
                || self.hops < other.hops
                || self.bottleneck >= other.bottleneck)
    }
}

/// An open label. `key` is `[!ord(f), !est << 32 | hops,
/// ord(bottleneck)]`, where `est` is the label's hops plus a lower bound
/// on the hops still to go, so the max-heap pops the least `(f, est)`
/// first and, among equals, the deepest label, then the widest, then the
/// oldest.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Open {
    key: [u64; 3],
    label: std::cmp::Reverse<u32>,
}

/// What every probe of one search reads.
#[derive(Clone, Copy)]
struct Query<'a> {
    phys: &'a PhysicalTopology,
    residual: &'a ResidualState,
    origin: NodeId,
    destination: NodeId,
    /// The `ar[]` table, if the lower bound is on.
    ar: Option<ArView<'a>>,
    /// `bound + 1e-9`.
    cap: f64,
}

impl LevelScratch {
    /// [`astar_prune`] with the exact router: steps 1 and 3 of "Exact
    /// per-level routing", trying each level through
    /// [`LevelScratch::holds`].
    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        phys: &PhysicalTopology,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        demand: Kbps,
        latency_bound: Millis,
        ar: Option<ArView<'_>>,
    ) -> Option<(Vec<EdgeId>, SearchStats)> {
        let mut stats = SearchStats::default();
        if origin == destination {
            return Some((Vec::new(), stats));
        }
        let cap = latency_bound.value() + 1e-9;
        // Root admissibility, as A\*Prune tests it.
        if ar.is_some_and(|ar| ar[origin.index()] > cap) {
            return None;
        }
        let q = Query {
            phys,
            residual,
            origin,
            destination,
            ar,
            cap,
        };
        if self.latencies.generation != phys.generation() {
            let graph = phys.graph();
            let lats = || graph.edge_ids().map(|e| phys.link(e).lat.value());
            self.latencies = Latencies {
                generation: phys.generation(),
                longest: lats().fold(0.0, f64::max),
                dyadic: lats().all(|l| (l * 65536.0).fract() == 0.0),
            };
        }
        let demand = demand.value();
        let top = endpoint_cap(phys.graph().csr(), residual, origin, destination, demand)?;
        if self.holds(q, top, &mut stats) {
            return Some((self.path.clone(), stats));
        }
        // Climb from the demand: a probe at `b.next_up()` runs on the edges
        // wider than the last path's bottleneck `b`, and the first that
        // fails leaves the answer in place. Each success raises `level`,
        // and at `top` or above a probe could only repeat the failed one.
        let mut level = demand;
        let mut found = false;
        while level < top && self.holds(q, level, &mut stats) {
            found = true;
            let b = self
                .path
                .iter()
                .map(|&e| residual.bw(e).value())
                .fold(f64::INFINITY, f64::min);
            level = b.next_up();
        }
        found.then(|| (self.path.clone(), stats))
    }

    /// The probe at `level`, unless [`LevelScratch::connected`] proves
    /// that it fails; such a proof counts as [`SearchStats::cut_proofs`].
    fn holds(&mut self, q: Query<'_>, level: f64, stats: &mut SearchStats) -> bool {
        if self.connected(q, level) {
            self.probe(q, level, stats)
        } else {
            stats.cut_proofs += 1;
            false
        }
    }

    /// Step 2's cut: whether the origin and the destination are joined
    /// over the edges with residual `>= level` through no leaf, the
    /// probe's own edge and leaf tests without its latency test. One
    /// breadth-first search grows from each endpoint, a node at a time
    /// in turn; they are joined once one search reaches a node of the
    /// other, and cut apart once either runs dry. `false` proves that the
    /// probe at `level` fails.
    fn connected(&mut self, q: Query<'_>, level: f64) -> bool {
        let csr = q.phys.graph().csr();
        let LevelScratch {
            seen,
            stamp,
            queues,
            ..
        } = self;
        if seen.len() < csr.node_count() {
            seen.resize(csr.node_count(), 0);
        }
        if *stamp > u32::MAX - 2 {
            seen.fill(0);
            *stamp = 0;
        }
        *stamp += 2;
        let marks = [*stamp - 1, *stamp];
        for (side, end) in [q.origin, q.destination].into_iter().enumerate() {
            seen[end.index()] = marks[side];
            queues[side].clear();
            queues[side].push(u32::try_from(end.index()).expect("node fits in u32"));
        }
        let mut heads = [0; 2];
        loop {
            for side in 0..2 {
                let Some(&v) = queues[side].get(heads[side]) else {
                    return false;
                };
                heads[side] += 1;
                for &nb in csr.neighbors(NodeId::from_index(v as usize)) {
                    if q.residual.bw(nb.edge).value() < level {
                        continue;
                    }
                    let w = nb.node.index();
                    if seen[w] == marks[1 - side] {
                        return true;
                    }
                    // Both endpoints are marked already, so a leaf here
                    // is a dead end, not worth a push.
                    if seen[w] != marks[side] && csr.neighbors(nb.node).len() != 1 {
                        seen[w] = marks[side];
                        queues[side].push(w as u32);
                    }
                }
            }
        }
    }

    /// Step 2: one A\* probe over the edges with residual `>= level`.
    /// Returns whether it reached the destination; if so, `self.path`
    /// holds the path.
    fn probe(&mut self, q: Query<'_>, level: f64, stats: &mut SearchStats) -> bool {
        stats.guide_probes += 1;
        let csr = q.phys.graph().csr();
        let LevelScratch {
            labels,
            newest,
            touched,
            open,
            path,
            latencies,
            ..
        } = self;
        for &v in touched.iter() {
            newest[v as usize] = NONE;
        }
        touched.clear();
        labels.clear();
        open.clear();
        if newest.len() < csr.node_count() {
            newest.resize(csr.node_count(), NONE);
        }
        // How far rounding can move a path's final latency from what its
        // latency so far and `f` promise (module docs, "Rounding").
        let slack = if latencies.dyadic && q.cap < 2f64.powi(37) {
            0.0
        } else {
            2.0 * (csr.node_count() + 1) as f64 * q.cap * f64::EPSILON
        };
        // `f` of a path to `v`, and a lower bound on its hops from `v` on:
        // no hop is longer than the longest link. The factor absorbs the
        // rounding of `ar[v]`, so the bound never exceeds a real count.
        let per_hop = (1.0 - 1e-9) / latencies.longest;
        let estimate = |v: usize, latency: f64| match q.ar {
            Some(ar) if per_hop.is_finite() => {
                let rest = ar[v];
                (latency + rest, (rest * per_hop).ceil() as u32)
            }
            Some(ar) => (latency + ar[v], 0),
            None => (latency, 0),
        };
        let index = |v: NodeId| u32::try_from(v.index()).expect("node fits in u32");

        // Adds `label` to its node's list and opens it, unless a label
        // there covers it or is more than `slack` shorter, or its `f`
        // exceeds the cap; drops the labels it outdoes.
        let mut offer = |labels: &mut Vec<Label>, open: &mut BinaryHeap<Open>, mut label: Label| {
            let v = label.node as usize;
            let mut shortest = f64::INFINITY;
            let mut i = newest[v];
            while i != NONE {
                let old = &labels[i as usize];
                if old.live {
                    if old.covers(&label) {
                        return false;
                    }
                    shortest = shortest.min(old.latency);
                }
                i = old.older;
            }
            let (f, to_go) = estimate(v, label.latency);
            if label.latency > shortest + slack || f > q.cap {
                return false;
            }
            let mut i = newest[v];
            while i != NONE {
                let old = &mut labels[i as usize];
                if old.live && (label.covers(old) || old.latency > label.latency + slack) {
                    old.live = false;
                }
                i = old.older;
            }
            if newest[v] == NONE {
                touched.push(label.node);
            }
            label.older = newest[v];
            let at = u32::try_from(labels.len()).expect("labels fit in u32");
            newest[v] = at;
            labels.push(label);
            open.push(Open {
                key: [
                    !ord(f),
                    u64::from(!label.hops.saturating_add(to_go)) << 32 | u64::from(label.hops),
                    ord(label.bottleneck),
                ],
                label: std::cmp::Reverse(at),
            });
            true
        };
        let root = Label {
            latency: 0.0,
            bottleneck: f64::INFINITY,
            hops: 0,
            node: index(q.origin),
            via: EdgeId::from_index(0),
            parent: NONE,
            older: NONE,
            live: true,
        };
        offer(labels, open, root);

        // The best path to the destination popped so far. Once a label
        // pops that neither `f` (up to `slack`) nor `est` lets beat it,
        // none that follows can either.
        let mut best: Option<Label> = None;
        let mut best_at = NONE;
        while let Some(Open { key, label: at }) = open.pop() {
            let label = labels[at.0 as usize];
            if !label.live {
                continue;
            }
            if let Some(b) = &best {
                let (f, est) = (unord(!key[0]), !(key[1] >> 32) as u32);
                if f > b.latency + slack || (f >= b.latency + slack && est >= b.hops) {
                    break;
                }
            }
            stats.expanded += 1;
            let v = NodeId::from_index(label.node as usize);
            if v == q.destination {
                if best.is_none_or(|b| (label.latency, label.hops) < (b.latency, b.hops)) {
                    best = Some(label);
                    best_at = at.0;
                }
                continue;
            }
            for &nb in csr.neighbors(v) {
                let bw = q.residual.bw(nb.edge).value();
                // A leaf other than the destination ends no simple path.
                if bw < level || (csr.neighbors(nb.node).len() == 1 && nb.node != q.destination) {
                    continue;
                }
                let next = Label {
                    latency: label.latency + q.phys.link(nb.edge).lat.value(),
                    bottleneck: label.bottleneck.min(bw),
                    hops: label.hops + 1,
                    node: index(nb.node),
                    via: nb.edge,
                    parent: at.0,
                    older: NONE,
                    live: true,
                };
                if offer(labels, open, next) {
                    stats.pushed += 1;
                }
            }
        }
        if best.is_none() {
            return false;
        }
        path.clear();
        let mut at = best_at;
        while labels[at as usize].parent != NONE {
            path.push(labels[at as usize].via);
            at = labels[at as usize].parent;
        }
        path.reverse();
        true
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
/// With [`AStarPruneConfig::prune_dominated`] the exact router of the
/// module docs runs instead, and every `None` means that.
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
    if config.prune_dominated && config.metric == PathMetric::BottleneckBandwidth {
        let ar = config.use_latency_lower_bound.then_some(ar);
        return scratch.levels.search(
            phys,
            residual,
            origin,
            destination,
            demand,
            latency_bound,
            ar,
        );
    }
    // The precision condition of the module docs; it also rules out
    // infinite and NaN bounds.
    let guided = config.metric == PathMetric::BottleneckBandwidth
        && config.use_latency_lower_bound
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

/// [`astar_prune`] without the exact router, with the guide run only if
/// `guided`.
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

    let RouteScratch {
        frontier, guide, ..
    } = scratch;
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
        } = self;
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

    /// A latency that is a multiple of 0.1 ms, so path sums depend on the
    /// order of addition.
    fn tenths(rng: &mut SmallRng) -> f64 {
        f64::from(rng.gen_range(1..=30u32)) * 0.1
    }

    /// A latency that is a multiple of 0.5 ms, so sums are exact and paths
    /// of different lengths often tie on latency.
    fn halves(rng: &mut SmallRng) -> f64 {
        f64::from(rng.gen_range(1..=4u32)) * 0.5
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

    /// The 5x8 torus with random capacities and latencies drawn by `lat`.
    fn random_torus(rng: &mut SmallRng, lat: fn(&mut SmallRng) -> f64) -> PhysicalTopology {
        let shape = generators::torus2d(5, 8);
        let edges: Vec<_> = shape
            .edges()
            .map(|e| {
                let cap = 4.0 * POOL[rng.gen_range(0..POOL.len())];
                (e.a.index(), e.b.index(), cap, lat(rng))
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

    /// The guide before the max-min search, kept as the reference the
    /// guide must agree with: every usable edge sorted by residual,
    /// Kruskal's order over a union–find for the widest level, then a
    /// bisection over one level per edge that starts at the widest.
    /// Returns the verdict, the probes and the last feasible level's table.
    fn reference_guide(
        phys: &PhysicalTopology,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        demand: f64,
        bound: f64,
    ) -> (Guide, usize, DijkstraScratch) {
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let graph = phys.graph();
        let mut edges: Vec<_> = usable_edges(phys, residual, demand).collect();
        edges.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let mut parent: Vec<usize> = (0..graph.node_count()).collect();
        let (mut probe, mut table) = (DijkstraScratch::new(), DijkstraScratch::new());
        let Some(widest) = edges.iter().position(|&(_, e)| {
            let (a, b) = graph.endpoints(e);
            let root = find(&mut parent, a.index());
            parent[root] = find(&mut parent, b.index());
            find(&mut parent, origin.index()) == find(&mut parent, destination.index())
        }) else {
            return (Guide::NoPath, 0, table);
        };
        let levels = &edges[widest..];
        let (mut lo, mut hi, mut mid, mut probes) = (0, levels.len(), 0, 0);
        let mut above = f64::INFINITY;
        while lo < hi {
            let level = levels[mid].0;
            probes += 1;
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
                std::mem::swap(&mut probe, &mut table);
            } else {
                lo = mid + 1;
                above = lat;
            }
            mid = (lo + hi) / 2;
        }
        let verdict = if above <= bound + 2e-9 {
            Guide::Unguided
        } else if lo == levels.len() {
            Guide::NoPath
        } else {
            Guide::Floor(levels[lo].0)
        };
        (verdict, probes, table)
    }

    /// A verdict in comparable form, with `Floor`'s level as bits.
    fn verdict(guide: &Guide) -> (&'static str, u64) {
        match guide {
            Guide::Floor(b) => ("floor", b.to_bits()),
            Guide::Unguided => ("unguided", 0),
            Guide::NoPath => ("no path", 0),
        }
    }

    /// Checks one query and returns its path:
    /// * the guided search ([`astar_prune`]) returns the unguided search's
    ///   path, with no more expansions;
    /// * the guide returns the reference's verdict, level bits and latency
    ///   table. It probes as often as the reference when no two usable
    ///   residuals are equal, and otherwise at most once more;
    /// * the loop, guided by the reference's verdict, returns the guided
    ///   search's path, expansions and pushes.
    fn check_guide(
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

        let mut guide = GuideScratch::default();
        let mut probes = 0;
        let got = guide.run(
            phys,
            residual,
            origin,
            destination,
            demand,
            bound,
            &mut probes,
        );
        let (want, want_probes, table) =
            reference_guide(phys, residual, origin, destination, demand, bound);
        prop_assert_eq!(
            verdict(&got),
            verdict(&want),
            "demand {} bound {}",
            demand,
            bound
        );
        if let Guide::Floor(_) = want {
            let bits = |t: &DijkstraScratch| t.distances().iter().map(|d| d.to_bits()).collect();
            let (got, want): (Vec<u64>, Vec<u64>) = (bits(&guide.table), bits(&table));
            prop_assert_eq!(got, want);
        }
        // Both probe the widest level first, then bisect the levels below
        // it: the guide each distinct level once, the reference one level
        // per edge. With no two usable residuals equal those are the same
        // levels. Otherwise the guide bisects `m` levels in at most
        // floor(log2 m) + 1 probes and the reference `n >= m` in at least
        // floor(log2(n + 1)), so the guide usually probes less but can
        // probe once more.
        let mut levels: Vec<u64> = usable_edges(phys, residual, demand)
            .map(|(b, _)| b.to_bits())
            .collect();
        let edges = levels.len();
        levels.sort_unstable();
        levels.dedup();
        if levels.len() == edges {
            prop_assert_eq!(probes, want_probes);
        } else {
            let bisection = (usize::BITS - levels.len().leading_zeros()) as usize;
            prop_assert!(
                probes <= (want_probes + 1).min(1 + bisection),
                "{} probes, {} by the reference, {} levels",
                probes,
                want_probes,
                levels.len()
            );
        }

        // The root test comes before the guide.
        let loop_args = match want {
            _ if ar[origin.index()] > bound + 1e-9 => None,
            Guide::NoPath => None,
            Guide::Floor(b) => {
                let table = ArView::new(table.distances(), destination);
                Some((b, table, table[origin.index()] + 1e-9))
            }
            Guide::Unguided => Some((demand, args.2, bound + 1e-9)),
        };
        let reference = loop_args.and_then(|(floor, table, cap)| {
            let mut stats = SearchStats::default();
            Frontier::default()
                .search(
                    phys,
                    residual,
                    origin,
                    destination,
                    floor,
                    table,
                    cap,
                    &config,
                    &mut stats,
                )
                .map(|path| (path, stats.expanded, stats.pushed))
        });
        let guided = guided.map(|(path, s)| (path, s.expanded, s.pushed));
        prop_assert_eq!(&guided, &reference);
        Ok(guided.map(|(path, ..)| path))
    }

    /// Guides one search from node 0 to node 1 of `phys`, checks it with
    /// [`check_guide`] and returns the verdict, the probes and the path.
    fn guide_case(
        phys: &PhysicalTopology,
        demand: f64,
        bound: f64,
    ) -> ((&'static str, u64), usize, Option<Vec<EdgeId>>) {
        let residual = ResidualState::new(phys);
        let (origin, dest) = (phys.hosts()[0], phys.hosts()[1]);
        let mut probes = 0;
        let got =
            GuideScratch::default().run(phys, &residual, origin, dest, demand, bound, &mut probes);
        let path = check_guide(phys, &residual, origin, dest, demand, bound).unwrap();
        (verdict(&got), probes, path)
    }

    #[test]
    fn guide_bisects_each_level_once() {
        // Levels 500 (the widest, 20 ms), 300 (11 ms), 200 (9 ms) and 100,
        // the last two on six edges each. After the widest level fails,
        // the guide probes 200 and 300 of the three levels below it; one
        // level per edge takes two probes more.
        let mut edges = vec![
            (0, 2, 500.0, 10.0),
            (2, 1, 500.0, 10.0),
            (0, 3, 300.0, 4.0),
            (3, 1, 300.0, 7.0),
        ];
        edges.extend(
            [(0, 1, 200.0, 9.0), (2, 3, 100.0, 1.0)]
                .iter()
                .flat_map(|&e| [e; 6]),
        );
        let phys = phys_from_edges(4, &edges);
        let (verdict, probes, _) = guide_case(&phys, 50.0, 10.0);
        assert_eq!((verdict, probes), (("floor", 200f64.to_bits()), 3));
    }

    #[test]
    fn guide_proves_disconnected_endpoints_without_a_probe() {
        // Each endpoint has a usable edge, but only a 50 kbps edge joins
        // their sides.
        let phys = phys_from_edges(
            4,
            &[(0, 2, 500.0, 1.0), (1, 3, 500.0, 1.0), (2, 3, 50.0, 1.0)],
        );
        assert_eq!(guide_case(&phys, 100.0, 10.0), (("no path", 0), 0, None));
    }

    #[test]
    fn guide_finds_a_widest_level_below_the_endpoints_cap() {
        // Both endpoints have a 500 kbps edge, but the wide route narrows
        // to 200 in the middle, and the origin is first reached over the
        // direct 100 kbps edge. Its width is final only when it pops.
        let phys = phys_from_edges(
            4,
            &[
                (0, 2, 500.0, 1.0),
                (2, 3, 200.0, 1.0),
                (3, 1, 500.0, 1.0),
                (0, 1, 100.0, 10.0),
            ],
        );
        let (verdict, probes, path) = guide_case(&phys, 50.0, 12.0);
        assert_eq!((verdict, probes), (("floor", 200f64.to_bits()), 1));
        assert_eq!(path.map(|p| p.len()), Some(3));
    }

    #[test]
    fn guide_leaves_a_level_inside_the_rounding_band_unguided() {
        // The 500 kbps route sums to 0.30000000000000004 ms from the
        // destination: over the 0.3 ms bound, but inside the loop's slack.
        // The direct 100 kbps edge is in bound, yet the guide cannot prove
        // 100, and the unguided search returns the wider route.
        let phys = phys_from_edges(
            3,
            &[(0, 2, 500.0, 0.1), (2, 1, 500.0, 0.2), (0, 1, 100.0, 0.25)],
        );
        let (verdict, probes, path) = guide_case(&phys, 50.0, 0.3);
        assert_eq!((verdict, probes), (("unguided", 0), 2));
        assert_eq!(path.map(|p| p.len()), Some(2));
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

    /// One query's check on a loaded topology, given the origin, the
    /// destination, the demand and the bound; returns the path to commit.
    type Check = fn(
        &PhysicalTopology,
        &ResidualState,
        NodeId,
        NodeId,
        f64,
        f64,
    ) -> Result<Option<Vec<EdgeId>>, TestCaseError>;

    /// Runs `check` on four random queries on a small random multigraph
    /// that carries a few committed routes.
    fn check_on_random_graph(seed: u64, check: Check) -> Result<(), TestCaseError> {
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
                check(&phys, &residual, origin, dest, demand, bound)?;
            }
        }
        Ok(())
    }

    /// Runs `check` on 40 random queries on `phys`, committing every path
    /// found so that residuals tie and later queries climb several levels.
    fn check_under_load(
        phys: &PhysicalTopology,
        rng: &mut SmallRng,
        check: Check,
    ) -> Result<(), TestCaseError> {
        let mut residual = ResidualState::new(phys);
        let hosts = phys.hosts().to_vec();
        for _ in 0..40 {
            let origin = hosts[rng.gen_range(0..hosts.len())];
            let (dest, demand, bound) = if rng.gen_bool(0.5) {
                query(phys, origin, rng)
            } else {
                let dest = hosts[rng.gen_range(0..hosts.len())];
                let slack = f64::from(rng.gen_range(0..8u32)) * 0.5;
                (
                    dest,
                    100.0 * f64::from(rng.gen_range(1..8u32)),
                    ar_for(phys, dest)[origin.index()] + slack,
                )
            };
            if dest == origin {
                continue;
            }
            if let Some(path) = check(phys, &residual, origin, dest, demand, bound)? {
                residual.commit_route(&path, Kbps(demand));
            }
        }
        Ok(())
    }

    /// Cascaded switches, stars of up to `ports - 1` nodes chained by
    /// their hubs, whose links draw capacities from [`POOL`] and latencies
    /// from [`tenths`].
    fn random_switched(rng: &mut SmallRng) -> PhysicalTopology {
        let shape = generators::switched_cascade(rng.gen_range(4..40), rng.gen_range(3..12));
        let edges: Vec<_> = shape
            .edges()
            .map(|e| {
                let cap = 4.0 * POOL[rng.gen_range(0..POOL.len())];
                (e.a.index(), e.b.index(), cap, tenths(rng))
            })
            .collect();
        phys_from_edges(shape.node_count(), &edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The guide changes no result on small random multigraphs, whose
        /// tied levels and exact-sum bounds reach the unguided fallback and
        /// both no-path proofs, and agrees with the reference guide.
        #[test]
        fn guide_keeps_the_path_on_random_graphs(seed in any::<u64>()) {
            check_on_random_graph(seed, check_guide)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The same on 5x8 tori, beyond what path enumeration can check,
        /// loaded by committing every route found.
        #[test]
        fn guide_keeps_the_path_on_loaded_tori(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phys = random_torus(&mut rng, tenths);
            check_under_load(&phys, &mut rng, check_guide)?;
        }

        /// The same on loaded cascades of stars, the switched cluster's
        /// shape, where every path is unique and its width is usually the
        /// endpoints' cap.
        #[test]
        fn guide_keeps_the_path_on_loaded_stars(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let phys = random_switched(&mut rng);
            check_under_load(&phys, &mut rng, check_guide)?;
        }
    }

    /// A `k`-ary fat-tree whose links draw capacities from [`POOL`] and
    /// latencies from [`halves`].
    fn random_fat_tree(k: usize, rng: &mut SmallRng) -> PhysicalTopology {
        let shape = generators::fat_tree(k);
        let edges: Vec<_> = shape
            .edges()
            .map(|e| {
                let cap = 2.0 * POOL[rng.gen_range(0..POOL.len())];
                (e.a.index(), e.b.index(), cap, halves(rng))
            })
            .collect();
        phys_from_edges(shape.node_count(), &edges)
    }

    /// `(bottleneck, latency bits, hops)` of a path, its latency summed
    /// from the origin as the searches sum it.
    fn triple(
        phys: &PhysicalTopology,
        residual: &ResidualState,
        path: &[EdgeId],
    ) -> (u64, u64, usize) {
        let lat = path
            .iter()
            .fold(0.0, |acc, &e| acc + phys.link(e).lat.value());
        let bw = path
            .iter()
            .map(|&e| residual.bw(e).value())
            .fold(f64::INFINITY, f64::min);
        (bw.to_bits(), lat.to_bits(), path.len())
    }

    /// The default configuration with the exact router selected.
    fn exact() -> AStarPruneConfig {
        AStarPruneConfig {
            prune_dominated: true,
            ..Default::default()
        }
    }

    /// The exact router's climb over a sorted level list, kept as the
    /// reference for the `next_up` climb: after the failed cap probe it
    /// probes the demand, then the least usable residual below the cap
    /// above each path's bottleneck. Returns the path and the probe count.
    fn climb_over_sorted_levels(
        scratch: &mut LevelScratch,
        q: Query<'_>,
        demand: f64,
    ) -> (Option<Vec<EdgeId>>, usize) {
        let mut stats = SearchStats::default();
        let csr = q.phys.graph().csr();
        let Some(top) = endpoint_cap(csr, q.residual, q.origin, q.destination, demand) else {
            return (None, 0);
        };
        if scratch.probe(q, top, &mut stats) {
            return (Some(scratch.path.clone()), stats.guide_probes);
        }
        let mut levels: Vec<f64> = usable_edges(q.phys, q.residual, demand)
            .map(|(level, _)| level)
            .filter(|&level| level < top)
            .collect();
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        let (mut found, mut next) = (None, Some(demand));
        while let Some(level) = next {
            if !scratch.probe(q, level, &mut stats) {
                break;
            }
            let b = f64::from_bits(triple(q.phys, q.residual, &scratch.path).0);
            let above = levels.partition_point(|&l| l <= b);
            next = levels.get(above).copied();
            found = Some(scratch.path.clone());
        }
        (found, stats.guide_probes)
    }

    /// Routes one query with the exact router and with the default
    /// guided A\*Prune and checks that both find a path or neither does,
    /// with equal triples, and that the exact router's path is the one
    /// [`climb_over_sorted_levels`] finds, trying at most one level more
    /// and running no more probes unless the cut proved none. Returns
    /// A\*Prune's path.
    fn exact_matches_astar_prune(
        phys: &PhysicalTopology,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        demand: f64,
        bound: f64,
    ) -> Result<Option<Vec<EdgeId>>, TestCaseError> {
        let ar = ar_for(phys, destination);
        let mut scratch = LevelScratch::default();
        let exact = scratch.search(
            phys,
            residual,
            origin,
            destination,
            Kbps(demand),
            Millis(bound),
            Some(ArView::new(&ar, destination)),
        );
        let astar = search(
            phys,
            residual,
            origin,
            destination,
            Kbps(demand),
            Millis(bound),
            &ar,
            &AStarPruneConfig::default(),
        )
        .map(|(path, _)| path);
        prop_assert_eq!(
            exact.as_ref().map(|(p, _)| triple(phys, residual, p)),
            astar.as_ref().map(|p| triple(phys, residual, p)),
            "demand {} bound {}",
            demand,
            bound
        );
        let cap = bound + 1e-9;
        if origin != destination && ar[origin.index()] <= cap {
            let q = Query {
                phys,
                residual,
                origin,
                destination,
                ar: Some(ArView::new(&ar, destination)),
                cap,
            };
            let (reference, probes) = climb_over_sorted_levels(&mut scratch, q, demand);
            prop_assert_eq!(exact.as_ref().map(|(p, _)| p), reference.as_ref());
            if let Some((_, stats)) = &exact {
                // The router tries the reference's levels, plus one level
                // when no usable residual lies between the last bottleneck
                // and the cap. That level has the cap's edge set, so only a
                // cap probe the cut could not prove repeats as a probe.
                let tried = stats.guide_probes + stats.cut_proofs;
                prop_assert!(
                    (probes..=probes + 1).contains(&tried),
                    "{} probes and {} cut proofs, {} probes by the reference",
                    stats.guide_probes,
                    stats.cut_proofs,
                    probes
                );
                prop_assert!(
                    stats.guide_probes <= probes || stats.cut_proofs == 0,
                    "{} probes and {} cut proofs, {} probes by the reference",
                    stats.guide_probes,
                    stats.cut_proofs,
                    probes
                );
            }
        }
        Ok(astar)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The exact router returns A\*Prune's triple on loaded
        /// `fat_tree(4)` and `fat_tree(6)`, whose equal-cost paths are
        /// what it exists for.
        #[test]
        fn exact_router_matches_astar_prune_on_fat_trees(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let k = if rng.gen_bool(0.5) { 4 } else { 6 };
            let phys = random_fat_tree(k, &mut rng);
            check_under_load(&phys, &mut rng, exact_matches_astar_prune)?;
        }

        /// The same on loaded 5x8 tori, half of them with
        /// tenth-of-a-millisecond latencies, whose sums depend on the order
        /// of addition.
        #[test]
        fn exact_router_matches_astar_prune_on_loaded_tori(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let lat = if rng.gen_bool(0.5) { tenths } else { halves };
            let phys = random_torus(&mut rng, lat);
            check_under_load(&phys, &mut rng, exact_matches_astar_prune)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The same on small random multigraphs, with their self-loops,
        /// parallel edges and leaves.
        #[test]
        fn exact_router_matches_astar_prune_on_random_graphs(seed in any::<u64>()) {
            check_on_random_graph(seed, exact_matches_astar_prune)?;
        }
    }

    /// Routes one query with the exact router, then holds the
    /// reachability cut to the probe at the demand, at every distinct
    /// residual and just above each: where the cut finds the endpoints
    /// apart, the probe under the query's bound fails, and with no latency
    /// bound the probe succeeds exactly where the cut finds them joined.
    /// Returns the router's path.
    fn cut_agrees_with_probe(
        phys: &PhysicalTopology,
        residual: &ResidualState,
        origin: NodeId,
        destination: NodeId,
        demand: f64,
        bound: f64,
    ) -> Result<Option<Vec<EdgeId>>, TestCaseError> {
        let ar = ar_for(phys, destination);
        let ar = Some(ArView::new(&ar, destination));
        let mut scratch = LevelScratch::default();
        let found = scratch
            .search(
                phys,
                residual,
                origin,
                destination,
                Kbps(demand),
                Millis(bound),
                ar,
            )
            .map(|(path, _)| path);
        let mut levels: Vec<f64> = usable_edges(phys, residual, 0.0)
            .flat_map(|(level, _)| [level, level.next_up()])
            .chain([demand])
            .collect();
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        let bounded = Query {
            phys,
            residual,
            origin,
            destination,
            ar,
            cap: bound + 1e-9,
        };
        let unbounded = Query {
            ar: None,
            cap: 1e6,
            ..bounded
        };
        let mut stats = SearchStats::default();
        for level in levels {
            let joined = scratch.connected(bounded, level);
            prop_assert!(
                joined || !scratch.probe(bounded, level, &mut stats),
                "level {} is cut, yet its probe succeeds",
                level
            );
            prop_assert_eq!(
                scratch.probe(unbounded, level, &mut stats),
                joined,
                "level {} without a latency bound",
                level
            );
        }
        Ok(found)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The cut is sound, and exact without a latency bound, on loaded
        /// `fat_tree(4)` and `fat_tree(6)`.
        #[test]
        fn reachability_cut_agrees_with_probes_on_fat_trees(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let k = if rng.gen_bool(0.5) { 4 } else { 6 };
            let phys = random_fat_tree(k, &mut rng);
            check_under_load(&phys, &mut rng, cut_agrees_with_probe)?;
        }

        /// The same on loaded 5x8 tori.
        #[test]
        fn reachability_cut_agrees_with_probes_on_loaded_tori(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let lat = if rng.gen_bool(0.5) { tenths } else { halves };
            let phys = random_torus(&mut rng, lat);
            check_under_load(&phys, &mut rng, cut_agrees_with_probe)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The same on small random multigraphs, whose leaves, self-loops
        /// and parallel edges the cut must treat as the probe does.
        #[test]
        fn reachability_cut_agrees_with_probes_on_random_graphs(seed in any::<u64>()) {
            check_on_random_graph(seed, cut_agrees_with_probe)?;
        }
    }

    #[test]
    fn cut_proves_the_cap_and_last_probes_fail() {
        // In `fat_tree(4)`, host 0 hangs off edge switch 16, whose uplinks
        // to aggregation switches 24 and 25 carry 300 and 500 of their
        // 1000. Every other link is free, so the endpoints' cap is 1000,
        // which no path reaches, and the shortest path at the demand runs
        // over the faster uplink to 24 with bottleneck 700, which no path
        // exceeds. The cut proves both the cap probe and the probe just
        // above 700 fail, so one A* probe runs where the reference runs
        // two, the failed cap probe among them.
        let shape = generators::fat_tree(4);
        let uplink = |a: usize, b: usize| (a, b) == (16, 25);
        let edges: Vec<_> = shape
            .edges()
            .map(|e| {
                let (a, b) = (e.a.index(), e.b.index());
                (a, b, 1000.0, if uplink(a, b) { 1.0 } else { 0.5 })
            })
            .collect();
        let phys = phys_from_edges(shape.node_count(), &edges);
        let mut residual = ResidualState::new(&phys);
        for (agg, load) in [(24, 300.0), (25, 500.0)] {
            let nb = phys
                .graph()
                .neighbors(NodeId::from_index(16))
                .find(|nb| nb.node.index() == agg)
                .expect("edge switch 16 reaches its pod's aggregation switches");
            residual.commit_route(&[nb.edge], Kbps(load));
        }
        let (origin, destination) = (NodeId::from_index(0), NodeId::from_index(8));
        let ar = ar_for(&phys, destination);
        let ar = Some(ArView::new(&ar, destination));
        let mut scratch = LevelScratch::default();
        let (path, stats) = scratch
            .search(
                &phys,
                &residual,
                origin,
                destination,
                Kbps(100.0),
                Millis(10.0),
                ar,
            )
            .expect("a path at the demand exists");
        assert_eq!(
            triple(&phys, &residual, &path),
            (700f64.to_bits(), 3f64.to_bits(), 6)
        );
        assert_eq!((stats.guide_probes, stats.cut_proofs), (1, 2));
        let q = Query {
            phys: &phys,
            residual: &residual,
            origin,
            destination,
            ar,
            cap: 10.0 + 1e-9,
        };
        let (reference, probes) = climb_over_sorted_levels(&mut scratch, q, 100.0);
        assert_eq!(reference, Some(path));
        assert_eq!(probes, 2);
    }

    #[test]
    fn exact_router_scratch_reuse_is_pure() {
        // One warm scratch serves loaded queries on two topologies in
        // turn: labels, the path and the cached longest latency must not
        // leak from one search into the next.
        let mut rng = SmallRng::seed_from_u64(23);
        let nets = [random_fat_tree(6, &mut rng), random_torus(&mut rng, tenths)];
        let mut residuals: Vec<_> = nets.iter().map(ResidualState::new).collect();
        let mut warm = RouteScratch::new();
        let mut climbs = 0;
        for i in 0..60 {
            let (phys, residual) = (&nets[i % 2], &mut residuals[i % 2]);
            let hosts = phys.hosts();
            let (origin, dest) = (
                hosts[rng.gen_range(0..hosts.len())],
                hosts[rng.gen_range(0..hosts.len())],
            );
            let ar = ar_for(phys, dest);
            let (demand, bound) = (Kbps(100.0), Millis(ar[origin.index()] + 1.0));
            let fresh = search(phys, residual, origin, dest, demand, bound, &ar, &exact());
            let reused = astar_prune(
                phys,
                residual,
                origin,
                dest,
                demand,
                bound,
                ArView::new(&ar, dest),
                &exact(),
                &mut warm,
            );
            assert_eq!(fresh, reused);
            if let Some((path, stats)) = fresh {
                climbs += usize::from(stats.guide_probes + stats.cut_proofs > 1);
                residual.commit_route(&path, demand);
            }
        }
        assert!(climbs > 0, "some searches must try more than one level");
    }

    #[test]
    fn cut_stamp_wrap_around_clears_stale_marks() {
        // On the path 0-1-2-3-4 the first cut leaves the origin's mark on
        // 0-2 and the destination's on 3-4. The next stamp wraps, so the
        // same marks come round again; uncleared, they would stop both
        // searches at once and cut the path apart.
        let phys = phys_from_edges(5, &[0, 1, 2, 3].map(|a| (a, a + 1, 100.0, 0.5)));
        let residual = ResidualState::new(&phys);
        let q = Query {
            phys: &phys,
            residual: &residual,
            origin: NodeId::from_index(0),
            destination: NodeId::from_index(4),
            ar: None,
            cap: 10.0,
        };
        let mut scratch = LevelScratch::default();
        assert!(scratch.connected(q, 100.0));
        scratch.stamp = u32::MAX - 1;
        assert!(scratch.connected(q, 100.0));
        assert_eq!(
            scratch.stamp, 2,
            "the second cut must cross the wrap-around"
        );
    }
}
