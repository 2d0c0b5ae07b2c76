//! The depth-first path search used by the evaluation's baselines
//! (§5: Random "applies a depth-first search algorithm to find a path",
//! and Hosting+Search routes the same way).
//!
//! ### Faithfulness notes
//!
//! The paper never specifies its DFS beyond "depth-first search", but its
//! published failure pattern constrains it tightly:
//!
//! * R fails where RA succeeds (torus, ≥ 7.5:1 and all low-level rows), so
//!   the DFS must be **non-exhaustive with respect to latency**: it can
//!   miss feasible paths (otherwise it would match A\*Prune's success
//!   rate, and the paper's conclusion that "the main responsible for the
//!   success ... is the A\*Prune algorithm" would be false).
//! * R *succeeds* on the torus at 2.5:1–5:1 and always on the switched
//!   cluster, so the DFS must find latency-feasible paths *most* of the
//!   time when the network is uncongested — a uniformly random walk
//!   would not (its paths on a 40-node torus average far beyond the 6–12
//!   hops the 30–60 ms bounds allow).
//!
//! The implementation therefore walks depth-first preferring neighbors
//! closer to the destination (distance taken from a hop-count BFS, the
//! cheap analogue of A\*Prune's `ar[]` table), with random tie-breaking,
//! and **wanders** — explores in random order instead — at each node with
//! probability [`WANDER_PROBABILITY`]. Bandwidth is respected during the
//! search (a saturated edge is a dead end and the walk backtracks);
//! the latency bound is only checked once a path is complete, and a
//! violation fails the attempt outright. The wander probability is
//! calibrated so the per-link success probability on an uncongested torus
//! is ≈ 0.95, which reproduces the paper's R/HS failure thresholds (see
//! EXPERIMENTS.md).

use crate::astar_prune::SearchStats;
use crate::cache::{ArView, MapCache};
use crate::networking::{LinkRequest, LinkRouter, Routed};
use emumap_graph::{EdgeId, NodeId};
use emumap_model::{Kbps, Millis, PhysicalTopology, ResidualState};
use emumap_trace::LinkVerdict;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// Probability, per expanded node, that the DFS explores neighbors in
/// random order instead of closest-to-destination-first.
pub const WANDER_PROBABILITY: f64 = 0.2;

/// One level of the DFS stack: a node plus its (shuffled, possibly
/// distance-sorted) neighbor list and a cursor into it.
#[derive(Debug)]
struct Frame {
    node: NodeId,
    neighbors: Vec<(NodeId, EdgeId)>,
    next: usize,
}

/// Reusable buffers for [`naive_dfs_route`]: the visited bitmap, the
/// frame stack, and a pool of recycled neighbor lists.
///
/// The per-call cost of the baseline router is dominated by one neighbor
/// `Vec` allocation per expanded node; the pool hands frames their list
/// back from earlier searches instead. Purely an allocation cache — the
/// search consumes the RNG and visits nodes in exactly the same order
/// whatever the scratch history, so results are bit-identical.
#[derive(Debug, Default)]
pub struct DfsScratch {
    on_path: Vec<bool>,
    frames: Vec<Frame>,
    spare: Vec<Vec<(NodeId, EdgeId)>>,
    backtracks: usize,
}

impl DfsScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        DfsScratch::default()
    }

    /// Cumulative backtrack steps (frames popped with no remaining
    /// neighbor) across every search on this scratch. Surfaced once, as
    /// the `dfs_backtracks` counter of the R and HS Networking spans.
    pub fn backtracks(&self) -> usize {
        self.backtracks
    }

    /// Resets the visited bitmap for an `n`-node graph and recycles any
    /// leftover frames into the spare pool.
    fn begin(&mut self, n: usize) {
        self.on_path.clear();
        self.on_path.resize(n, false);
        for mut f in self.frames.drain(..) {
            f.neighbors.clear();
            self.spare.push(f.neighbors);
        }
    }

    /// An empty neighbor buffer, reusing a pooled one when available.
    fn neighbor_buf(&mut self) -> Vec<(NodeId, EdgeId)> {
        self.spare.pop().unwrap_or_default()
    }
}

/// Finds a simple path from `origin` to `destination` whose edges all have
/// residual bandwidth `>= demand`, walking depth-first with the bias
/// described in the module docs. The completed path is accepted only if
/// its total latency is within `latency_bound`; otherwise the attempt
/// fails (`None`) with **no** latency backtracking — the baseline's
/// defining weakness versus A\*Prune.
///
/// `hops_to_dest` is the unit-cost distance table rooted at `destination`,
/// from [`ArTables::hops_and_csr`](crate::ArTables::hops_and_csr).
/// Bit-identical results (and RNG consumption) for any `scratch` history.
#[allow(clippy::too_many_arguments)] // mirrors the astar_prune signature
pub fn naive_dfs_route(
    phys: &PhysicalTopology,
    residual: &ResidualState,
    origin: NodeId,
    destination: NodeId,
    demand: Kbps,
    latency_bound: Millis,
    hops_to_dest: ArView<'_>,
    rng: &mut dyn RngCore,
    scratch: &mut DfsScratch,
) -> Option<Vec<EdgeId>> {
    if origin == destination {
        return Some(Vec::new());
    }
    let graph = phys.graph();
    let csr = graph.csr();
    let want = demand.value();
    scratch.begin(graph.node_count());

    let fill_neighbors = |buf: &mut Vec<(NodeId, EdgeId)>, node: NodeId, rng: &mut dyn RngCore| {
        buf.clear();
        buf.extend(csr.neighbors(node).iter().map(|nb| (nb.node, nb.edge)));
        buf.shuffle(rng); // random tie-breaking baseline order
        if rng.gen::<f64>() >= WANDER_PROBABILITY {
            // Mostly: head toward the destination (stable sort keeps the
            // shuffled order within equal distances).
            buf.sort_by(|a, b| hops_to_dest[a.0.index()].total_cmp(&hops_to_dest[b.0.index()]));
        }
    };

    scratch.on_path[origin.index()] = true;
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut root = scratch.neighbor_buf();
    fill_neighbors(&mut root, origin, rng);
    scratch.frames.push(Frame {
        node: origin,
        neighbors: root,
        next: 0,
    });

    while let Some(frame) = scratch.frames.last_mut() {
        let mut pushed: Option<NodeId> = None;
        let mut advanced = false;
        while frame.next < frame.neighbors.len() {
            let (node, edge) = frame.neighbors[frame.next];
            frame.next += 1;
            if scratch.on_path[node.index()] {
                continue;
            }
            if residual.bw(edge).value() < want {
                continue;
            }
            edges.push(edge);
            if node == destination {
                // First complete path: accept or reject on latency, no
                // backtracking.
                let total: f64 = edges.iter().map(|&e| phys.link(e).lat.value()).sum();
                if total <= latency_bound.value() + 1e-9 {
                    return Some(edges);
                }
                return None;
            }
            pushed = Some(node);
            advanced = true;
            break;
        }
        if advanced {
            let node = pushed.expect("advanced implies a pushed node");
            scratch.on_path[node.index()] = true;
            let mut buf = scratch.neighbor_buf();
            fill_neighbors(&mut buf, node, rng);
            scratch.frames.push(Frame {
                node,
                neighbors: buf,
                next: 0,
            });
        } else {
            let mut done = scratch.frames.pop().expect("frame exists");
            scratch.on_path[done.node.index()] = false;
            edges.pop();
            done.neighbors.clear();
            scratch.spare.push(done.neighbors);
            scratch.backtracks += 1;
        }
    }
    None
}

/// The baselines' router for [`networking_stage`](crate::networking_stage):
/// [`naive_dfs_route`] biased by the cache's hop-count tables, drawing
/// from `rng`. A miss is no infeasibility proof (the walk is heuristic),
/// and the baselines retry hundreds of times — running the max-flow
/// diagnosis per miss would swamp the trace — so every miss reports
/// [`LinkVerdict::PossiblyRoutable`].
pub struct DfsRouter<'r> {
    /// The mapper's random stream.
    pub rng: &'r mut dyn RngCore,
}

impl LinkRouter for DfsRouter<'_> {
    fn route(&mut self, cache: &mut MapCache, link: &LinkRequest<'_>) -> Routed {
        let (hops, _) = cache.topo.hops_and_csr(link.phys, link.to);
        naive_dfs_route(
            link.phys,
            link.residual,
            link.from,
            link.to,
            link.spec.bw,
            link.spec.lat,
            hops,
            self.rng,
            &mut cache.dfs,
        )
        .map(|edges| (edges, SearchStats::default()))
        .ok_or(Some(LinkVerdict::PossiblyRoutable))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{HostSpec, LinkSpec, MemMb, Mips, StorGb, VmmOverhead};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn phys(shape: &emumap_graph::generators::Topology, bw: f64) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(bw), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    fn route(
        p: &PhysicalTopology,
        r: &ResidualState,
        from: usize,
        to: usize,
        demand: f64,
        bound: f64,
        seed: u64,
    ) -> Option<Vec<EdgeId>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        route_on(
            p,
            r,
            from,
            to,
            demand,
            bound,
            &mut rng,
            &mut DfsScratch::new(),
        )
    }

    /// [`route`] on caller-owned scratch, with the hop table and CSR from a
    /// fresh [`ArTables`](crate::ArTables).
    #[allow(clippy::too_many_arguments)]
    fn route_on(
        p: &PhysicalTopology,
        r: &ResidualState,
        from: usize,
        to: usize,
        demand: f64,
        bound: f64,
        rng: &mut SmallRng,
        scratch: &mut DfsScratch,
    ) -> Option<Vec<EdgeId>> {
        let dst = p.hosts()[to];
        let mut tables = crate::ArTables::new();
        tables.prepare(p);
        let (hops, _) = tables.hops_and_csr(p, dst);
        naive_dfs_route(
            p,
            r,
            p.hosts()[from],
            dst,
            Kbps(demand),
            Millis(bound),
            hops,
            rng,
            scratch,
        )
    }

    #[test]
    fn reused_scratch_matches_fresh_search() {
        // The scratch is an allocation cache only: identical RNG
        // consumption and identical paths whatever its history.
        let p = phys(&generators::torus2d(4, 4), 1000.0);
        let r = ResidualState::new(&p);
        let mut scratch = DfsScratch::new();
        for seed in 0..40u64 {
            let from = (seed as usize * 5) % 16;
            let to = (seed as usize * 11 + 3) % 16;
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let fresh = route_on(
                &p,
                &r,
                from,
                to,
                10.0,
                60.0,
                &mut rng_a,
                &mut DfsScratch::new(),
            );
            let reused = route_on(&p, &r, from, to, 10.0, 60.0, &mut rng_b, &mut scratch);
            assert_eq!(fresh, reused, "seed {seed}");
            assert_eq!(
                rng_a.gen::<u64>(),
                rng_b.gen::<u64>(),
                "seed {seed}: RNG streams diverged"
            );
        }
    }

    #[test]
    fn finds_the_unique_path_on_a_line() {
        let p = phys(&generators::line(4), 100.0);
        let r = ResidualState::new(&p);
        let path = route(&p, &r, 0, 3, 10.0, 100.0, 1).unwrap();
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn rejects_when_bandwidth_is_insufficient() {
        let p = phys(&generators::line(2), 5.0);
        let r = ResidualState::new(&p);
        assert!(route(&p, &r, 0, 1, 10.0, 100.0, 1).is_none());
    }

    #[test]
    fn mostly_direct_but_sometimes_wanders() {
        // Ring of 8, adjacent nodes, tight bound (only the 1-hop direct
        // edge fits). The biased DFS should succeed most of the time but
        // not always — the calibrated failure mode of the baselines.
        let p = phys(&generators::ring(8), 100.0);
        let r = ResidualState::new(&p);
        let mut success = 0;
        let trials = 200;
        for seed in 0..trials {
            if route(&p, &r, 0, 1, 10.0, 5.0, seed).is_some() {
                success += 1;
            }
        }
        let rate = success as f64 / trials as f64;
        assert!(
            rate > 0.6,
            "biased DFS should usually go direct (rate {rate})"
        );
        assert!(
            rate < 1.0,
            "wander must occasionally produce long paths (rate {rate})"
        );
    }

    #[test]
    fn torus_per_link_success_rate_is_high_when_uncongested() {
        // The calibration target behind WANDER_PROBABILITY: on the paper's
        // empty 5x8 torus with paper-typical latency bounds, a single link
        // routes successfully ~95% of the time.
        let p = phys(&generators::torus2d(5, 8), 1_000_000.0);
        let r = ResidualState::new(&p);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut success = 0;
        let trials = 400;
        for t in 0..trials {
            let from = (t * 7) % 40;
            let to = (t * 13 + 11) % 40;
            if from == to {
                success += 1;
                continue;
            }
            let bound = 30.0 + 30.0 * rng.gen::<f64>(); // 30-60 ms as in Table 1
            if route(&p, &r, from, to, 100.0, bound, t as u64).is_some() {
                success += 1;
            }
        }
        let rate = success as f64 / trials as f64;
        assert!(
            (0.85..=0.995).contains(&rate),
            "per-link success on empty torus should be ~0.95, got {rate}"
        );
    }

    #[test]
    fn same_node_gives_empty_path() {
        let p = phys(&generators::line(2), 100.0);
        let r = ResidualState::new(&p);
        let path = route(&p, &r, 0, 0, 10.0, 0.0, 1).unwrap();
        assert!(path.is_empty());
    }

    #[test]
    fn backtracks_around_bandwidth_dead_ends() {
        let p = phys(&generators::star(4), 100.0);
        let mut r = ResidualState::new(&p);
        let to3 = p.graph().find_edge(p.hosts()[0], p.hosts()[3]).unwrap();
        r.commit_route(&[to3], Kbps(95.0));
        let path = route(&p, &r, 1, 2, 50.0, 100.0, 9).unwrap();
        assert_eq!(path.len(), 2);
        assert!(!path.contains(&to3));
    }

    #[test]
    fn backtrack_counter_accumulates() {
        // Line 0-1-2 with the 1-2 edge saturated: the walk reaches node 1,
        // exhausts its neighbors, pops it, then pops the root — exactly two
        // backtracks, independent of the RNG.
        let p = phys(&generators::line(3), 100.0);
        let mut r = ResidualState::new(&p);
        let e12 = p.graph().find_edge(p.hosts()[1], p.hosts()[2]).unwrap();
        r.commit_route(&[e12], Kbps(95.0));
        let mut scratch = DfsScratch::new();
        let mut rng = SmallRng::seed_from_u64(7);
        let res = route_on(&p, &r, 0, 2, 50.0, 100.0, &mut rng, &mut scratch);
        assert!(res.is_none());
        assert_eq!(
            scratch.backtracks(),
            2,
            "frame 1 then the root frame popped"
        );
    }

    #[test]
    fn switched_topology_always_routes() {
        // §5.2: on the switched cluster "there is only one possible path"
        // — host-switch-host, 10 ms — so the DFS baseline never fails
        // there, matching R's near-zero switched failure count.
        let p = phys(&generators::switched_cascade(40, 64), 1_000_000.0);
        let r = ResidualState::new(&p);
        for seed in 0..50 {
            let path = route(&p, &r, 0, 39, 100.0, 30.0, seed).unwrap();
            assert_eq!(path.len(), 2);
        }
    }

    #[test]
    fn path_is_simple_on_torus() {
        let p = phys(&generators::torus2d(4, 4), 1000.0);
        let r = ResidualState::new(&p);
        for seed in 0..20 {
            if let Some(path) = route(&p, &r, 0, 10, 1.0, 1e9, seed) {
                let mut cur = p.hosts()[0];
                let mut seen = vec![cur];
                for e in path {
                    cur = p.graph().edge_ref(e).other(cur);
                    assert!(!seen.contains(&cur), "seed {seed}: path revisits {cur}");
                    seen.push(cur);
                }
                assert_eq!(cur, p.hosts()[10]);
            }
        }
    }
}
