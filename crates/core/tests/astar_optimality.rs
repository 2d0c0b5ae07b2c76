//! A*Prune optimality oracle: on small random graphs, exhaustively
//! enumerate every latency-feasible simple path and verify that the
//! modified 1-constrained A*Prune returns a path whose bottleneck residual
//! bandwidth is maximal (the paper's widest-path selection rule), subject
//! to both constraints, and that the exact router `prune_dominated`
//! selects returns the best `(bottleneck, latency, hops)` triple, and
//! that `diagnose_route` gives the verdict the enumeration proves. On
//! larger random clusters, check that scratch history never reaches a
//! result. On the paper's two 40-host clusters, pin the path and
//! the search effort of a fixed batch of queries, so a change to the
//! candidate order shows even where it keeps every path feasible.

use emumap_core::{
    astar_prune, diagnose_route, AStarPruneConfig, ArView, LinkVerdict, PathMetric, RouteScratch,
};
use emumap_graph::algo::dijkstra;
use emumap_graph::generators::random_connected;
use emumap_graph::{EdgeId, Graph, NodeId};
use emumap_model::{
    HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysNode, PhysicalTopology, ResidualState,
    StorGb, VLinkSpec, VmmOverhead,
};
use emumap_workloads::ClusterSpec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Enumerates every simple path from `from` to `to`; calls `visit` with
/// (edges, total latency, bottleneck bandwidth).
fn enumerate_paths(
    phys: &PhysicalTopology,
    residual: &ResidualState,
    from: NodeId,
    to: NodeId,
    visit: &mut impl FnMut(&[EdgeId], f64, f64),
) {
    #[allow(clippy::too_many_arguments)]
    fn rec(
        phys: &PhysicalTopology,
        residual: &ResidualState,
        cur: NodeId,
        to: NodeId,
        on_path: &mut Vec<NodeId>,
        edges: &mut Vec<EdgeId>,
        lat: f64,
        bottleneck: f64,
        visit: &mut impl FnMut(&[EdgeId], f64, f64),
    ) {
        if cur == to {
            visit(edges, lat, bottleneck);
            return;
        }
        for &nb in phys.graph().csr().neighbors(cur) {
            if on_path.contains(&nb.node) {
                continue;
            }
            on_path.push(nb.node);
            edges.push(nb.edge);
            rec(
                phys,
                residual,
                nb.node,
                to,
                on_path,
                edges,
                lat + phys.link(nb.edge).lat.value(),
                bottleneck.min(residual.bw(nb.edge).value()),
                visit,
            );
            edges.pop();
            on_path.pop();
        }
    }
    let mut on_path = vec![from];
    let mut edges = Vec::new();
    rec(
        phys,
        residual,
        from,
        to,
        &mut on_path,
        &mut edges,
        0.0,
        f64::INFINITY,
        visit,
    );
}

fn random_phys(n: usize, density: f64, seed: u64) -> (PhysicalTopology, ResidualState) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = random_connected(n, density, &mut rng);
    let mut g: Graph<PhysNode, LinkSpec> = Graph::new();
    for _ in 0..shape.node_count() {
        g.add_node(PhysNode::Host(HostSpec::new(
            Mips(1000.0),
            MemMb(1024),
            StorGb(100.0),
        )));
    }
    for e in shape.edges() {
        g.add_edge(
            e.a,
            e.b,
            LinkSpec::new(
                Kbps((rng.gen_range(1..=10) * 100) as f64),
                Millis(rng.gen_range(1..=5) as f64),
            ),
        );
    }
    let phys = PhysicalTopology::from_graph(g, VmmOverhead::NONE);
    let residual = ResidualState::new(&phys);
    (phys, residual)
}

/// A random connected cluster with heterogeneous link bandwidths and
/// latencies (uniform links would make most checks vacuous — every path
/// ties). Pure function of the inputs.
fn build_cluster(hosts: usize, density: f64, seed: u64) -> PhysicalTopology {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = random_connected(hosts, density, &mut rng);
    let mut g: Graph<PhysNode, LinkSpec> = Graph::with_capacity(shape.node_count(), 0);
    let ids: Vec<NodeId> = (0..shape.node_count())
        .map(|_| {
            g.add_node(PhysNode::Host(HostSpec::new(
                Mips(2000.0),
                MemMb::from_gb(2),
                StorGb(500.0),
            )))
        })
        .collect();
    for e in shape.edges() {
        let bw = Kbps(rng.gen_range(100.0..2000.0));
        let lat = Millis(rng.gen_range(1.0..10.0));
        g.add_edge(ids[e.a.index()], ids[e.b.index()], LinkSpec::new(bw, lat));
    }
    PhysicalTopology::from_graph(g, VmmOverhead::NONE)
}

fn arb_cluster() -> impl Strategy<Value = (PhysicalTopology, u64)> {
    (3usize..40, 0.0f64..0.5, any::<u64>())
        .prop_map(|(hosts, density, seed)| (build_cluster(hosts, density, seed), seed))
}

/// Picks two distinct hosts, a pure function of (phys, seed).
fn pick_pair(phys: &PhysicalTopology, seed: u64) -> (NodeId, NodeId) {
    let hosts = phys.hosts();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51f3);
    let a = hosts[rng.gen_range(0..hosts.len())];
    let b = loop {
        let b = hosts[rng.gen_range(0..hosts.len())];
        if b != a {
            break b;
        }
    };
    (a, b)
}

/// The latency `ar[]` table rooted at `dest`.
fn ar_table(phys: &PhysicalTopology, dest: NodeId) -> Vec<f64> {
    dijkstra(phys.graph(), dest, |_, l| l.lat.value()).into_distances()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A search on a scratch dirtied by earlier searches equals one on
    /// `RouteScratch::new()`: scratch history must never leak into a
    /// result.
    #[test]
    fn astar_prune_warm_scratch_matches_fresh((phys, seed) in arb_cluster()) {
        let residual = ResidualState::new(&phys);
        let config = AStarPruneConfig::default();
        let mut dirty = RouteScratch::new();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xa5a5);
        for trial in 0..3u64 {
            let (origin, dest) = pick_pair(&phys, seed ^ trial);
            let ar = ar_table(&phys, dest);
            let demand = Kbps(rng.gen_range(1.0..300.0));
            let bound = Millis(rng.gen_range(5.0..60.0));
            let fresh = astar_prune(
                &phys, &residual, origin, dest, demand, bound, ArView::new(&ar, dest), &config,
                &mut RouteScratch::new(),
            );
            let warm = astar_prune(
                &phys, &residual, origin, dest, demand, bound, ArView::new(&ar, dest), &config, &mut dirty,
            );
            prop_assert_eq!(fresh, warm);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn astar_prune_finds_the_widest_feasible_path(
        n in 3usize..8,
        density in 0.2f64..0.8,
        seed in any::<u64>(),
        demand_ix in 0usize..10,
        bound in 3.0f64..25.0,
    ) {
        let (phys, residual) = random_phys(n, density, seed);
        let from = phys.hosts()[0];
        let to = *phys.hosts().last().unwrap();
        prop_assume!(from != to);
        let demand = (demand_ix as f64 + 1.0) * 100.0;

        // Oracle: the best bottleneck among latency- and bandwidth-feasible
        // simple paths.
        let mut best: Option<f64> = None;
        enumerate_paths(&phys, &residual, from, to, &mut |edges, lat, bn| {
            if lat <= bound + 1e-9 && bn >= demand && !edges.is_empty() {
                best = Some(best.map_or(bn, |b: f64| b.max(bn)));
            }
        });

        let ar: Vec<f64> = dijkstra(phys.graph(), to, |_, l| l.lat.value())
            .into_distances();
        let found = astar_prune(
            &phys,
            &residual,
            from,
            to,
            Kbps(demand),
            Millis(bound),
            ArView::new(&ar, to),
            &AStarPruneConfig::default(),
            &mut RouteScratch::new(),
        );

        match (best, found) {
            (None, None) => {} // agree: infeasible
            (Some(oracle_bn), Some((edges, _))) => {
                // A*Prune's path must be feasible and its bottleneck equal
                // to the oracle's optimum.
                let lat: f64 = edges.iter().map(|&e| phys.link(e).lat.value()).sum();
                prop_assert!(lat <= bound + 1e-9);
                let bn = edges
                    .iter()
                    .map(|&e| residual.bw(e).value())
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(bn >= demand);
                prop_assert!(
                    (bn - oracle_bn).abs() < 1e-9,
                    "A*Prune bottleneck {bn} != oracle optimum {oracle_bn}"
                );
            }
            (Some(bn), None) => prop_assert!(false, "A*Prune missed a feasible path (bn {bn})"),
            (None, Some(_)) => prop_assert!(false, "A*Prune invented an infeasible path"),
        }
    }

    /// With `prune_dominated`, the search returns the lexicographic best
    /// `(bottleneck, latency, hops)` over every feasible simple path, the
    /// triple the exhaustive A*Prune returns, and `None` exactly when no
    /// path is feasible. The link's verdict is the enumeration's: no path
    /// carrying the demand, none in bound (with the least latency of
    /// those that carry it), or a feasible one.
    #[test]
    fn exact_router_returns_the_best_triple(
        n in 3usize..8,
        density in 0.2f64..0.8,
        seed in any::<u64>(),
        demand_ix in 0usize..10,
        bound in 3.0f64..25.0,
    ) {
        let (phys, residual) = random_phys(n, density, seed);
        let from = phys.hosts()[0];
        let to = *phys.hosts().last().unwrap();
        prop_assume!(from != to);
        let demand = (demand_ix as f64 + 1.0) * 100.0;

        // Oracle: the best triple among feasible simple paths, as
        // (bottleneck, latency, hops) bits.
        let key = |(bn, lat, hops): (f64, f64, usize)| (bn, -lat, -(hops as i64));
        let mut best: Option<(f64, f64, usize)> = None;
        let mut least_latency = f64::INFINITY;
        enumerate_paths(&phys, &residual, from, to, &mut |edges, lat, bn| {
            let t = (bn, lat, edges.len());
            if bn >= demand {
                least_latency = least_latency.min(lat);
            }
            if lat <= bound + 1e-9 && bn >= demand && best.is_none_or(|b| key(t) > key(b)) {
                best = Some(t);
            }
        });

        let ar = ar_table(&phys, to);
        let config = AStarPruneConfig {
            prune_dominated: true,
            ..Default::default()
        };
        let found = astar_prune(
            &phys,
            &residual,
            from,
            to,
            Kbps(demand),
            Millis(bound),
            ArView::new(&ar, to),
            &config,
            &mut RouteScratch::new(),
        )
        .map(|(edges, _)| {
            let lat = edges.iter().fold(0.0, |acc, &e| acc + phys.link(e).lat.value());
            let bn = edges
                .iter()
                .map(|&e| residual.bw(e).value())
                .fold(f64::INFINITY, f64::min);
            (bn, lat, edges.len())
        });
        let bits = |t: Option<(f64, f64, usize)>| t.map(|(bn, lat, hops)| (bn.to_bits(), lat.to_bits(), hops));
        prop_assert_eq!(bits(found), bits(best));

        let spec = VLinkSpec::new(Kbps(demand), Millis(bound));
        match diagnose_route(&phys, &residual, from, to, &spec) {
            LinkVerdict::BandwidthInfeasible { demand_kbps } => {
                prop_assert_eq!(least_latency, f64::INFINITY, "a path carries the demand");
                prop_assert_eq!(demand_kbps, demand);
            }
            LinkVerdict::LatencyInfeasible { best_possible_ms, bound_ms } => {
                prop_assert!(best.is_none(), "a path meets the bound");
                prop_assert!((best_possible_ms - least_latency).abs() <= 1e-9);
                prop_assert_eq!(bound_ms, bound);
            }
            LinkVerdict::Routable { best_possible_ms, bound_ms } => {
                prop_assert!(best.is_some(), "no path meets the bound");
                prop_assert!(found.is_some(), "the router missed a routable link");
                prop_assert!((best_possible_ms - least_latency).abs() <= 1e-9);
                prop_assert_eq!(bound_ms, bound);
            }
        }
    }
}

/// Runs a fixed, seeded batch of searches on both paper 40-host clusters
/// (the 5x8 torus and the switched cluster, same hosts) under both path
/// metrics. Every found route is committed to the residual state, so later
/// searches see uneven bandwidth and the tie-breaks between equal-metric
/// paths matter. One line per search: cluster, metric, then the edge
/// path with the `expanded` and `pushed` counts, or `none`.
fn golden_batch() -> Vec<String> {
    let (torus, switched) = ClusterSpec::paper().build_both(&mut SmallRng::seed_from_u64(2009));
    let mut out = Vec::new();
    for (cluster, phys) in [("torus", &torus), ("switched", &switched)] {
        let mut scratch = RouteScratch::new();
        for (metric_name, metric) in [
            ("bottleneck", PathMetric::BottleneckBandwidth),
            ("hops", PathMetric::HopCount),
        ] {
            let config = AStarPruneConfig {
                metric,
                ..Default::default()
            };
            let mut residual = ResidualState::new(phys);
            let mut rng = SmallRng::seed_from_u64(14);
            for _ in 0..12 {
                let (origin, dest) = pick_pair(phys, rng.gen());
                let demand = Kbps(f64::from(rng.gen_range(1..=40u32)) * 25_000.0);
                let ar = ar_table(phys, dest);
                // Zero to three hops of slack over the unconstrained
                // shortest latency.
                let bound = Millis(ar[origin.index()] + f64::from(rng.gen_range(0..=3u32)) * 5.0);
                let found = astar_prune(
                    phys,
                    &residual,
                    origin,
                    dest,
                    demand,
                    bound,
                    ArView::new(&ar, dest),
                    &config,
                    &mut scratch,
                );
                out.push(match found {
                    Some((path, stats)) => {
                        residual.commit_route(&path, demand);
                        let edges: Vec<usize> = path.iter().map(|e| e.index()).collect();
                        format!(
                            "{cluster} {metric_name} {edges:?} expanded={} pushed={}",
                            stats.expanded, stats.pushed
                        )
                    }
                    None => format!("{cluster} {metric_name} none"),
                });
            }
        }
    }
    out
}

/// The golden values of [`golden_batch`].
const GOLDEN_EFFORT: &[&str] = &[
    "torus bottleneck [29, 26, 24, 22, 20] expanded=29 pushed=37",
    "torus bottleneck [73, 9] expanded=3 pushed=2",
    "torus bottleneck [4, 2, 67, 51] expanded=14 pushed=18",
    "torus bottleneck [49, 65, 0] expanded=4 pushed=3",
    "torus bottleneck [11, 10, 12, 79, 78] expanded=11 pushed=12",
    "torus bottleneck [58, 56, 54, 55] expanded=11 pushed=13",
    "torus bottleneck [22, 7, 4, 2, 67, 64] expanded=40 pushed=50",
    "torus bottleneck [23, 36, 34, 32] expanded=5 pushed=4",
    "torus bottleneck none",
    "torus bottleneck [43, 40, 38] expanded=4 pushed=3",
    "torus bottleneck [27, 42, 44, 47] expanded=6 pushed=6",
    "torus bottleneck none",
    "torus hops [29, 26, 24, 22, 20] expanded=103 pushed=193",
    "torus hops [73, 9] expanded=5 pushed=5",
    "torus hops [4, 2, 67, 51] expanded=49 pushed=110",
    "torus hops [49, 65, 0] expanded=7 pushed=8",
    "torus hops [11, 10, 12, 79, 78] expanded=103 pushed=194",
    "torus hops [58, 56, 54, 55] expanded=41 pushed=67",
    "torus hops [22, 7, 4, 2, 67, 64] expanded=47 pushed=57",
    "torus hops [23, 36, 34, 32] expanded=23 pushed=40",
    "torus hops none",
    "torus hops [43, 40, 38] expanded=4 pushed=3",
    "torus hops [27, 42, 44, 47] expanded=6 pushed=6",
    "torus hops none",
    "switched bottleneck [22, 10] expanded=3 pushed=2",
    "switched bottleneck [36, 12] expanded=3 pushed=2",
    "switched bottleneck [3, 25] expanded=3 pushed=2",
    "switched bottleneck [24, 1] expanded=3 pushed=2",
    "switched bottleneck [13, 32] expanded=3 pushed=2",
    "switched bottleneck [30, 35] expanded=3 pushed=2",
    "switched bottleneck none",
    "switched bottleneck [11, 16] expanded=3 pushed=2",
    "switched bottleneck [18, 20] expanded=3 pushed=2",
    "switched bottleneck [29, 19] expanded=3 pushed=2",
    "switched bottleneck [13, 31] expanded=3 pushed=2",
    "switched bottleneck none",
    "switched hops [22, 10] expanded=13 pushed=40",
    "switched hops [36, 12] expanded=3 pushed=2",
    "switched hops [3, 25] expanded=24 pushed=40",
    "switched hops [24, 1] expanded=3 pushed=2",
    "switched hops [13, 32] expanded=27 pushed=40",
    "switched hops [30, 35] expanded=28 pushed=36",
    "switched hops none",
    "switched hops [11, 16] expanded=13 pushed=34",
    "switched hops [18, 20] expanded=3 pushed=2",
    "switched hops [29, 19] expanded=3 pushed=2",
    "switched hops [13, 31] expanded=3 pushed=2",
    "switched hops none",
];

/// Pins which path A*Prune returns and how much it searched to find it on
/// the paper clusters. Any change to the candidate order, the tie-break
/// or the pruning tests moves a path or a counter here.
#[test]
fn astar_prune_search_effort_is_pinned() {
    let actual = golden_batch();
    let table: String = actual.iter().map(|l| format!("    {l:?},\n")).collect();
    assert_eq!(actual, GOLDEN_EFFORT, "actual table:\n{table}");
}
