//! The Networking stage (§4.3 for HMN, §5 for the baselines): route
//! every virtual link over the physical network, one link at a time.
//!
//! [`networking_stage`] is the one loop every mapper routes through; only
//! the per-link path search differs, and the caller passes it as a
//! [`LinkRouter`]:
//!
//! * the paper's modified 1-constrained A\*Prune
//!   (`&`[`AStarPruneConfig`]) — HMN and every mapper built on its
//!   Networking stage, and the exact oracle's leaves. With
//!   [`prune_dominated`](AStarPruneConfig::prune_dominated) set, the same
//!   router runs the exact per-level search instead (the fat-tree
//!   setting): A\*Prune's `(bottleneck, latency, hops)` triple with one
//!   label per node at each bandwidth level, failing only when no path
//!   exists;
//! * Yen's K cheapest paths ([`YenKsp`](crate::YenKsp)) — HMN-ksp and
//!   the oracle's fallback;
//! * the baselines' naive DFS ([`DfsRouter`](crate::DfsRouter)) — R and
//!   HS.
//!
//! HMN passes its links in descending bandwidth order (heaviest demands
//! get first pick of the capacity); the baselines shuffle them. Each
//! accepted route immediately commits its bandwidth so later links see
//! the reduced residuals. Links whose guests share a host are "handled
//! inside the host" and never routed — §5.2 credits this for the
//! Figure 1 variance.
//!
//! The paper's heuristics fail hard (§4.3: "if in some moment a path for
//! a virtual link cannot be found, the heuristic fails"). A router only
//! answers "path or no path"; when a tracer listens, the loop asks
//! [`diagnose_route`] why the link failed, and that exact verdict is the
//! only one a `LinkFailed` event carries.

use crate::astar_prune::{astar_prune, AStarPruneConfig, SearchStats};
use crate::cache::MapCache;
use crate::diagnostics::diagnose_route;
use crate::error::MapError;
use crate::state::PlacementState;
use emumap_graph::{EdgeId, NodeId};
use emumap_model::{PhysicalTopology, ResidualState, Route, VLinkId, VLinkSpec};
use emumap_trace::{PhaseCounters, TraceEvent};

/// One inter-host link as the Networking loop hands it to a router.
#[derive(Clone, Copy, Debug)]
pub struct LinkRequest<'a> {
    /// The physical network.
    pub phys: &'a PhysicalTopology,
    /// Residual bandwidths after the links routed so far.
    pub residual: &'a ResidualState,
    /// Host of the link's source guest.
    pub from: NodeId,
    /// Host of the link's destination guest (the `ar[]` table's root).
    pub to: NodeId,
    /// The link's bandwidth demand and latency bound.
    pub spec: VLinkSpec,
}

/// A router's answer for one link: the path's edges plus the A\*Prune
/// effort it cost (zero for other searches), or `None` when it found no
/// path.
pub type Routed = Option<(Vec<EdgeId>, SearchStats)>;

/// The per-link path search [`networking_stage`] runs. A router only
/// searches: it reads the residuals and may use the cache's tables and
/// scratch buffers, but commits nothing and emits no events.
pub trait LinkRouter {
    /// Searches one path for `link`.
    fn route(&mut self, cache: &mut MapCache, link: &LinkRequest<'_>) -> Routed;
}

/// The paper's router: modified A\*Prune over the cached `ar[]` table of
/// the destination.
impl LinkRouter for &AStarPruneConfig {
    fn route(&mut self, cache: &mut MapCache, link: &LinkRequest<'_>) -> Routed {
        let (ar, _) = cache.topo.ar_and_csr(link.phys, link.to);
        astar_prune(
            link.phys,
            link.residual,
            link.from,
            link.to,
            link.spec.bw,
            link.spec.lat,
            ar,
            self,
            &mut cache.scratch,
        )
    }
}

/// Routes `links` in the given order with `router`, committing bandwidth
/// into `state`'s residuals. Returns the route table indexed by
/// [`VLinkId::index`], or the first unroutable link, together with the
/// pass's Networking counters. A failed pass releases the bandwidth it
/// committed, in commit order, so `state` can be routed again.
///
/// The counters are the routers' A\*Prune effort, the DFS backtracks and
/// the `ar[]`/hop table builds and hits the pass cost. A failed pass
/// counts the same for the links it routed before the failure, and the
/// table builds, hits and backtracks up to it; the failing search's own
/// A\*Prune effort is not counted, because a router reports no
/// [`SearchStats`] on a miss.
///
/// Tables are cached per attachment point in `cache` (see
/// [`ArTables`](crate::ArTables)): §5.2 observes that "most part of
/// mapping time is spend in the Networking stage to calculate the
/// shortest path of each host to the link destination", and the cache
/// collapses that cost to at most one run per distinct destination, or
/// per switch for leaf hosts (one run for the paper's whole switched
/// cluster) — and, because the tables depend only on topology latencies,
/// a warm cache carries them across trials on the same cluster, counting
/// those lookups as `cache_hits`.
/// One-shot callers pass [`MapCache::new`].
pub fn networking_stage(
    state: &mut PlacementState<'_>,
    links: &[VLinkId],
    mut router: impl LinkRouter,
    cache: &mut MapCache,
) -> (Result<Vec<Route>, MapError>, PhaseCounters) {
    assert!(
        state.is_complete(),
        "networking requires a complete assignment"
    );
    let venv = state.venv();
    let phys = state.phys();
    let mut routes = vec![Route::intra_host(); venv.link_count()];
    let mut counters = PhaseCounters::default();
    cache.topo.prepare(phys);
    let runs_before = cache.topo.dijkstra_runs();
    let hits_before = cache.topo.hits();
    let backtracks_before = cache.dfs.backtracks();
    let mut result = Ok(());

    for (i, &l) in links.iter().enumerate() {
        let (vs, vd) = venv.link_endpoints(l);
        let from = state.host_of(vs).expect("assignment complete");
        let to = state.host_of(vd).expect("assignment complete");
        let link = l.index() as u64;
        if from == to {
            cache.trace.emit(|| TraceEvent::LinkIntraHost { link });
            continue; // routes[l] stays intra-host
        }
        let spec = *venv.link(l);
        let request = LinkRequest {
            phys,
            residual: state.residual(),
            from,
            to,
            spec,
        };
        match router.route(cache, &request) {
            Some((edges, search)) => {
                counters.astar_expansions += search.expanded as u64;
                counters.astar_pushed += search.pushed as u64;
                counters.guide_probes += search.guide_probes as u64;
                counters.cut_proofs += search.cut_proofs as u64;
                cache.trace.emit(|| TraceEvent::LinkRouted {
                    link,
                    hops: edges.len() as u64,
                });
                state.residual_mut().commit_route(&edges, spec.bw);
                routes[l.index()] = Route::new(edges);
            }
            None => {
                // The diagnosis is a Dijkstra run, so it runs only when
                // someone is listening.
                if cache.trace.is_enabled() {
                    let verdict = diagnose_route(phys, state.residual(), from, to, &spec);
                    cache
                        .trace
                        .emit(|| TraceEvent::LinkFailed { link, verdict });
                }
                for &done in &links[..i] {
                    let bw = venv.link(done).bw;
                    state
                        .residual_mut()
                        .release_route(routes[done.index()].edges(), bw);
                }
                result = Err(MapError::NetworkingFailed { link: l });
                break;
            }
        }
    }

    counters.dijkstra_runs = (cache.topo.dijkstra_runs() - runs_before) as u64;
    counters.cache_hits = (cache.topo.hits() - hits_before) as u64;
    counters.dfs_backtracks = (cache.dfs.backtracks() - backtracks_before) as u64;
    (result.map(|()| routes), counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::links_by_descending_bw;
    use emumap_graph::generators;
    use emumap_model::{
        validate_mapping, GuestId, GuestSpec, HostSpec, Kbps, LinkSpec, Mapping, MemMb, Millis,
        Mips, PhysicalTopology, StorGb, VLinkSpec, VirtualEnvironment, VmmOverhead,
    };
    use emumap_trace::{LinkVerdict, SharedSink, Tracer};

    /// Routes every link, heaviest first, on a fresh cache.
    fn route_all(st: &mut PlacementState<'_>) -> (Result<Vec<Route>, MapError>, PhaseCounters) {
        let links = links_by_descending_bw(st.venv());
        networking_stage(
            st,
            &links,
            &AStarPruneConfig::default(),
            &mut MapCache::new(),
        )
    }

    fn phys_line(n: usize, bw: f64) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::line(n),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0))),
            LinkSpec::new(Kbps(bw), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    fn guest() -> GuestSpec {
        GuestSpec::new(Mips(10.0), MemMb(64), StorGb(1.0))
    }

    #[test]
    fn routes_inter_host_and_skips_intra_host() {
        let phys = phys_line(3, 1000.0);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest());
        let b = venv.add_guest(guest());
        let c = venv.add_guest(guest());
        venv.add_link(a, b, VLinkSpec::new(Kbps(100.0), Millis(60.0))); // same host
        venv.add_link(a, c, VLinkSpec::new(Kbps(100.0), Millis(60.0))); // two hops
        let mut st = PlacementState::new(&phys, &venv);
        st.assign(a, phys.hosts()[0]).unwrap();
        st.assign(b, phys.hosts()[0]).unwrap();
        st.assign(c, phys.hosts()[2]).unwrap();
        let routes = route_all(&mut st).0.unwrap();
        assert!(routes[0].is_intra_host());
        assert_eq!(routes[1].hop_count(), 2);
        // The full mapping validates.
        let mapping = Mapping::new(
            vec![phys.hosts()[0], phys.hosts()[0], phys.hosts()[2]],
            routes,
        );
        assert_eq!(validate_mapping(&phys, &venv, &mapping), Ok(()));
    }

    #[test]
    fn bandwidth_accumulates_until_saturation() {
        // One physical edge of 250 kbps; three 100 kbps virtual links
        // between hosts 0 and 1 — only two fit.
        let phys = phys_line(2, 250.0);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest());
        let b = venv.add_guest(guest());
        for _ in 0..3 {
            venv.add_link(a, b, VLinkSpec::new(Kbps(100.0), Millis(60.0)));
        }
        let mut st = PlacementState::new(&phys, &venv);
        st.assign(a, phys.hosts()[0]).unwrap();
        st.assign(b, phys.hosts()[1]).unwrap();
        let err = route_all(&mut st).0.unwrap_err();
        assert!(matches!(err, MapError::NetworkingFailed { .. }));
        // The failed pass handed back the two links it had committed.
        let edge = phys.graph().edge_ids().next().unwrap();
        assert_eq!(st.residual().bw(edge), Kbps(250.0));
    }

    #[test]
    fn heavy_links_routed_first_claim_direct_paths() {
        // Ring of 4: two disjoint two-hop-free routes between opposite
        // corners. The heavy link should get a feasible route and commit
        // bandwidth; the light link must detour.
        let shape = generators::ring(4);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0))),
            LinkSpec::new(Kbps(100.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest());
        let b = venv.add_guest(guest());
        // Both links between hosts 0 and 2 (opposite in the ring).
        let heavy = venv.add_link(a, b, VLinkSpec::new(Kbps(80.0), Millis(60.0)));
        let light = venv.add_link(a, b, VLinkSpec::new(Kbps(60.0), Millis(60.0)));
        let mut st = PlacementState::new(&phys, &venv);
        st.assign(a, phys.hosts()[0]).unwrap();
        st.assign(b, phys.hosts()[2]).unwrap();
        let routes = route_all(&mut st).0.unwrap();
        // Each side of the ring carries one link (80+60 > 100 rules out
        // sharing).
        let h: std::collections::HashSet<_> = routes[heavy.index()].edges().iter().collect();
        let l: std::collections::HashSet<_> = routes[light.index()].edges().iter().collect();
        assert!(h.is_disjoint(&l), "saturated edges force disjoint routes");
        let mapping = Mapping::new(vec![phys.hosts()[0], phys.hosts()[2]], routes);
        assert_eq!(validate_mapping(&phys, &venv, &mapping), Ok(()));
    }

    #[test]
    fn dijkstra_cache_is_per_destination() {
        let phys = phys_line(4, 10_000.0);
        let mut venv = VirtualEnvironment::new();
        let g: Vec<_> = (0..4).map(|_| venv.add_guest(guest())).collect();
        // Three links all ending at guest 3 (same destination host).
        for i in 0..3 {
            venv.add_link(g[i], g[3], VLinkSpec::new(Kbps(10.0), Millis(60.0)));
        }
        let mut st = PlacementState::new(&phys, &venv);
        for (i, &gg) in g.iter().enumerate() {
            st.assign(gg, phys.hosts()[i]).unwrap();
        }
        let (routes, stats) = route_all(&mut st);
        // Destination host is the same for all three links (undirected
        // edges: endpoint order from add_link is preserved, so hd is
        // guest 3's host every time).
        assert_eq!(stats.dijkstra_runs, 1);
        assert!(routes.unwrap().iter().all(|r| !r.is_intra_host()));
    }

    #[test]
    fn warm_cache_reuses_tables_across_trials() {
        let phys = phys_line(4, 10_000.0);
        let mut venv = VirtualEnvironment::new();
        let g: Vec<_> = (0..4).map(|_| venv.add_guest(guest())).collect();
        for i in 0..3 {
            venv.add_link(g[i], g[3], VLinkSpec::new(Kbps(10.0), Millis(60.0)));
        }
        let links = links_by_descending_bw(&venv);
        let place = |st: &mut PlacementState<'_>| {
            for (i, &gg) in g.iter().enumerate() {
                st.assign(gg, phys.hosts()[i]).unwrap();
            }
        };

        let mut cache = MapCache::new();
        let mut st = PlacementState::new(&phys, &venv);
        place(&mut st);
        let (routes_cold, cold) =
            networking_stage(&mut st, &links, &AStarPruneConfig::default(), &mut cache);
        assert_eq!(cold.dijkstra_runs, 1);

        // Second "trial" on the same topology: the ar[] table survives.
        let mut st = PlacementState::new(&phys, &venv);
        place(&mut st);
        let (routes_warm, warm) =
            networking_stage(&mut st, &links, &AStarPruneConfig::default(), &mut cache);
        assert_eq!(warm.dijkstra_runs, 0, "warm cache recomputes nothing");
        assert_eq!(warm.cache_hits, 3);
        assert_eq!(
            routes_cold.unwrap(),
            routes_warm.unwrap(),
            "cache must not change routes"
        );
        assert_eq!(
            (cold.astar_expansions, cold.astar_pushed),
            (warm.astar_expansions, warm.astar_pushed)
        );
    }

    #[test]
    fn latency_infeasible_link_fails_cleanly() {
        let phys = phys_line(4, 10_000.0); // 3 hops end-to-end = 15 ms
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest());
        let b = venv.add_guest(guest());
        let l = venv.add_link(a, b, VLinkSpec::new(Kbps(10.0), Millis(10.0)));
        let mut st = PlacementState::new(&phys, &venv);
        st.assign(a, phys.hosts()[0]).unwrap();
        st.assign(b, phys.hosts()[3]).unwrap();
        let err = networking_stage(
            &mut st,
            &[l],
            &AStarPruneConfig::default(),
            &mut MapCache::new(),
        )
        .0
        .unwrap_err();
        assert_eq!(err, MapError::NetworkingFailed { link: l });
    }

    /// Hosts 0-3: a wide, slow path 0-1-3 (1 000 kbps, 10 + 10 ms), a
    /// narrow, fast one 0-2-3 (50 kbps, 1 + 1 ms) and a direct 0-3 link
    /// (100 kbps, 5 ms). A 200 kbps link with a 10 ms bound fits only the
    /// slow path, which is out of bound: neither the uncongested latency
    /// (2 ms) nor the widest path alone shows it, only both together.
    #[test]
    fn a_joint_bandwidth_and_latency_failure_gets_its_exact_verdict() {
        let spec = HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0));
        let mut g = emumap_graph::Graph::new();
        let h: Vec<_> = (0..4)
            .map(|_| g.add_node(emumap_model::PhysNode::Host(spec)))
            .collect();
        for (a, b, bw, lat) in [
            (0, 1, 1000.0, 10.0),
            (1, 3, 1000.0, 10.0),
            (0, 2, 50.0, 1.0),
            (2, 3, 50.0, 1.0),
            (0, 3, 100.0, 5.0),
        ] {
            g.add_edge(h[a], h[b], LinkSpec::new(Kbps(bw), Millis(lat)));
        }
        let phys = PhysicalTopology::from_graph(g, VmmOverhead::NONE);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest());
        let b = venv.add_guest(guest());
        let l = venv.add_link(a, b, VLinkSpec::new(Kbps(200.0), Millis(10.0)));
        let exact = AStarPruneConfig {
            prune_dominated: true,
            ..AStarPruneConfig::default()
        };
        for config in [AStarPruneConfig::default(), exact] {
            let mut st = PlacementState::new(&phys, &venv);
            st.assign(a, h[0]).unwrap();
            st.assign(b, h[3]).unwrap();
            let sink = SharedSink::default();
            let mut cache = MapCache::new();
            cache.trace = Tracer::new(Box::new(sink.clone()));
            let (result, counters) = networking_stage(&mut st, &[l], &config, &mut cache);
            assert_eq!(result, Err(MapError::NetworkingFailed { link: l }));
            assert_eq!(counters.dijkstra_runs, 1, "the failed pass built ar[]");
            assert_eq!(
                sink.events(),
                vec![TraceEvent::LinkFailed {
                    link: 0,
                    verdict: LinkVerdict::LatencyInfeasible {
                        best_possible_ms: 20.0,
                        bound_ms: 10.0
                    }
                }]
            );
        }
    }

    #[test]
    fn empty_link_list_is_trivially_ok() {
        let phys = phys_line(2, 100.0);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest());
        let mut st = PlacementState::new(&phys, &venv);
        st.assign(GuestId::from_index(0), phys.hosts()[0]).unwrap();
        let _ = a;
        let (routes, stats) = networking_stage(
            &mut st,
            &[],
            &AStarPruneConfig::default(),
            &mut MapCache::new(),
        );
        assert!(routes.unwrap().is_empty());
        assert_eq!(stats, PhaseCounters::default());
    }
}
