//! Failure diagnostics: when a mapping attempt fails, tell the tester
//! *why* — and whether retrying could ever help.
//!
//! §5.2 closes with "HMN may fail in finding a mapping in scenarios in
//! which the requirements of the virtual system is too close to the
//! resource availability"; these helpers quantify "too close" for a
//! concrete failed link or a whole cluster. A failed link gets an exact
//! verdict: a bandwidth floor plus one additive latency bound is decided
//! by one shortest-latency search over the edges that carry the demand
//! (Wang & Crowcroft 1996, the reduction A\*Prune's guide builds on).

use crate::ArTables;
use emumap_graph::algo::DijkstraScratch;
use emumap_graph::NodeId;
use emumap_model::{
    Kbps, MemMb, Millis, PhysicalTopology, ResidualState, VLinkSpec, VirtualEnvironment,
};
use emumap_trace::LinkVerdict;
use serde::Serialize;

/// Decides whether a `spec`-shaped link between `from` and `to` is
/// routable on the given residual bandwidths. One Dijkstra from `to`
/// over the edges with residual `>= spec.bw` finds the shortest latency
/// `best` of any path that carries the demand:
///
/// * no such path: [`LinkVerdict::BandwidthInfeasible`];
/// * `best > bound + 1e-9` (A\*Prune's acceptance slack):
///   [`LinkVerdict::LatencyInfeasible`];
/// * otherwise a feasible path exists: [`LinkVerdict::Routable`].
///
/// Both infeasible verdicts are proofs: no router, and no retry on these
/// residuals, can route the link.
pub fn diagnose_route(
    phys: &PhysicalTopology,
    residual: &ResidualState,
    from: NodeId,
    to: NodeId,
    spec: &VLinkSpec,
) -> LinkVerdict {
    let (demand, bound) = (spec.bw.value(), spec.lat.value());
    let mut search = DijkstraScratch::new();
    search.run(
        phys.graph(),
        to,
        0.0,
        |e, link| (residual.bw(e).value() >= demand).then(|| link.lat.value()),
        |v, _| v == from,
    );
    let best = search.distances()[from.index()];
    if best == f64::INFINITY {
        LinkVerdict::BandwidthInfeasible {
            demand_kbps: demand,
        }
    } else if best > bound + 1e-9 {
        LinkVerdict::LatencyInfeasible {
            best_possible_ms: best,
            bound_ms: bound,
        }
    } else {
        LinkVerdict::Routable {
            best_possible_ms: best,
            bound_ms: bound,
        }
    }
}

/// Cluster-level feasibility summary for a virtual environment, printed by
/// the CLI when a mapping fails.
#[derive(Clone, Debug, Serialize)]
pub struct ClusterDiagnostics {
    /// Total guest memory demand vs. total effective host memory (MB).
    pub mem_demand_mb: u64,
    /// Total effective host memory (MB).
    pub mem_capacity_mb: u64,
    /// Total guest CPU demand (MIPS).
    pub proc_demand_mips: f64,
    /// Total effective host CPU (MIPS).
    pub proc_capacity_mips: f64,
    /// Worst-case host-pair latency on the uncongested network (ms).
    pub latency_diameter_ms: f64,
    /// Tightest virtual-link latency bound (ms).
    pub min_latency_bound_ms: f64,
    /// Total virtual bandwidth demand (kbps).
    pub bw_demand_kbps: f64,
    /// Total physical bandwidth capacity (kbps).
    pub bw_capacity_kbps: f64,
}

/// Computes the cluster-level summary.
pub fn cluster_diagnostics(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
) -> ClusterDiagnostics {
    let mem_capacity: MemMb = phys.hosts().iter().map(|&h| phys.effective_mem(h)).sum();
    let proc_capacity: f64 = phys
        .hosts()
        .iter()
        .map(|&h| phys.effective_proc(h).value())
        .sum();
    // Latency diameter restricted to host pairs. The `ar[]` tables share
    // one Dijkstra run between the leaf hosts of each switch.
    let mut tables = ArTables::new();
    tables.prepare(phys);
    let mut diameter = 0.0f64;
    for &h in phys.hosts() {
        let (ar, _) = tables.ar_and_csr(phys, h);
        for &g in phys.hosts() {
            diameter = diameter.max(ar[g.index()]);
        }
    }
    let min_bound = venv
        .link_ids()
        .map(|l| venv.link(l).lat)
        .fold(Millis(f64::INFINITY), Millis::min);
    let bw_demand: Kbps = venv.link_ids().map(|l| venv.link(l).bw).sum();
    let bw_capacity: f64 = phys
        .graph()
        .edge_ids()
        .map(|e| phys.link(e).bw.value())
        .filter(|b| b.is_finite())
        .sum();

    ClusterDiagnostics {
        mem_demand_mb: venv.total_mem_demand().value(),
        mem_capacity_mb: mem_capacity.value(),
        proc_demand_mips: venv.total_proc_demand().value(),
        proc_capacity_mips: proc_capacity,
        latency_diameter_ms: diameter,
        min_latency_bound_ms: min_bound.value(),
        bw_demand_kbps: bw_demand.value(),
        bw_capacity_kbps: bw_capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{GuestSpec, HostSpec, LinkSpec, Mips, StorGb, VmmOverhead};

    fn phys(shape: &generators::Topology, bw: f64, lat: f64) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(bw), Millis(lat)),
            VmmOverhead::NONE,
        )
    }

    #[test]
    fn latency_infeasibility_is_proven() {
        let p = phys(&generators::line(4), 1000.0, 10.0); // 3 hops = 30 ms end to end
        let r = ResidualState::new(&p);
        let spec = VLinkSpec::new(Kbps(1.0), Millis(25.0));
        let verdict = diagnose_route(&p, &r, p.hosts()[0], p.hosts()[3], &spec);
        assert_eq!(
            verdict,
            LinkVerdict::LatencyInfeasible {
                best_possible_ms: 30.0,
                bound_ms: 25.0
            }
        );
    }

    #[test]
    fn bandwidth_infeasibility_needs_a_path_at_the_demand() {
        // Ring of 4: two disjoint 100 kbps paths between opposite
        // corners carry 200 kbps together, but no single path carries
        // 150.
        let p = phys(&generators::ring(4), 100.0, 5.0);
        let r = ResidualState::new(&p);
        let spec = VLinkSpec::new(Kbps(150.0), Millis(60.0));
        let verdict = diagnose_route(&p, &r, p.hosts()[0], p.hosts()[2], &spec);
        assert_eq!(
            verdict,
            LinkVerdict::BandwidthInfeasible { demand_kbps: 150.0 }
        );
    }

    #[test]
    fn the_search_sees_bandwidth_and_latency_together() {
        // Square 0-1-2-3-0 at 5 ms a hop. With 0-1 narrowed below the
        // demand, the one path left from 0 to 1 runs the long way round,
        // 15 ms: out of a 10 ms bound, although the uncongested network
        // has a 5 ms path and the residual network has a wide one.
        let p = phys(&generators::ring(4), 100.0, 5.0);
        let mut r = ResidualState::new(&p);
        let (a, b) = (p.hosts()[0], p.hosts()[1]);
        let direct = p.graph().find_edge(a, b).expect("ring edge");
        r.commit_route(&[direct], Kbps(60.0));
        let spec = VLinkSpec::new(Kbps(50.0), Millis(10.0));
        assert_eq!(
            diagnose_route(&p, &r, a, b, &spec),
            LinkVerdict::LatencyInfeasible {
                best_possible_ms: 15.0,
                bound_ms: 10.0
            }
        );
    }

    #[test]
    fn routable_links_report_their_best_latency() {
        let p = phys(&generators::line(3), 1000.0, 5.0);
        let r = ResidualState::new(&p);
        let spec = VLinkSpec::new(Kbps(500.0), Millis(60.0));
        assert_eq!(
            diagnose_route(&p, &r, p.hosts()[0], p.hosts()[2], &spec),
            LinkVerdict::Routable {
                best_possible_ms: 10.0,
                bound_ms: 60.0
            }
        );
        // Intra-host is always fine.
        assert_eq!(
            diagnose_route(&p, &r, p.hosts()[0], p.hosts()[0], &spec),
            LinkVerdict::Routable {
                best_possible_ms: 0.0,
                bound_ms: 60.0
            }
        );
    }

    #[test]
    fn cluster_diagnostics_sums_are_correct() {
        let p = phys(&generators::line(3), 100.0, 5.0);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(100), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(20.0), MemMb(200), StorGb(1.0)));
        venv.add_link(a, b, VLinkSpec::new(Kbps(50.0), Millis(30.0)));
        let d = cluster_diagnostics(&p, &venv);
        assert_eq!(d.mem_demand_mb, 300);
        assert_eq!(d.mem_capacity_mb, 3 * 1024);
        assert_eq!(d.proc_demand_mips, 30.0);
        assert_eq!(d.proc_capacity_mips, 3000.0);
        assert_eq!(d.latency_diameter_ms, 10.0);
        assert_eq!(d.min_latency_bound_ms, 30.0);
        assert_eq!(d.bw_demand_kbps, 50.0);
        assert_eq!(d.bw_capacity_kbps, 200.0);
    }
}
