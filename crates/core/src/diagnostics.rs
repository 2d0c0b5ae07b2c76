//! Failure diagnostics: when a mapping attempt fails, tell the tester
//! *why* — and whether retrying could ever help.
//!
//! §5.2 closes with "HMN may fail in finding a mapping in scenarios in
//! which the requirements of the virtual system is too close to the
//! resource availability"; these helpers quantify "too close" for a
//! concrete failed link or guest, using max-flow cuts and latency
//! diameters as *proofs* of infeasibility where possible.

use crate::ArTables;
use emumap_graph::algo::{dijkstra, max_flow};
use emumap_graph::NodeId;
use emumap_model::{
    Kbps, MemMb, Millis, PhysicalTopology, ResidualState, VLinkSpec, VirtualEnvironment,
};
use emumap_trace::LinkVerdict;
use serde::Serialize;

/// Diagnoses routability of a `spec`-shaped link between `from` and `to`
/// under the given residual bandwidths: a latency-infeasibility proof
/// (the *uncongested* shortest-latency path already exceeds the bound,
/// so no retry can fix this placement), else a bandwidth one (the
/// residual max-flow between the hosts is below the demand, wherever the
/// link is routed), else [`LinkVerdict::PossiblyRoutable`].
pub fn diagnose_route(
    phys: &PhysicalTopology,
    residual: &ResidualState,
    from: NodeId,
    to: NodeId,
    spec: &VLinkSpec,
) -> LinkVerdict {
    if from == to {
        return LinkVerdict::PossiblyRoutable; // intra-host always works
    }
    // Latency check on the *uncongested* network (admissible bound).
    let lat = dijkstra(phys.graph(), to, |_, l| l.lat.value());
    let best = lat.distance(from).unwrap_or(f64::INFINITY);
    if best > spec.lat.value() + 1e-9 {
        return LinkVerdict::LatencyInfeasible {
            best_possible_ms: best,
            bound_ms: spec.lat.value(),
        };
    }
    // Capacity cut on the residual network.
    let flow = residual_max_flow(phys, residual, from, to);
    if flow + 1e-9 < spec.bw.value() {
        return LinkVerdict::BandwidthInfeasible {
            max_flow_kbps: flow,
            demand_kbps: spec.bw.value(),
        };
    }
    LinkVerdict::PossiblyRoutable
}

/// Max-flow between two nodes using *residual* bandwidths as capacities.
pub fn residual_max_flow(
    phys: &PhysicalTopology,
    residual: &ResidualState,
    from: NodeId,
    to: NodeId,
) -> f64 {
    // Decorate a shadow graph whose edge payloads are the residual
    // bandwidths (max_flow reads capacities from payloads).
    let shadow = phys.graph().map_edges(|id, _| residual.bw(id).value());
    max_flow(&shadow, from, to, |c| *c)
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

    fn phys_line(n: usize, bw: f64, lat: f64) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::line(n),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(bw), Millis(lat)),
            VmmOverhead::NONE,
        )
    }

    #[test]
    fn latency_infeasibility_is_proven() {
        let p = phys_line(4, 1000.0, 10.0); // 3 hops = 30 ms end to end
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
    fn bandwidth_infeasibility_uses_the_cut() {
        // Ring of 4: two disjoint paths of 100 kbps each; a 250 kbps link
        // cannot be carried even split... (we don't split, but the verdict
        // uses max-flow = 200 as the generous upper bound).
        let p = PhysicalTopology::from_shape(
            &generators::ring(4),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(100.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let r = ResidualState::new(&p);
        let spec = VLinkSpec::new(Kbps(250.0), Millis(60.0));
        let verdict = diagnose_route(&p, &r, p.hosts()[0], p.hosts()[2], &spec);
        assert_eq!(
            verdict,
            LinkVerdict::BandwidthInfeasible {
                max_flow_kbps: 200.0,
                demand_kbps: 250.0
            }
        );
    }

    #[test]
    fn routable_links_are_possibly_routable() {
        let p = phys_line(3, 1000.0, 5.0);
        let r = ResidualState::new(&p);
        let spec = VLinkSpec::new(Kbps(500.0), Millis(60.0));
        assert_eq!(
            diagnose_route(&p, &r, p.hosts()[0], p.hosts()[2], &spec),
            LinkVerdict::PossiblyRoutable
        );
        // Intra-host is always fine.
        assert_eq!(
            diagnose_route(&p, &r, p.hosts()[0], p.hosts()[0], &spec),
            LinkVerdict::PossiblyRoutable
        );
    }

    #[test]
    fn residual_flow_reflects_commitments() {
        let p = phys_line(2, 100.0, 5.0);
        let mut r = ResidualState::new(&p);
        assert_eq!(residual_max_flow(&p, &r, p.hosts()[0], p.hosts()[1]), 100.0);
        let edges: Vec<_> = p.graph().edge_ids().collect();
        r.commit_route(&edges, Kbps(60.0));
        assert_eq!(residual_max_flow(&p, &r, p.hosts()[0], p.hosts()[1]), 40.0);
    }

    #[test]
    fn cluster_diagnostics_sums_are_correct() {
        let p = phys_line(3, 100.0, 5.0);
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
