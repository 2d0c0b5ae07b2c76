//! Independent verification of a finished mapping against the paper's
//! constraint system (Eqs. 1–9).
//!
//! The validator recomputes everything from the raw topology and virtual
//! environment — it shares no code with [`ResidualState`](crate::ResidualState)
//! on purpose, so mapper bookkeeping bugs cannot hide behind the same
//! arithmetic. Property tests assert that every mapping returned by every
//! mapper validates cleanly.

use crate::mapping::Mapping;
use crate::physical::PhysicalTopology;
use crate::virtualenv::{VLinkId, VirtualEnvironment};
use emumap_graph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One violated constraint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// The mapping's placement table does not cover every guest exactly
    /// once (Eq. 1). Carries the expected and actual table lengths.
    PlacementSizeMismatch {
        /// Number of guests in the virtual environment.
        expected: usize,
        /// Length of the mapping's placement table.
        actual: usize,
    },
    /// A guest was placed on a switch or unknown node.
    MappedToNonHost {
        /// The offending guest index.
        guest: usize,
        /// The node it was mapped to.
        node: NodeId,
    },
    /// Eq. 2: the guests on a host demand more memory than it has.
    MemoryExceeded {
        /// The overloaded host.
        host: NodeId,
        /// Total memory demanded (MB).
        demanded: u64,
        /// Effective capacity (MB).
        capacity: u64,
    },
    /// Eq. 3: the guests on a host demand more storage than it has.
    StorageExceeded {
        /// The overloaded host.
        host: NodeId,
        /// Total storage demanded (GB).
        demanded: f64,
        /// Effective capacity (GB).
        capacity: f64,
    },
    /// The mapping's route table does not cover every virtual link.
    RouteTableSizeMismatch {
        /// Number of virtual links.
        expected: usize,
        /// Length of the route table.
        actual: usize,
    },
    /// A virtual link between co-hosted guests must use the empty
    /// intra-host route, and a link between differently-hosted guests must
    /// not be empty (Eqs. 4–5 degenerate case).
    IntraHostMismatch {
        /// The offending virtual link.
        link: VLinkId,
    },
    /// Eq. 6: consecutive route edges do not share a node, or Eq. 4: the
    /// route does not start at the source guest's host. A route edge the
    /// topology does not have counts too.
    RouteDiscontinuous {
        /// The offending virtual link.
        link: VLinkId,
    },
    /// Eq. 5: the route does not end at the destination guest's host.
    RouteWrongDestination {
        /// The offending virtual link.
        link: VLinkId,
        /// Where the route actually ended.
        ended_at: NodeId,
        /// The destination guest's host.
        expected: NodeId,
    },
    /// Eq. 7: the route visits a node twice.
    RouteHasLoop {
        /// The offending virtual link.
        link: VLinkId,
    },
    /// Eq. 8: cumulative route latency exceeds the virtual link's bound.
    LatencyExceeded {
        /// The offending virtual link.
        link: VLinkId,
        /// Total latency along the route (ms).
        total: f64,
        /// The link's bound (ms).
        bound: f64,
    },
    /// Eq. 9: the virtual links routed over a physical edge demand more
    /// bandwidth than it has.
    BandwidthExceeded {
        /// The oversubscribed physical edge.
        edge: EdgeId,
        /// Total bandwidth demanded (kbps).
        demanded: f64,
        /// The edge's capacity (kbps).
        capacity: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::PlacementSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "Eq. 1 violated: placement covers {actual} guests, environment has {expected}"
                )
            }
            Violation::MappedToNonHost { guest, node } => {
                write!(
                    f,
                    "Eq. 1 violated: guest {guest} mapped to non-host node {node}"
                )
            }
            Violation::MemoryExceeded {
                host,
                demanded,
                capacity,
            } => {
                write!(
                    f,
                    "Eq. 2 violated: host {host}: memory {demanded} MB demanded > {capacity} MB capacity"
                )
            }
            Violation::StorageExceeded {
                host,
                demanded,
                capacity,
            } => {
                write!(
                    f,
                    "Eq. 3 violated: host {host}: storage {demanded} GB demanded > {capacity} GB capacity"
                )
            }
            Violation::RouteTableSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "Eqs. 4-5 violated: route table covers {actual} links, environment has {expected}"
                )
            }
            Violation::IntraHostMismatch { link } => {
                write!(
                    f,
                    "Eqs. 4-5 violated: link {link}: intra-host route shape mismatch"
                )
            }
            Violation::RouteDiscontinuous { link } => {
                write!(
                    f,
                    "Eqs. 4/6 violated: link {link}: route edges do not chain from the source host"
                )
            }
            Violation::RouteWrongDestination {
                link,
                ended_at,
                expected,
            } => {
                write!(
                    f,
                    "Eq. 5 violated: link {link}: route ends at {ended_at}, expected {expected}"
                )
            }
            Violation::RouteHasLoop { link } => {
                write!(f, "Eq. 7 violated: link {link}: route revisits a node")
            }
            Violation::LatencyExceeded { link, total, bound } => {
                write!(
                    f,
                    "Eq. 8 violated: link {link}: latency {total} ms > bound {bound} ms"
                )
            }
            Violation::BandwidthExceeded {
                edge,
                demanded,
                capacity,
            } => {
                write!(
                    f,
                    "Eq. 9 violated: edge {edge}: bandwidth {demanded} kbps demanded > {capacity} kbps"
                )
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Checks a mapping against Eqs. 1–9. Returns every violation found (an
/// empty `Ok(())` means the mapping is valid).
pub fn validate_mapping(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    mapping: &Mapping,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();

    // --- Eq. 1: every guest mapped exactly once (dense table => presence
    // check is a length check; "once" is structural).
    if mapping.placement().len() != venv.guest_count() {
        violations.push(Violation::PlacementSizeMismatch {
            expected: venv.guest_count(),
            actual: mapping.placement().len(),
        });
        // Placement is unusable; later checks would index out of bounds.
        return Err(violations);
    }

    for (guest_idx, &node) in mapping.placement().iter().enumerate() {
        if !phys.graph().contains_node(node) || !phys.is_host(node) {
            violations.push(Violation::MappedToNonHost {
                guest: guest_idx,
                node,
            });
        }
    }
    if !violations.is_empty() {
        return Err(violations);
    }

    // --- Eqs. 2–3: per-host memory and storage.
    let mut mem_demand: HashMap<NodeId, u64> = HashMap::new();
    let mut stor_demand: HashMap<NodeId, f64> = HashMap::new();
    for g in venv.guest_ids() {
        let host = mapping.host_of(g);
        *mem_demand.entry(host).or_default() += venv.guest(g).mem.value();
        *stor_demand.entry(host).or_default() += venv.guest(g).stor.value();
    }
    for (&host, &demanded) in &mem_demand {
        let capacity = phys.effective_mem(host).value();
        if demanded > capacity {
            violations.push(Violation::MemoryExceeded {
                host,
                demanded,
                capacity,
            });
        }
    }
    for (&host, &demanded) in &stor_demand {
        let capacity = phys.effective_stor(host).value();
        if demanded > capacity + 1e-9 {
            violations.push(Violation::StorageExceeded {
                host,
                demanded,
                capacity,
            });
        }
    }

    // --- Route table shape.
    if mapping.routes().len() != venv.link_count() {
        violations.push(Violation::RouteTableSizeMismatch {
            expected: venv.link_count(),
            actual: mapping.routes().len(),
        });
        return Err(violations);
    }

    // --- Eqs. 4–8 per link; accumulate Eq. 9 usage.
    let mut bw_usage: HashMap<EdgeId, f64> = HashMap::new();
    for l in venv.link_ids() {
        let (src, dst) = venv.link_endpoints(l);
        let (hs, hd) = (mapping.host_of(src), mapping.host_of(dst));
        let route = mapping.route_of(l);
        let spec = venv.link(l);

        if hs == hd {
            // §3.2: same-host links have infinite bandwidth and zero
            // latency; the only valid route is the empty one.
            if !route.is_intra_host() {
                violations.push(Violation::IntraHostMismatch { link: l });
            }
            continue;
        }
        if route.is_intra_host() {
            violations.push(Violation::IntraHostMismatch { link: l });
            continue;
        }

        // Eq. 4 + Eq. 6: chain edges starting at the source host.
        let Some(seq) = route.node_sequence(phys, hs) else {
            violations.push(Violation::RouteDiscontinuous { link: l });
            continue;
        };
        // Eq. 5: end at the destination host.
        let last = *seq.last().expect("sequence contains at least the start");
        if last != hd {
            violations.push(Violation::RouteWrongDestination {
                link: l,
                ended_at: last,
                expected: hd,
            });
        }
        // Eq. 7: no loops.
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != seq.len() {
            violations.push(Violation::RouteHasLoop { link: l });
        }
        // Eq. 8: latency bound.
        let total_lat: f64 = route
            .edges()
            .iter()
            .map(|&e| phys.link(e).lat.value())
            .sum();
        if total_lat > spec.lat.value() + 1e-9 {
            violations.push(Violation::LatencyExceeded {
                link: l,
                total: total_lat,
                bound: spec.lat.value(),
            });
        }
        // Eq. 9 accumulation.
        for &e in route.edges() {
            *bw_usage.entry(e).or_default() += spec.bw.value();
        }
    }

    for (&edge, &demanded) in &bw_usage {
        let capacity = phys.link(edge).bw.value();
        if demanded > capacity + 1e-9 {
            violations.push(Violation::BandwidthExceeded {
                edge,
                demanded,
                capacity,
            });
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{HostSpec, LinkSpec, VmmOverhead};
    use crate::resources::{Kbps, MemMb, Millis, Mips, StorGb};
    use crate::virtualenv::{GuestSpec, VLinkSpec};
    use crate::Route;
    use emumap_graph::generators;

    fn phys_line(n: usize, bw: f64) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::line(n),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(bw), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    fn venv_pair(bw: f64, lat: f64) -> VirtualEnvironment {
        let mut v = VirtualEnvironment::new();
        let a = v.add_guest(GuestSpec::new(Mips(10.0), MemMb(128), StorGb(10.0)));
        let b = v.add_guest(GuestSpec::new(Mips(10.0), MemMb(128), StorGb(10.0)));
        v.add_link(a, b, VLinkSpec::new(Kbps(bw), Millis(lat)));
        v
    }

    #[test]
    fn valid_inter_host_mapping_passes() {
        let p = phys_line(2, 1000.0);
        let v = venv_pair(100.0, 10.0);
        let e: Vec<_> = p.graph().edge_ids().collect();
        let m = Mapping::new(
            vec![p.hosts()[0], p.hosts()[1]],
            vec![Route::new(vec![e[0]])],
        );
        assert_eq!(validate_mapping(&p, &v, &m), Ok(()));
    }

    #[test]
    fn valid_intra_host_mapping_passes() {
        let p = phys_line(2, 1000.0);
        // Even a virtual link demanding more than any physical link is fine
        // intra-host (infinite bandwidth, zero latency).
        let v = venv_pair(1e9, 0.0);
        let m = Mapping::new(vec![p.hosts()[0], p.hosts()[0]], vec![Route::intra_host()]);
        assert_eq!(validate_mapping(&p, &v, &m), Ok(()));
    }

    #[test]
    fn placement_size_mismatch_detected() {
        let p = phys_line(2, 1000.0);
        let v = venv_pair(1.0, 100.0);
        let m = Mapping::new(vec![p.hosts()[0]], vec![]);
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(matches!(
            errs[0],
            Violation::PlacementSizeMismatch {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn mapped_to_switch_detected() {
        let shape = generators::switched_cascade(2, 4);
        let p = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let v = venv_pair(1.0, 100.0);
        let switch = p
            .graph()
            .nodes()
            .find(|(_, n)| !n.is_host())
            .map(|(id, _)| id)
            .unwrap();
        let m = Mapping::new(vec![p.hosts()[0], switch], vec![Route::intra_host()]);
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(matches!(
            errs[0],
            Violation::MappedToNonHost { guest: 1, .. }
        ));
    }

    #[test]
    fn memory_overflow_detected() {
        let p = phys_line(2, 1000.0);
        let mut v = VirtualEnvironment::new();
        let a = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(600), StorGb(1.0)));
        let b = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(600), StorGb(1.0)));
        v.add_link(a, b, VLinkSpec::new(Kbps(1.0), Millis(100.0)));
        let m = Mapping::new(vec![p.hosts()[0], p.hosts()[0]], vec![Route::intra_host()]);
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            Violation::MemoryExceeded {
                demanded: 1200,
                capacity: 1024,
                ..
            }
        )));
    }

    #[test]
    fn storage_overflow_detected() {
        let p = phys_line(2, 1000.0);
        let mut v = VirtualEnvironment::new();
        let a = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(1), StorGb(80.0)));
        let b = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(1), StorGb(80.0)));
        v.add_link(a, b, VLinkSpec::new(Kbps(1.0), Millis(100.0)));
        let m = Mapping::new(vec![p.hosts()[1], p.hosts()[1]], vec![Route::intra_host()]);
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, Violation::StorageExceeded { .. })));
    }

    #[test]
    fn route_table_size_mismatch_detected() {
        let p = phys_line(2, 1000.0);
        let v = venv_pair(1.0, 100.0);
        let m = Mapping::new(vec![p.hosts()[0], p.hosts()[1]], vec![]);
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            Violation::RouteTableSizeMismatch {
                expected: 1,
                actual: 0
            }
        )));
    }

    #[test]
    fn intra_host_mismatches_detected_both_ways() {
        let p = phys_line(2, 1000.0);
        let v = venv_pair(1.0, 100.0);
        let e: Vec<_> = p.graph().edge_ids().collect();
        // Co-hosted guests with a non-empty route.
        let m = Mapping::new(
            vec![p.hosts()[0], p.hosts()[0]],
            vec![Route::new(vec![e[0]])],
        );
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(matches!(errs[0], Violation::IntraHostMismatch { .. }));
        // Differently-hosted guests with an empty route.
        let m = Mapping::new(vec![p.hosts()[0], p.hosts()[1]], vec![Route::intra_host()]);
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(matches!(errs[0], Violation::IntraHostMismatch { .. }));
    }

    #[test]
    fn discontinuous_route_detected() {
        let p = phys_line(4, 1000.0);
        let v = venv_pair(1.0, 100.0);
        let e: Vec<_> = p.graph().edge_ids().collect();
        // Host 0 -> host 3 but skipping the middle edge.
        let m = Mapping::new(
            vec![p.hosts()[0], p.hosts()[3]],
            vec![Route::new(vec![e[0], e[2]])],
        );
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(matches!(errs[0], Violation::RouteDiscontinuous { .. }));
        // An edge the topology does not have.
        let missing = EdgeId::from_index(e.len());
        let m = Mapping::new(m.placement().to_vec(), vec![Route::new(vec![missing])]);
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(matches!(errs[0], Violation::RouteDiscontinuous { .. }));
    }

    #[test]
    fn wrong_destination_detected() {
        let p = phys_line(3, 1000.0);
        let v = venv_pair(1.0, 100.0);
        let e: Vec<_> = p.graph().edge_ids().collect();
        // Route stops one hop short.
        let m = Mapping::new(
            vec![p.hosts()[0], p.hosts()[2]],
            vec![Route::new(vec![e[0]])],
        );
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(matches!(errs[0], Violation::RouteWrongDestination { .. }));
    }

    #[test]
    fn looping_route_detected() {
        // Ring of 3: go the long way around AND come back to start first.
        let shape = generators::ring(3);
        let p = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let v = venv_pair(1.0, 1000.0);
        // Edges of ring(3): (0,1), (1,2), (2,0). Route 0->1->2->0->1 loops.
        let e: Vec<_> = p.graph().edge_ids().collect();
        let m = Mapping::new(
            vec![p.hosts()[0], p.hosts()[1]],
            vec![Route::new(vec![e[0], e[1], e[2], e[0]])],
        );
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(errs
            .iter()
            .any(|err| matches!(err, Violation::RouteHasLoop { .. })));
    }

    #[test]
    fn latency_bound_enforced() {
        let p = phys_line(3, 1000.0); // each hop 5 ms
        let v = venv_pair(1.0, 9.0); // bound below the 10 ms two-hop path
        let e: Vec<_> = p.graph().edge_ids().collect();
        let m = Mapping::new(
            vec![p.hosts()[0], p.hosts()[2]],
            vec![Route::new(vec![e[0], e[1]])],
        );
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(matches!(
            errs[0],
            Violation::LatencyExceeded { total, bound, .. } if total == 10.0 && bound == 9.0
        ));
    }

    #[test]
    fn bandwidth_aggregation_across_links_enforced() {
        let p = phys_line(2, 100.0);
        let mut v = VirtualEnvironment::new();
        let a = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(1), StorGb(1.0)));
        let b = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(1), StorGb(1.0)));
        // Two 60 kbps virtual links over the same 100 kbps physical edge.
        v.add_link(a, b, VLinkSpec::new(Kbps(60.0), Millis(100.0)));
        v.add_link(a, b, VLinkSpec::new(Kbps(60.0), Millis(100.0)));
        let e: Vec<_> = p.graph().edge_ids().collect();
        let m = Mapping::new(
            vec![p.hosts()[0], p.hosts()[1]],
            vec![Route::new(vec![e[0]]), Route::new(vec![e[0]])],
        );
        let errs = validate_mapping(&p, &v, &m).unwrap_err();
        assert!(errs.iter().any(|err| matches!(
            err,
            Violation::BandwidthExceeded { demanded, capacity, .. }
                if *demanded == 120.0 && *capacity == 100.0
        )));
    }

    #[test]
    fn exact_bandwidth_fit_passes() {
        let p = phys_line(2, 120.0);
        let mut v = VirtualEnvironment::new();
        let a = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(1), StorGb(1.0)));
        let b = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(1), StorGb(1.0)));
        v.add_link(a, b, VLinkSpec::new(Kbps(60.0), Millis(100.0)));
        v.add_link(a, b, VLinkSpec::new(Kbps(60.0), Millis(100.0)));
        let e: Vec<_> = p.graph().edge_ids().collect();
        let m = Mapping::new(
            vec![p.hosts()[0], p.hosts()[1]],
            vec![Route::new(vec![e[0]]), Route::new(vec![e[0]])],
        );
        assert_eq!(validate_mapping(&p, &v, &m), Ok(()));
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::MemoryExceeded {
            host: NodeId::from_index(3),
            demanded: 2048,
            capacity: 1024,
        };
        let s = format!("{v}");
        assert!(s.contains("n3") && s.contains("2048") && s.contains("1024"));
        assert!(s.contains("Eq. 2"), "names the violated equation: {s}");
    }

    #[test]
    fn violation_is_a_std_error_naming_the_equation() {
        let v = Violation::LatencyExceeded {
            link: VLinkId::from_index(1),
            total: 15.0,
            bound: 10.0,
        };
        let err: &dyn std::error::Error = &v;
        assert!(err.to_string().contains("Eq. 8"));
    }
}
