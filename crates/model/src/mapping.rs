//! The output of a mapper: guest placements plus one physical route per
//! virtual link (paper §3.2, the sets `G_i` and sequences `P_j`).

use crate::physical::PhysicalTopology;
use crate::virtualenv::{GuestId, VLinkId};
use emumap_graph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A physical route for one virtual link: the ordered physical edges from
/// the host of the link's source guest to the host of its destination guest
/// (the sequence `P_j` of Eq. 4–7).
///
/// The empty route is meaningful: both endpoints live on the same host, the
/// traffic never touches the network, and §3.2 grants it infinite bandwidth
/// and zero latency.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    edges: Vec<EdgeId>,
}

impl Route {
    /// An intra-host route (no physical edges).
    pub const fn intra_host() -> Self {
        Route { edges: Vec::new() }
    }

    /// A route over the given physical edges (source-host side first).
    pub fn new(edges: Vec<EdgeId>) -> Self {
        Route { edges }
    }

    /// The physical edges of the route.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of physical hops.
    pub fn hop_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` if both guests share a host.
    pub fn is_intra_host(&self) -> bool {
        self.edges.is_empty()
    }

    /// Expands the route into the node sequence it traverses, starting at
    /// `start`. Returns `None` if the edges do not chain or name an edge
    /// `phys` does not have (a malformed route); validation reports that
    /// as `Violation::RouteDiscontinuous` (see [`crate::validate`]).
    pub fn node_sequence(&self, phys: &PhysicalTopology, start: NodeId) -> Option<Vec<NodeId>> {
        let mut seq = Vec::with_capacity(self.edges.len() + 1);
        seq.push(start);
        let mut cur = start;
        for &e in &self.edges {
            if e.index() >= phys.graph().edge_count() {
                return None;
            }
            let (a, b) = phys.graph().endpoints(e);
            cur = if cur == a {
                b
            } else if cur == b {
                a
            } else {
                return None;
            };
            seq.push(cur);
        }
        Some(seq)
    }
}

/// A complete mapping: every guest assigned to a host, every virtual link
/// routed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// `placement[g]` = host node of guest `g` (indexed by
    /// [`GuestId::index`]).
    placement: Vec<NodeId>,
    /// `routes[l]` = physical route of virtual link `l` (indexed by
    /// [`VLinkId::index`]).
    routes: Vec<Route>,
}

impl Mapping {
    /// Builds a mapping from dense placement and route tables.
    pub fn new(placement: Vec<NodeId>, routes: Vec<Route>) -> Self {
        Mapping { placement, routes }
    }

    /// Host of a guest.
    pub fn host_of(&self, guest: GuestId) -> NodeId {
        self.placement[guest.index()]
    }

    /// Route of a virtual link.
    pub fn route_of(&self, link: VLinkId) -> &Route {
        &self.routes[link.index()]
    }

    /// The raw placement table.
    pub fn placement(&self) -> &[NodeId] {
        &self.placement
    }

    /// The raw route table.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Number of guests placed.
    pub fn guest_count(&self) -> usize {
        self.placement.len()
    }

    /// Guests grouped by host (the sets `G_i` of Eq. 1), sorted for
    /// deterministic iteration.
    pub fn guests_by_host(&self) -> BTreeMap<NodeId, Vec<GuestId>> {
        let mut map: BTreeMap<NodeId, Vec<GuestId>> = BTreeMap::new();
        for (idx, &host) in self.placement.iter().enumerate() {
            map.entry(host).or_default().push(GuestId::from_index(idx));
        }
        map
    }

    /// Number of distinct hosts actually used — the consolidation objective
    /// sketched in the paper's future work (§6).
    pub fn hosts_used(&self) -> usize {
        let mut hosts: Vec<NodeId> = self.placement.clone();
        hosts.sort_unstable();
        hosts.dedup();
        hosts.len()
    }

    /// Number of virtual links whose endpoints share a host (these are
    /// "handled inside the host" and never routed — §5.2 notes this drives
    /// the variance in Figure 1).
    pub fn intra_host_link_count(&self) -> usize {
        self.routes.iter().filter(|r| r.is_intra_host()).count()
    }

    /// Number of virtual links actually routed over the network — the
    /// x-axis of Figure 1.
    pub fn routed_link_count(&self) -> usize {
        self.routes.len() - self.intra_host_link_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{HostSpec, LinkSpec, PhysicalTopology, VmmOverhead};
    use crate::resources::{Kbps, MemMb, Millis, Mips, StorGb};
    use emumap_graph::generators;

    fn line_phys(n: usize) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::line(n),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    #[test]
    fn route_node_sequence_chains() {
        let phys = line_phys(4);
        let edges: Vec<_> = phys.graph().edge_ids().collect();
        let route = Route::new(edges.clone());
        let start = phys.hosts()[0];
        let seq = route.node_sequence(&phys, start).unwrap();
        assert_eq!(seq.len(), 4);
        assert_eq!(seq[0], phys.hosts()[0]);
        assert_eq!(seq[3], phys.hosts()[3]);
    }

    #[test]
    fn route_node_sequence_detects_discontinuity() {
        let phys = line_phys(4);
        let edges: Vec<_> = phys.graph().edge_ids().collect();
        // Skip the middle edge: 0-1 then 2-3 does not chain.
        let route = Route::new(vec![edges[0], edges[2]]);
        assert!(route.node_sequence(&phys, phys.hosts()[0]).is_none());
    }

    #[test]
    fn intra_host_route() {
        let r = Route::intra_host();
        assert!(r.is_intra_host());
        assert_eq!(r.hop_count(), 0);
        let phys = line_phys(2);
        assert_eq!(
            r.node_sequence(&phys, phys.hosts()[1]).unwrap(),
            vec![phys.hosts()[1]]
        );
    }

    #[test]
    fn mapping_accessors_and_grouping() {
        let phys = line_phys(3);
        let h = phys.hosts();
        let placement = vec![h[0], h[0], h[2]];
        let routes = vec![Route::intra_host(), Route::new(vec![])];
        let m = Mapping::new(placement, routes);
        assert_eq!(m.guest_count(), 3);
        assert_eq!(m.host_of(GuestId::from_index(1)), h[0]);
        assert_eq!(m.hosts_used(), 2);
        let groups = m.guests_by_host();
        assert_eq!(groups[&h[0]].len(), 2);
        assert_eq!(groups[&h[2]].len(), 1);
        assert!(!groups.contains_key(&h[1]));
    }

    #[test]
    fn link_counts() {
        let phys = line_phys(3);
        let e: Vec<_> = phys.graph().edge_ids().collect();
        let m = Mapping::new(
            vec![phys.hosts()[0], phys.hosts()[1]],
            vec![
                Route::intra_host(),
                Route::new(vec![e[0]]),
                Route::intra_host(),
            ],
        );
        assert_eq!(m.intra_host_link_count(), 2);
        assert_eq!(m.routed_link_count(), 1);
    }
}
