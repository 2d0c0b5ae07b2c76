//! The virtual environment: the distributed system the tester wants to
//! emulate (paper §3.1–3.2, graph `v = (V, E_v)`).

use crate::resources::{Kbps, MemMb, Millis, Mips};
use crate::StorGb;
use emumap_graph::{EdgeId, Graph, NeighborRef, NodeId};
use serde::{Deserialize, Serialize};

/// Resource demands of one guest (virtual machine).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GuestSpec {
    /// CPU demand (`vproc`). Not a hard constraint — it is the quantity the
    /// objective function balances.
    pub proc: Mips,
    /// Memory demand (`vmem`) — hard constraint (Eq. 2).
    pub mem: MemMb,
    /// Storage demand (`vstor`) — hard constraint (Eq. 3).
    pub stor: StorGb,
}

impl GuestSpec {
    /// A guest with the given demands.
    pub fn new(proc: Mips, mem: MemMb, stor: StorGb) -> Self {
        GuestSpec { proc, mem, stor }
    }
}

/// Demands of one virtual link.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct VLinkSpec {
    /// Bandwidth demand (`vbw`) — hard constraint per physical link (Eq. 9).
    pub bw: Kbps,
    /// Latency bound (`vlat`) — hard constraint per path (Eq. 8).
    pub lat: Millis,
}

impl VLinkSpec {
    /// A virtual link with the given demands.
    pub fn new(bw: Kbps, lat: Millis) -> Self {
        VLinkSpec { bw, lat }
    }
}

/// Handle to a guest. Guests are nodes of the virtual-environment graph;
/// the alias documents which graph an id belongs to.
pub type GuestId = NodeId;

/// Handle to a virtual link.
pub type VLinkId = EdgeId;

/// The virtual environment `v = (V, E_v)`: guests and the virtual links
/// between them.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct VirtualEnvironment {
    graph: Graph<GuestSpec, VLinkSpec>,
}

impl VirtualEnvironment {
    /// An empty virtual environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an already-built guest/link graph.
    pub fn from_graph(graph: Graph<GuestSpec, VLinkSpec>) -> Self {
        VirtualEnvironment { graph }
    }

    /// Adds a guest; returns its id.
    pub fn add_guest(&mut self, spec: GuestSpec) -> GuestId {
        self.graph.add_node(spec)
    }

    /// Adds a virtual link between two guests; returns its id.
    pub fn add_link(&mut self, a: GuestId, b: GuestId, spec: VLinkSpec) -> VLinkId {
        self.graph.add_edge(a, b, spec)
    }

    /// The virtual links incident to `guest` as a contiguous slice
    /// (neighbor + link id) of the graph's adjacency — the O(degree) walk
    /// of the delta-evaluation paths. Self-loops appear once.
    pub fn links_of(&self, guest: GuestId) -> &[NeighborRef] {
        self.graph.csr().neighbors(guest)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph<GuestSpec, VLinkSpec> {
        &self.graph
    }

    /// Number of guests (`m` in the paper).
    pub fn guest_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of virtual links.
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Demands of a guest.
    pub fn guest(&self, id: GuestId) -> &GuestSpec {
        self.graph.node(id)
    }

    /// Demands of a virtual link.
    pub fn link(&self, id: VLinkId) -> &VLinkSpec {
        self.graph.edge(id)
    }

    /// The two guests joined by a virtual link.
    pub fn link_endpoints(&self, id: VLinkId) -> (GuestId, GuestId) {
        self.graph.endpoints(id)
    }

    /// Iterator over guest ids.
    pub fn guest_ids(&self) -> impl ExactSizeIterator<Item = GuestId> + Clone {
        self.graph.node_ids()
    }

    /// Iterator over virtual-link ids.
    pub fn link_ids(&self) -> impl ExactSizeIterator<Item = VLinkId> + Clone {
        self.graph.edge_ids()
    }

    /// Aggregate CPU demand of all guests; harness sanity checks.
    pub fn total_proc_demand(&self) -> Mips {
        self.graph.nodes().map(|(_, g)| g.proc).sum()
    }

    /// Aggregate memory demand of all guests.
    pub fn total_mem_demand(&self) -> MemMb {
        self.graph.nodes().map(|(_, g)| g.mem).sum()
    }

    /// Why no mapper may take this environment, naming the first culprit:
    /// a guest's CPU or storage demand or a link's bandwidth demand that
    /// is negative or non-finite (a negative one would lend capacity that
    /// another guest or tenant could take), or a link's latency bound
    /// that is NaN or negative. An infinite latency bound means "no
    /// bound" and is legal. `None` when every number is usable.
    pub fn demand_error(&self) -> Option<String> {
        let bad = |demand: f64| !(demand.is_finite() && demand >= 0.0);
        let guest = self.guest_ids().find(|&g| {
            let spec = self.guest(g);
            bad(spec.proc.value()) || bad(spec.stor.value())
        });
        if let Some(g) = guest {
            return Some(format!("guest {g} has a negative or non-finite demand"));
        }
        self.link_ids().find_map(|l| {
            let spec = self.link(l);
            if bad(spec.bw.value()) {
                Some(format!(
                    "virtual link {l} has a negative or non-finite demand"
                ))
            } else if spec.lat.value().is_nan() || spec.lat.value() < 0.0 {
                Some(format!(
                    "virtual link {l} has a negative or NaN latency bound"
                ))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_guest() -> GuestSpec {
        GuestSpec::new(Mips(75.0), MemMb(192), StorGb(150.0))
    }

    fn small_link() -> VLinkSpec {
        VLinkSpec::new(Kbps(750.0), Millis(45.0))
    }

    #[test]
    fn build_and_query() {
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(small_guest());
        let b = venv.add_guest(small_guest());
        let l = venv.add_link(a, b, small_link());
        assert_eq!(venv.guest_count(), 2);
        assert_eq!(venv.link_count(), 1);
        assert_eq!(venv.guest(a).mem, MemMb(192));
        assert_eq!(venv.link(l).bw, Kbps(750.0));
        assert_eq!(venv.link_endpoints(l), (a, b));
    }

    #[test]
    fn totals() {
        let mut venv = VirtualEnvironment::new();
        venv.add_guest(GuestSpec::new(Mips(50.0), MemMb(128), StorGb(100.0)));
        venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(256), StorGb(200.0)));
        assert_eq!(venv.total_proc_demand(), Mips(150.0));
        assert_eq!(venv.total_mem_demand(), MemMb(384));
    }

    #[test]
    fn demand_error_names_the_first_unusable_number() {
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(small_guest());
        let b = venv.add_guest(small_guest());
        venv.add_link(a, b, VLinkSpec::new(Kbps(750.0), Millis(f64::INFINITY)));
        assert_eq!(venv.demand_error(), None, "an infinite bound is no bound");
        for (lat, bad) in [
            (-5.0, true),
            (f64::NAN, true),
            (f64::NEG_INFINITY, true),
            (0.0, false),
        ] {
            let mut v = venv.clone();
            v.add_link(b, a, VLinkSpec::new(Kbps(750.0), Millis(lat)));
            let reason = v.demand_error();
            assert_eq!(reason.is_some(), bad, "lat {lat}: {reason:?}");
            if let Some(reason) = reason {
                assert!(reason.contains("virtual link e1"), "{reason}");
                assert!(reason.contains("latency bound"), "{reason}");
            }
        }
        let mut v = venv.clone();
        v.add_guest(GuestSpec::new(Mips(f64::NAN), MemMb(1), StorGb(1.0)));
        let reason = v.demand_error().expect("a NaN CPU demand is refused");
        assert!(reason.contains("guest n2"), "{reason}");
        v.add_link(a, b, VLinkSpec::new(Kbps(-1.0), Millis(1.0)));
        assert!(
            v.demand_error().unwrap().contains("guest n2"),
            "guests first"
        );
    }

    #[test]
    fn default_is_empty() {
        let venv = VirtualEnvironment::default();
        assert_eq!(venv.guest_count(), 0);
        assert_eq!(venv.link_count(), 0);
    }

    #[test]
    fn links_of_matches_graph_neighbors() {
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(small_guest());
        let b = venv.add_guest(small_guest());
        let c = venv.add_guest(small_guest());
        venv.add_link(a, b, small_link());
        venv.add_link(a, c, small_link());
        let self_loop = venv.add_link(b, b, small_link());
        for g in venv.guest_ids() {
            let via_csr: Vec<_> = venv
                .links_of(g)
                .iter()
                .map(|nb| (nb.node, nb.edge))
                .collect();
            let via_graph: Vec<_> = venv
                .graph()
                .neighbors(g)
                .map(|nb| (nb.node, nb.edge))
                .collect();
            assert_eq!(via_csr, via_graph);
        }
        // A self-loop appears exactly once in its endpoint's list.
        let loops = venv
            .links_of(b)
            .iter()
            .filter(|nb| nb.edge == self_loop)
            .count();
        assert_eq!(loops, 1);
    }

    #[test]
    fn links_of_sees_mutations_after_cache_was_built() {
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(small_guest());
        let b = venv.add_guest(small_guest());
        venv.add_link(a, b, small_link());
        assert_eq!(venv.links_of(a).len(), 1); // builds the graph's CSR
        let c = venv.add_guest(small_guest()); // must invalidate it
        venv.add_link(a, c, small_link());
        assert_eq!(venv.links_of(a).len(), 2);
        assert_eq!(venv.links_of(c).len(), 1);
    }

    #[test]
    fn clone_rebuilds_csr_lazily() {
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(small_guest());
        let b = venv.add_guest(small_guest());
        venv.add_link(a, b, small_link());
        let _ = venv.links_of(a); // warm the original's CSR
        let mut cloned = venv.clone();
        assert_eq!(cloned.links_of(a).len(), 1);
        assert_eq!(cloned.guest_count(), venv.guest_count());
        // The clone's adjacency is its own: a link added to it leaves the
        // original's untouched.
        cloned.add_link(a, a, small_link());
        assert_eq!(cloned.links_of(a).len(), 2);
        assert_eq!(venv.links_of(a).len(), 1);
    }
}
