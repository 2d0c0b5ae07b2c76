//! The physical environment: a cluster of workstations running VMMs,
//! connected by an arbitrary network (paper §3.1).

use crate::resources::{Kbps, MemMb, Millis, Mips, StorGb};
use emumap_graph::generators::{Role, Topology};
use emumap_graph::{EdgeId, Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide source of topology generation ids. Starts at 1 so 0 can
/// serve as an "unset" sentinel in caches.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Capacities of one physical host, *before* VMM overhead deduction.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Processing capacity (`proc` in the paper).
    pub proc: Mips,
    /// Memory capacity (`mem`).
    pub mem: MemMb,
    /// Storage capacity (`stor`).
    pub stor: StorGb,
}

impl HostSpec {
    /// A host with the given capacities.
    pub fn new(proc: Mips, mem: MemMb, stor: StorGb) -> Self {
        HostSpec { proc, mem, stor }
    }
}

/// Resources consumed by the virtual machine monitor on every host.
///
/// §3.1: "for each different resource (CPU, memory, storage), the amount of
/// it used by the VMM is deducted from that resource availability prior the
/// mapping."
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct VmmOverhead {
    /// CPU consumed by the VMM.
    pub proc: Mips,
    /// Memory consumed by the VMM.
    pub mem: MemMb,
    /// Storage consumed by the VMM.
    pub stor: StorGb,
}

impl VmmOverhead {
    /// No overhead (the Table 1 setup does not state one; the harness uses
    /// this default so capacities match the paper's ranges exactly).
    pub const NONE: VmmOverhead = VmmOverhead {
        proc: Mips(0.0),
        mem: MemMb(0),
        stor: StorGb(0.0),
    };
}

/// A node of the physical network.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PhysNode {
    /// A workstation that can run guests.
    Host(HostSpec),
    /// A switch: routes traffic, hosts nothing.
    Switch,
}

impl PhysNode {
    /// The host spec, if this node is a host.
    pub fn as_host(&self) -> Option<&HostSpec> {
        match self {
            PhysNode::Host(spec) => Some(spec),
            PhysNode::Switch => None,
        }
    }

    /// `true` if this node can run guests.
    pub fn is_host(&self) -> bool {
        matches!(self, PhysNode::Host(_))
    }
}

/// Capacities of one physical link.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Bandwidth capacity (`bw`).
    pub bw: Kbps,
    /// Latency (`lat`).
    pub lat: Millis,
}

impl LinkSpec {
    /// A link with the given capacities.
    pub fn new(bw: Kbps, lat: Millis) -> Self {
        LinkSpec { bw, lat }
    }
}

/// The physical environment: hosts and switches connected by capacitated
/// links. This is the graph `c = (C, E_c)` of §3.2, generalized with switch
/// nodes so the cascaded-switch topology of the evaluation is expressible
/// (switches forward traffic but receive no guests).
#[derive(Clone, Debug)]
pub struct PhysicalTopology {
    graph: Graph<PhysNode, LinkSpec>,
    hosts: Vec<NodeId>,
    vmm: VmmOverhead,
    /// Identity of this topology's shape, ids and link latencies for cache
    /// invalidation. Two values built in the same process share a
    /// generation only if one is a clone of the other or was derived from
    /// it by [`with_capacities`](Self::with_capacities); neither can change
    /// the shape, ids or latencies (there are no mutators). Not serialized
    /// — a deserialized topology gets a fresh id, so caches warmed on
    /// other content can never be mistaken for current.
    generation: u64,
}

// Manual impls rather than derive: `generation` is a process-local cache
// key that must never hit the wire, and a deserialized topology must get
// a fresh one. The field set matches the pre-generation wire format;
// loading derives `hosts` from the node kinds and rejects a differing list.
impl Serialize for PhysicalTopology {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("graph".to_string(), self.graph.to_value()),
            ("hosts".to_string(), self.hosts.to_value()),
            ("vmm".to_string(), self.vmm.to_value()),
        ])
    }
}

impl Deserialize for PhysicalTopology {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let pairs = value.expect_object("PhysicalTopology")?;
        let stored: Vec<NodeId> = serde::__field(pairs, "hosts", "PhysicalTopology")?;
        let topo = PhysicalTopology::from_graph(
            serde::__field(pairs, "graph", "PhysicalTopology")?,
            serde::__field(pairs, "vmm", "PhysicalTopology")?,
        );
        if stored != topo.hosts {
            return Err(serde::DeError::new(
                "PhysicalTopology.hosts: does not list the graph's host nodes in id order",
            ));
        }
        Ok(topo)
    }
}

impl PhysicalTopology {
    /// Builds a physical topology by decorating a generated shape with host
    /// specs and one uniform link spec.
    ///
    /// `host_specs` must yield one spec per [`Role::Host`] node of the
    /// shape, in node order.
    ///
    /// # Panics
    /// Panics if `host_specs` runs out before every host is decorated.
    pub fn from_shape<I>(
        shape: &Topology,
        mut host_specs: I,
        link: LinkSpec,
        vmm: VmmOverhead,
    ) -> Self
    where
        I: Iterator<Item = HostSpec>,
    {
        let mut graph = Graph::with_capacity(shape.node_count(), shape.edge_count());
        for (id, role) in shape.nodes() {
            let node = match role {
                Role::Host => PhysNode::Host(
                    host_specs
                        .next()
                        .expect("host_specs iterator exhausted before all hosts were decorated"),
                ),
                Role::Switch => PhysNode::Switch,
            };
            let new_id = graph.add_node(node);
            debug_assert_eq!(new_id, id, "shape ids must be preserved");
        }
        for e in shape.edges() {
            graph.add_edge(e.a, e.b, link);
        }
        PhysicalTopology::from_graph(graph, vmm)
    }

    /// Builds a physical topology directly from a decorated graph.
    pub fn from_graph(graph: Graph<PhysNode, LinkSpec>, vmm: VmmOverhead) -> Self {
        let hosts = graph
            .nodes()
            .filter(|(_, n)| n.is_host())
            .map(|(id, _)| id)
            .collect();
        PhysicalTopology {
            graph,
            hosts,
            vmm,
            generation: fresh_generation(),
        }
    }

    /// The underlying capacitated graph.
    pub fn graph(&self) -> &Graph<PhysNode, LinkSpec> {
        &self.graph
    }

    /// Node ids of all hosts (insertion order). `hosts().len()` is the `n`
    /// of the paper.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The VMM overhead configured for this cluster.
    pub fn vmm_overhead(&self) -> VmmOverhead {
        self.vmm
    }

    /// The raw spec of a host node.
    ///
    /// # Panics
    /// Panics if `node` is a switch.
    pub fn host_spec(&self, node: NodeId) -> &HostSpec {
        self.graph
            .node(node)
            .as_host()
            .unwrap_or_else(|| panic!("{node} is a switch, not a host"))
    }

    /// `true` if `node` is a host (can receive guests).
    pub fn is_host(&self, node: NodeId) -> bool {
        self.graph.node(node).is_host()
    }

    /// *Effective* CPU capacity of a host: raw spec minus VMM overhead
    /// (§3.1). Effective capacities are what all mapping math uses.
    pub fn effective_proc(&self, node: NodeId) -> Mips {
        self.host_spec(node).proc - self.vmm.proc
    }

    /// Effective memory capacity of a host (raw minus VMM overhead,
    /// saturating at zero).
    pub fn effective_mem(&self, node: NodeId) -> MemMb {
        self.host_spec(node).mem.saturating_sub(self.vmm.mem)
    }

    /// Effective storage capacity of a host.
    pub fn effective_stor(&self, node: NodeId) -> StorGb {
        StorGb((self.host_spec(node).stor - self.vmm.stor).value().max(0.0))
    }

    /// Link spec of a physical edge.
    pub fn link(&self, edge: EdgeId) -> &LinkSpec {
        self.graph.edge(edge)
    }

    /// Total effective CPU across hosts; used by harness sanity checks.
    pub fn total_effective_proc(&self) -> Mips {
        self.hosts.iter().map(|&h| self.effective_proc(h)).sum()
    }

    /// A copy of this topology whose hosts have the capacities `host(node)`
    /// and whose links have the bandwidth `link_bw(edge)`. The shape, the
    /// node and edge ids, the link latencies and the
    /// [`generation`](Self::generation) are kept, so caches of
    /// latency-derived tables stay warm across the copy. The new
    /// capacities are taken as effective ones: the copy carries no VMM
    /// overhead.
    pub fn with_capacities(
        &self,
        mut host: impl FnMut(NodeId) -> HostSpec,
        mut link_bw: impl FnMut(EdgeId) -> Kbps,
    ) -> PhysicalTopology {
        let mut graph = self.graph.clone();
        for &h in &self.hosts {
            *graph.node_mut(h) = PhysNode::Host(host(h));
        }
        for e in self.graph.edge_ids() {
            graph.edge_mut(e).bw = link_bw(e);
        }
        PhysicalTopology {
            graph,
            hosts: self.hosts.clone(),
            vmm: VmmOverhead::NONE,
            generation: self.generation,
        }
    }

    /// Cache-invalidation identity (see the field doc). O(1); equal
    /// generations imply identical shape, ids and link latencies, but not
    /// vice versa. Host capacities and link bandwidths may differ.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;

    fn uniform_spec() -> HostSpec {
        HostSpec::new(Mips(2000.0), MemMb::from_gb(2), StorGb(2000.0))
    }

    fn paper_link() -> LinkSpec {
        LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0))
    }

    #[test]
    fn from_shape_decorates_all_hosts() {
        let shape = generators::torus2d(5, 8);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(uniform_spec()),
            paper_link(),
            VmmOverhead::NONE,
        );
        assert_eq!(phys.host_count(), 40);
        assert_eq!(phys.graph().edge_count(), 80);
        for &h in phys.hosts() {
            assert!(phys.is_host(h));
            assert_eq!(phys.effective_proc(h), Mips(2000.0));
        }
    }

    #[test]
    fn switched_topology_keeps_switches_hostless() {
        let shape = generators::switched_cascade(40, 64);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(uniform_spec()),
            paper_link(),
            VmmOverhead::NONE,
        );
        assert_eq!(phys.host_count(), 40);
        assert_eq!(phys.graph().node_count(), 41);
        let switch = phys
            .graph()
            .nodes()
            .find(|(_, n)| !n.is_host())
            .map(|(id, _)| id)
            .unwrap();
        assert!(!phys.is_host(switch));
    }

    #[test]
    #[should_panic(expected = "is a switch")]
    fn host_spec_panics_for_switch() {
        let shape = generators::switched_cascade(2, 4);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(uniform_spec()),
            paper_link(),
            VmmOverhead::NONE,
        );
        let switch = phys
            .graph()
            .nodes()
            .find(|(_, n)| !n.is_host())
            .map(|(id, _)| id)
            .unwrap();
        let _ = phys.host_spec(switch);
    }

    #[test]
    fn vmm_overhead_is_deducted() {
        let shape = generators::ring(3);
        let vmm = VmmOverhead {
            proc: Mips(100.0),
            mem: MemMb(256),
            stor: StorGb(10.0),
        };
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(uniform_spec()),
            paper_link(),
            vmm,
        );
        let h = phys.hosts()[0];
        assert_eq!(phys.effective_proc(h), Mips(1900.0));
        assert_eq!(phys.effective_mem(h), MemMb(2048 - 256));
        assert_eq!(phys.effective_stor(h), StorGb(1990.0));
    }

    #[test]
    fn oversized_vmm_overhead_saturates_not_panics() {
        let shape = generators::ring(3);
        let vmm = VmmOverhead {
            proc: Mips(0.0),
            mem: MemMb::from_gb(10),
            stor: StorGb(99_999.0),
        };
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(uniform_spec()),
            paper_link(),
            vmm,
        );
        let h = phys.hosts()[0];
        assert_eq!(phys.effective_mem(h), MemMb::ZERO);
        assert_eq!(phys.effective_stor(h), StorGb(0.0));
    }

    #[test]
    fn link_specs_are_uniform() {
        let shape = generators::ring(4);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(uniform_spec()),
            paper_link(),
            VmmOverhead::NONE,
        );
        for e in phys.graph().edge_ids() {
            assert_eq!(phys.link(e).bw, Kbps(1_000_000.0));
            assert_eq!(phys.link(e).lat, Millis(5.0));
        }
    }

    #[test]
    fn total_effective_proc_sums_hosts() {
        let shape = generators::line(4);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(uniform_spec()),
            paper_link(),
            VmmOverhead::NONE,
        );
        assert_eq!(phys.total_effective_proc(), Mips(8000.0));
    }

    #[test]
    fn generation_distinguishes_builds_but_not_clones() {
        let shape = generators::ring(3);
        let build = || {
            PhysicalTopology::from_shape(
                &shape,
                std::iter::repeat(uniform_spec()),
                paper_link(),
                VmmOverhead::NONE,
            )
        };
        let a = build();
        let b = build();
        assert_ne!(a.generation(), b.generation(), "independent builds differ");
        assert_eq!(a.generation(), a.clone().generation(), "clones share");
        assert_ne!(a.generation(), 0, "0 is reserved as an unset sentinel");
    }

    #[test]
    fn generation_is_fresh_after_deserialization() {
        let shape = generators::ring(3);
        let phys = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(uniform_spec()),
            paper_link(),
            VmmOverhead::NONE,
        );
        let json = serde_json::to_string(&phys).unwrap();
        let back: PhysicalTopology = serde_json::from_str(&json).unwrap();
        assert_ne!(phys.generation(), back.generation());
        assert_eq!(phys.host_count(), back.host_count());
    }

    #[test]
    fn with_capacities_keeps_shape_ids_latencies_and_generation() {
        let phys = PhysicalTopology::from_shape(
            &generators::switched_cascade(4, 8),
            std::iter::repeat(uniform_spec()),
            paper_link(),
            VmmOverhead {
                proc: Mips(100.0),
                mem: MemMb(0),
                stor: StorGb(0.0),
            },
        );
        let small = HostSpec::new(Mips(7.0), MemMb(8), StorGb(9.0));
        let copy = phys.with_capacities(|_| small, |e| Kbps(e.index() as f64));
        assert_eq!(copy.generation(), phys.generation());
        assert_eq!(copy.hosts(), phys.hosts());
        assert_eq!(copy.vmm_overhead(), VmmOverhead::NONE);
        for (id, node) in phys.graph().nodes() {
            assert_eq!(copy.is_host(id), node.is_host());
        }
        for &h in copy.hosts() {
            assert_eq!(*copy.host_spec(h), small);
            assert_eq!(copy.effective_proc(h), Mips(7.0));
        }
        for e in phys.graph().edge_ids() {
            assert_eq!(copy.graph().endpoints(e), phys.graph().endpoints(e));
            assert_eq!(copy.link(e).lat, phys.link(e).lat);
            assert_eq!(copy.link(e).bw, Kbps(e.index() as f64));
        }
        let rebuilt = PhysicalTopology::from_graph(copy.graph().clone(), VmmOverhead::NONE);
        assert_ne!(
            rebuilt.generation(),
            phys.generation(),
            "from_graph is a fresh build"
        );
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn from_shape_panics_when_specs_run_out() {
        let shape = generators::ring(3);
        let _ = PhysicalTopology::from_shape(
            &shape,
            std::iter::once(uniform_spec()),
            paper_link(),
            VmmOverhead::NONE,
        );
    }
}
