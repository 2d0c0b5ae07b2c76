//! `ArTables` shares one Dijkstra table between the leaves of an
//! attachment point. On random graphs with non-integer latencies, every
//! view it hands out must equal, bit for bit, a fresh Dijkstra rooted at
//! the destination, and the cluster latency diameter read through it must
//! equal the per-host maximum.
//!
//! The graphs mix a random core (with parallel edges and self-loops) with
//! the shapes the attachment key has to get right: leaves, leaves whose
//! only link is doubled, leaf–leaf pairs, nodes whose only edge is a
//! self-loop, and isolated nodes.

use emumap_core::{cluster_diagnostics, ArTables};
use emumap_graph::algo::dijkstra;
use emumap_graph::{Graph, NodeId};
use emumap_model::{
    HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysNode, PhysicalTopology, StorGb,
    VirtualEnvironment, VmmOverhead,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random latency; drawn from a small pool half the time, so leaves of
/// one node often share a table and sums like `0.1 + 0.2` show up.
fn latency(rng: &mut SmallRng) -> Millis {
    const POOL: [f64; 4] = [0.1, 0.2, 0.3, 2.7];
    Millis(if rng.gen_bool(0.5) {
        POOL[rng.gen_range(0..POOL.len())]
    } else {
        rng.gen_range(0.05..9.95)
    })
}

fn build(seed: u64) -> PhysicalTopology {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g: Graph<PhysNode, LinkSpec> = Graph::new();
    let node = |g: &mut Graph<PhysNode, LinkSpec>, rng: &mut SmallRng| {
        g.add_node(if rng.gen_bool(0.7) {
            PhysNode::Host(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0)))
        } else {
            PhysNode::Switch
        })
    };
    let link = |g: &mut Graph<PhysNode, LinkSpec>, rng: &mut SmallRng, a, b| {
        let lat = latency(rng);
        g.add_edge(a, b, LinkSpec::new(Kbps(1000.0), lat));
    };
    let core: Vec<NodeId> = (0..rng.gen_range(2..10))
        .map(|_| node(&mut g, &mut rng))
        .collect();
    for _ in 0..rng.gen_range(core.len() - 1..core.len() * 2) {
        let a = core[rng.gen_range(0..core.len())];
        let b = core[rng.gen_range(0..core.len())];
        link(&mut g, &mut rng, a, b);
        if rng.gen_bool(0.1) {
            link(&mut g, &mut rng, a, b); // parallel edge
        }
    }
    for _ in 0..rng.gen_range(0..12) {
        let leaf = node(&mut g, &mut rng);
        let s = core[rng.gen_range(0..core.len())];
        link(&mut g, &mut rng, leaf, s);
        if rng.gen_bool(0.1) {
            link(&mut g, &mut rng, leaf, s); // a doubled leaf link
        }
    }
    for _ in 0..rng.gen_range(0..3) {
        let (a, b) = (node(&mut g, &mut rng), node(&mut g, &mut rng));
        link(&mut g, &mut rng, a, b); // a two-node component
    }
    for _ in 0..rng.gen_range(0..3) {
        let a = node(&mut g, &mut rng);
        link(&mut g, &mut rng, a, a); // only a self-loop
    }
    for _ in 0..rng.gen_range(0..3) {
        node(&mut g, &mut rng); // isolated
    }
    PhysicalTopology::from_graph(g, VmmOverhead::NONE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn views_equal_a_fresh_dijkstra_from_every_destination(seed in any::<u64>()) {
        let phys = build(seed);
        let graph = phys.graph();
        let csr = graph.to_csr();
        let mut tables = ArTables::new();
        tables.prepare(&phys);
        for dest in graph.node_ids() {
            let lat = dijkstra(graph, &csr, dest, |_, l| l.lat.value()).into_distances();
            let hops = dijkstra(graph, &csr, dest, |_, _| 1.0).into_distances();
            let (ar, _) = tables.ar_and_csr(&phys, dest);
            for v in graph.node_ids().filter(|&v| v != dest) {
                prop_assert_eq!(ar[v.index()].to_bits(), lat[v.index()].to_bits());
            }
            prop_assert_eq!(ar[dest.index()], 0.0);
            let (view, _) = tables.hops_and_csr(&phys, dest);
            for v in graph.node_ids().filter(|&v| v != dest) {
                prop_assert_eq!(view[v.index()].to_bits(), hops[v.index()].to_bits());
            }
            prop_assert_eq!(view[dest.index()], 0.0);
        }
    }

    #[test]
    fn latency_diameter_is_the_per_host_maximum(seed in any::<u64>()) {
        let phys = build(seed);
        let csr = phys.graph().to_csr();
        let mut expected = 0.0f64;
        for &h in phys.hosts() {
            let d = dijkstra(phys.graph(), &csr, h, |_, l| l.lat.value());
            for &g in phys.hosts() {
                expected = expected.max(d.distance(g).unwrap_or(f64::INFINITY));
            }
        }
        let got = cluster_diagnostics(&phys, &VirtualEnvironment::new()).latency_diameter_ms;
        prop_assert!(
            got == expected || (got - expected).abs() <= 1e-9,
            "diameter {} != per-host maximum {}", got, expected
        );
    }
}
