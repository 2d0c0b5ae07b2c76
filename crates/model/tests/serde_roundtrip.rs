//! Wire-format stability: every model type the CLI reads/writes must
//! survive a JSON round trip (the CLI contract), including the
//! infinite-bandwidth sentinel used for intra-host links.

use emumap_model::{
    GuestSpec, HostSpec, Kbps, LinkSpec, Mapping, MemMb, Millis, Mips, PhysicalTopology, Route,
    StorGb, VLinkSpec, VirtualEnvironment, VmmOverhead,
};
use emumap_workloads::{ClusterSpec, VirtualEnvSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn roundtrip<T: serde::Serialize + serde::de::DeserializeOwned>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn physical_topology_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(1);
    for topo in [ClusterSpec::paper_torus(), ClusterSpec::paper_switched()] {
        let phys = ClusterSpec::paper().build(topo, &mut rng);
        let back: PhysicalTopology = roundtrip(&phys);
        assert_eq!(back.host_count(), phys.host_count());
        assert_eq!(back.graph().node_count(), phys.graph().node_count());
        assert_eq!(back.graph().edge_count(), phys.graph().edge_count());
        for (&a, &b) in phys.hosts().iter().zip(back.hosts()) {
            assert_eq!(a, b);
            assert_eq!(phys.host_spec(a), back.host_spec(b));
        }
        for e in phys.graph().edge_ids() {
            assert_eq!(phys.link(e), back.link(e));
            assert_eq!(phys.graph().endpoints(e), back.graph().endpoints(e));
        }
        assert_eq!(phys.vmm_overhead(), back.vmm_overhead());
    }
}

#[test]
fn virtual_environment_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(2);
    let venv = VirtualEnvSpec::high_level(60, 0.05).generate(&mut rng);
    let back: VirtualEnvironment = roundtrip(&venv);
    assert_eq!(back.guest_count(), venv.guest_count());
    assert_eq!(back.link_count(), venv.link_count());
    for g in venv.guest_ids() {
        assert_eq!(venv.guest(g), back.guest(g));
    }
    for l in venv.link_ids() {
        assert_eq!(venv.link(l), back.link(l));
        assert_eq!(venv.link_endpoints(l), back.link_endpoints(l));
    }
}

#[test]
fn a_hosts_list_that_differs_from_the_host_nodes_does_not_load() {
    let mut rng = SmallRng::seed_from_u64(4);
    let phys = ClusterSpec::paper().build(ClusterSpec::paper_switched(), &mut rng);
    let json = serde_json::to_string(&phys).unwrap();
    let hosts: Vec<usize> = phys.hosts().iter().map(|h| h.index()).collect();
    let switch = phys.graph().node_count() - 1;
    assert!(!phys.is_host(emumap_graph::NodeId::from_index(switch)));
    let listed = |ids: &[usize]| format!("\"hosts\":{}", serde_json::to_string(ids).unwrap());
    for bad in [
        &[&[999], &hosts[1..]].concat(),
        &[&hosts[..], &[switch]].concat(),
        &hosts[1..],
    ] {
        let edited = json.replace(&listed(&hosts), &listed(bad));
        let err = serde_json::from_str::<PhysicalTopology>(&edited).unwrap_err();
        assert!(err.to_string().contains("PhysicalTopology.hosts"), "{err}");
    }
}

#[test]
fn mapping_roundtrips_including_intra_host_routes() {
    let mut rng = SmallRng::seed_from_u64(3);
    let phys = ClusterSpec::paper().build(ClusterSpec::paper_torus(), &mut rng);
    let e: Vec<_> = phys.graph().edge_ids().collect();
    let mapping = Mapping::new(
        vec![phys.hosts()[0], phys.hosts()[1], phys.hosts()[0]],
        vec![Route::intra_host(), Route::new(vec![e[0], e[1]])],
    );
    let back: Mapping = roundtrip(&mapping);
    assert_eq!(back, mapping);
    assert!(back
        .route_of(emumap_graph::EdgeId::from_index(0))
        .is_intra_host());
}

#[test]
fn infinite_bandwidth_survives_json() {
    // serde_json serializes non-finite f64 as null; make the behaviour
    // explicit so the CLI contract is known: Kbps(INFINITY) must not
    // silently become a finite number.
    let spec = LinkSpec::new(Kbps::INFINITE, Millis(0.0));
    let json = serde_json::to_string(&spec).expect("serialize");
    let back: Result<LinkSpec, _> = serde_json::from_str(&json);
    match back {
        Ok(spec) => assert!(!spec.bw.is_finite(), "json was {json}"),
        Err(_) => assert!(json.contains("null"), "json was {json}"),
    }
}

proptest! {
    #[test]
    fn specs_roundtrip(proc in 0.0f64..1e6, mem in 0u64..1_000_000, stor in 0.0f64..1e6,
                       bw in 0.0f64..1e9, lat in 0.0f64..1e4) {
        let h = HostSpec::new(Mips(proc), MemMb(mem), StorGb(stor));
        prop_assert_eq!(roundtrip(&h), h);
        let g = GuestSpec::new(Mips(proc), MemMb(mem), StorGb(stor));
        prop_assert_eq!(roundtrip(&g), g);
        let l = LinkSpec::new(Kbps(bw), Millis(lat));
        prop_assert_eq!(roundtrip(&l), l);
        let v = VLinkSpec::new(Kbps(bw), Millis(lat));
        prop_assert_eq!(roundtrip(&v), v);
        let o = VmmOverhead { proc: Mips(proc), mem: MemMb(mem), stor: StorGb(stor) };
        prop_assert_eq!(roundtrip(&o), o);
    }
}
