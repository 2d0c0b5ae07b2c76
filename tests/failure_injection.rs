//! Failure-path tests: undersized or hostile inputs must produce typed
//! errors, never panics or invalid mappings.

use emumap::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn small_phys(hosts: usize, mem: u64, bw: f64, lat: f64) -> PhysicalTopology {
    PhysicalTopology::from_shape(
        &generators::ring(hosts.max(1)),
        std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(mem), StorGb(100.0))),
        LinkSpec::new(Kbps(bw), Millis(lat)),
        VmmOverhead::NONE,
    )
}

fn pair_venv(mem: u64, bw: f64, lat: f64) -> VirtualEnvironment {
    let mut v = VirtualEnvironment::new();
    let a = v.add_guest(GuestSpec::new(Mips(10.0), MemMb(mem), StorGb(1.0)));
    let b = v.add_guest(GuestSpec::new(Mips(10.0), MemMb(mem), StorGb(1.0)));
    v.add_link(a, b, VLinkSpec::new(Kbps(bw), Millis(lat)));
    v
}

fn all_mappers() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(Hmn::new()),
        Box::new(RandomDfs { max_attempts: 10 }),
        Box::new(RandomAStar { max_attempts: 10 }),
        Box::new(HostingDfs { max_attempts: 10 }),
        Box::new(ConsolidatingHmn),
    ]
}

#[test]
fn oversized_guests_fail_every_mapper_cleanly() {
    let phys = small_phys(4, 100, 1000.0, 5.0);
    let venv = pair_venv(500, 1.0, 100.0); // 500 MB guests on 100 MB hosts
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(1);
        let err = mapper
            .map(&phys, &venv, &mut rng)
            .err()
            .unwrap_or_else(|| panic!("{} should have failed", mapper.name()));
        assert!(
            matches!(
                err,
                MapError::HostingFailed { .. } | MapError::RetriesExhausted { .. }
            ),
            "{}: unexpected error {err}",
            mapper.name()
        );
    }
}

#[test]
fn unroutable_bandwidth_fails_every_mapper_cleanly() {
    // Guests cannot co-locate (memory) and the only links are too narrow.
    let phys = small_phys(4, 120, 10.0, 5.0);
    let venv = pair_venv(100, 500.0, 100.0);
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(2);
        let err = mapper
            .map(&phys, &venv, &mut rng)
            .err()
            .unwrap_or_else(|| panic!("{} should have failed", mapper.name()));
        assert!(
            matches!(
                err,
                MapError::NetworkingFailed { .. } | MapError::RetriesExhausted { .. }
            ),
            "{}: unexpected error {err}",
            mapper.name()
        );
    }
}

#[test]
fn impossible_latency_fails_cleanly() {
    // Latency bound below a single physical hop.
    let phys = small_phys(4, 120, 1000.0, 5.0);
    let venv = pair_venv(100, 1.0, 4.0);
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(
            mapper.map(&phys, &venv, &mut rng).is_err(),
            "{} should fail: no route can satisfy a 4 ms bound over 5 ms hops",
            mapper.name()
        );
    }
}

#[test]
fn empty_virtual_environment_maps_trivially() {
    let phys = small_phys(3, 1024, 1000.0, 5.0);
    let venv = VirtualEnvironment::new();
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(4);
        let out = mapper
            .map(&phys, &venv, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed on empty venv: {e}", mapper.name()));
        assert_eq!(out.mapping.guest_count(), 0);
        assert_eq!(validate_mapping(&phys, &venv, &out.mapping), Ok(()));
    }
}

#[test]
fn single_host_cluster_forces_colocation() {
    let phys = small_phys(1, 4096, 1000.0, 5.0);
    let venv = pair_venv(100, 1e9, 0.0); // impossible demands if routed
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(5);
        let out = mapper
            .map(&phys, &venv, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed: {e}", mapper.name()));
        // Both guests share the only host; the absurd link demands are
        // absorbed intra-host (Eq. bw(c,c) = infinity).
        assert_eq!(out.mapping.hosts_used(), 1);
        assert_eq!(validate_mapping(&phys, &venv, &out.mapping), Ok(()));
    }
}

#[test]
fn vmm_overhead_shrinks_usable_capacity() {
    // With overhead eating most memory, a guest that fits the raw spec no
    // longer fits the effective capacity.
    let shape = generators::ring(3);
    let vmm = VmmOverhead {
        proc: Mips(100.0),
        mem: MemMb(900),
        stor: StorGb(0.0),
    };
    let phys = PhysicalTopology::from_shape(
        &shape,
        std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
        LinkSpec::new(Kbps(1000.0), Millis(5.0)),
        vmm,
    );
    let venv = pair_venv(200, 1.0, 100.0); // 200 MB > 1024-900 effective
    let mut rng = SmallRng::seed_from_u64(6);
    assert!(Hmn::new().map(&phys, &venv, &mut rng).is_err());

    // Without the overhead the same instance maps fine.
    let phys_free = PhysicalTopology::from_shape(
        &shape,
        std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
        LinkSpec::new(Kbps(1000.0), Millis(5.0)),
        VmmOverhead::NONE,
    );
    let mut rng = SmallRng::seed_from_u64(6);
    assert!(Hmn::new().map(&phys_free, &venv, &mut rng).is_ok());
}

#[test]
fn guests_never_land_on_switches() {
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 10.0,
        density: 0.015,
        workload: WorkloadKind::HighLevel,
    };
    let inst = instantiate(&cluster, ClusterSpec::paper_switched(), &scenario, 0, 7);
    let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
    if let Ok(out) = Hmn::new().map(&inst.phys, &inst.venv, &mut rng) {
        for &host in out.mapping.placement() {
            assert!(inst.phys.is_host(host));
        }
    }
}
