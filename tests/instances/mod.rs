//! The random instances the property suites share, each a pure function
//! of its inputs.

use emumap::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A uniform cluster in one of three shapes and a random virtual
/// environment.
pub fn build_instance(
    hosts: usize,
    topo: usize,
    guests: usize,
    density: f64,
    seed: u64,
) -> (PhysicalTopology, VirtualEnvironment, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = match topo {
        0 => generators::ring(hosts),
        1 => generators::line(hosts),
        _ => generators::switched_cascade(hosts, 8),
    };
    let phys = PhysicalTopology::from_shape(
        &shape,
        std::iter::repeat(HostSpec::new(
            Mips(2000.0),
            MemMb::from_gb(2),
            StorGb(2000.0),
        )),
        LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
        VmmOverhead::NONE,
    );
    let spec = VirtualEnvSpec {
        guests,
        density,
        mem_mb: Range::new(64.0, 256.0),
        stor_gb: Range::new(10.0, 50.0),
        cpu_mips: Range::new(20.0, 100.0),
        bw_kbps: Range::new(50.0, 500.0),
        lat_ms: Range::new(20.0, 80.0),
        distribution: Distribution::Uniform,
    };
    let venv = spec.generate(&mut rng);
    (phys, venv, seed)
}

/// A random small instance: cluster shape, host resources, guest count,
/// densityish links.
pub fn arb_instance() -> impl Strategy<Value = (PhysicalTopology, VirtualEnvironment, u64)> {
    (
        2usize..10,   // hosts
        0usize..3,    // topology selector
        1usize..30,   // guests
        0.0f64..0.4,  // density
        any::<u64>(), // seed
    )
        .prop_map(|(hosts, topo, guests, density, seed)| {
            build_instance(hosts, topo, guests, density, seed)
        })
}
