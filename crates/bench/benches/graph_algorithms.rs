//! Micro-benchmarks of the graph substrate: Dijkstra (the `ar[]` tables
//! §5.2 blames for most of the Networking time), A*Prune itself, the naive
//! DFS router, and topology generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emumap_core::{
    astar_prune, naive_dfs_route, AStarPruneConfig, ArView, DfsScratch, RouteScratch,
};
use emumap_graph::algo::dijkstra;
use emumap_graph::generators;
use emumap_model::{
    HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, ResidualState, StorGb,
    VmmOverhead,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn paper_phys(shape: &generators::Topology) -> PhysicalTopology {
    PhysicalTopology::from_shape(
        shape,
        std::iter::repeat(HostSpec::new(
            Mips(2000.0),
            MemMb::from_gb(2),
            StorGb(2000.0),
        )),
        LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
        VmmOverhead::NONE,
    )
}

fn bench_graph_algorithms(c: &mut Criterion) {
    let shapes: Vec<(&str, generators::Topology)> = vec![
        ("torus5x8", generators::torus2d(5, 8)),
        ("switched40", generators::switched_cascade(40, 64)),
        ("fat_tree_k4", generators::fat_tree(4)),
    ];

    let mut group = c.benchmark_group("graph_algorithms");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (name, shape) in &shapes {
        let phys = paper_phys(shape);
        let residual = ResidualState::new(&phys);
        let src = phys.hosts()[0];
        let dst = *phys.hosts().last().unwrap();
        let csr = phys.graph().to_csr();

        group.bench_with_input(
            BenchmarkId::new("dijkstra_latency", name),
            &phys,
            |b, phys| {
                b.iter(|| {
                    dijkstra(phys.graph(), &csr, dst, |_, l| l.lat.value())
                        .distances()
                        .len()
                })
            },
        );

        let ar: Vec<f64> = dijkstra(phys.graph(), &csr, dst, |_, l| l.lat.value()).into_distances();
        group.bench_with_input(BenchmarkId::new("astar_prune", name), &phys, |b, phys| {
            let mut scratch = RouteScratch::new();
            b.iter(|| {
                astar_prune(
                    phys,
                    &residual,
                    src,
                    dst,
                    Kbps(100.0),
                    Millis(60.0),
                    ArView::new(&ar, dst),
                    &AStarPruneConfig::default(),
                    &csr,
                    &mut scratch,
                )
                .expect("path exists")
                .0
                .len()
            })
        });

        let hops: Vec<f64> = dijkstra(phys.graph(), &csr, dst, |_, _| 1.0).into_distances();
        group.bench_with_input(BenchmarkId::new("naive_dfs", name), &phys, |b, phys| {
            let mut rng = SmallRng::seed_from_u64(1);
            let mut scratch = DfsScratch::new();
            b.iter(|| {
                naive_dfs_route(
                    phys,
                    &csr,
                    &residual,
                    src,
                    dst,
                    Kbps(100.0),
                    Millis(1e9),
                    ArView::new(&hops, dst),
                    &mut rng,
                    &mut scratch,
                )
                .expect("path exists at relaxed latency")
                .len()
            })
        });
    }

    group.bench_function("generate_random_connected_2000_d0.01", |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        b.iter(|| generators::random_connected(2000, 0.01, &mut rng).edge_count())
    });
    group.finish();
}

criterion_group!(benches, bench_graph_algorithms);
criterion_main!(benches);
