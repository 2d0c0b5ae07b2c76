//! Criterion counterpart of Table 3: mapping time per heuristic on both
//! clusters, at a criterion-friendly instance size (2.5:1, density 0.02 —
//! the first table row).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emumap_bench::runner::{run_one, MapperKind};
use emumap_core::MapCache;
use emumap_workloads::{instantiate, ClusterSpec, ClusterTopology, Scenario, WorkloadKind};

fn bench_mapping_time(c: &mut Criterion) {
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 2.5,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };
    let topologies: [(&str, ClusterTopology); 2] = [
        ("torus", ClusterSpec::paper_torus()),
        ("switched", ClusterSpec::paper_switched()),
    ];

    let mut group = c.benchmark_group("table3_mapping_time");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (topo_name, topo) in topologies {
        let inst = instantiate(&cluster, topo, &scenario, 0, 2009);
        for kind in MapperKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(kind.label(), topo_name),
                &inst,
                |b, inst| {
                    b.iter(|| {
                        // The retrying baselines may legitimately fail on a
                        // given draw (Table 2's failure counts); time the
                        // attempt either way.
                        run_one(
                            &inst.phys,
                            &inst.venv,
                            kind,
                            inst.mapper_seed,
                            200,
                            false,
                            &mut MapCache::new(),
                        )
                        .map(|m| m.routed_links)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mapping_time);
criterion_main!(benches);
