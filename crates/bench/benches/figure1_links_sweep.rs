//! Criterion counterpart of Figure 1: HMN mapping time as the number of
//! virtual links grows (low-level workload, torus cluster).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emumap_bench::runner::{run_one, MapperKind};
use emumap_core::MapCache;
use emumap_workloads::{instantiate, ClusterSpec, Scenario, WorkloadKind};

fn bench_links_sweep(c: &mut Criterion) {
    let cluster = ClusterSpec::paper();
    let mut group = c.benchmark_group("figure1_hmn_vs_links");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for ratio in [7.5, 20.0, 30.0] {
        let workload = if ratio >= 20.0 {
            WorkloadKind::LowLevel
        } else {
            WorkloadKind::HighLevel
        };
        let density = if ratio >= 20.0 { 0.01 } else { 0.02 };
        let scenario = Scenario {
            ratio,
            density,
            workload,
        };
        let inst = instantiate(&cluster, ClusterSpec::paper_torus(), &scenario, 0, 2009);
        let links = inst.venv.link_count();
        group.throughput(Throughput::Elements(links as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{links}_links")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    run_one(
                        &inst.phys,
                        &inst.venv,
                        MapperKind::HMN,
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
    group.finish();
}

criterion_group!(benches, bench_links_sweep);
criterion_main!(benches);
