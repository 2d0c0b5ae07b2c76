//! Extension bench: HMN against the classical bin-packing placements
//! (first-fit-decreasing, best-fit, worst-fit — all routed with A*Prune),
//! quantifying what Hosting's network affinity + Migration's balancing buy
//! over textbook placement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emumap_core::{BestFit, FirstFitDecreasing, Hmn, Mapper, WorstFit};
use emumap_workloads::{instantiate, ClusterSpec, Scenario, WorkloadKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_placement_strategies(c: &mut Criterion) {
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 5.0,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };
    let inst = instantiate(&cluster, ClusterSpec::paper_torus(), &scenario, 0, 2009);

    let mappers: Vec<(&str, Box<dyn Mapper>)> = vec![
        ("hmn", Box::new(Hmn::new())),
        ("ffd", Box::new(FirstFitDecreasing)),
        ("best_fit", Box::new(BestFit)),
        ("worst_fit", Box::new(WorstFit)),
    ];

    // One-shot quality report: objective, hosts used, intra-host links.
    for (name, mapper) in &mappers {
        let mut rng = SmallRng::seed_from_u64(1);
        match mapper.map(&inst.phys, &inst.venv, &mut rng) {
            Ok(out) => eprintln!(
                "[placement_strategies] {name}: objective {:.1}, hosts {}, intra-host links {}",
                out.objective,
                out.mapping.hosts_used(),
                out.stats.intra_host_links
            ),
            Err(e) => eprintln!("[placement_strategies] {name}: FAILED ({e})"),
        }
    }

    let mut group = c.benchmark_group("placement_strategies");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (name, mapper) in &mappers {
        group.bench_with_input(BenchmarkId::from_parameter(*name), &inst, |b, inst| {
            b.iter(|| {
                let mut rng = SmallRng::seed_from_u64(1);
                mapper
                    .map(&inst.phys, &inst.venv, &mut rng)
                    .map(|o| o.objective)
                    .ok()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_placement_strategies);
criterion_main!(benches);
