//! Per-stage costs of HMN (§5.2 observes the Networking stage dominates):
//! Hosting, Migration, and Networking benchmarked in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use emumap_core::hosting::{hosting_stage, links_by_descending_bw, HostingPolicy};
use emumap_core::migration::migration_stage;
use emumap_core::networking::networking_stage;
use emumap_core::{MapCache, PlacementState};
use emumap_workloads::{instantiate, ClusterSpec, Scenario, WorkloadKind};

fn bench_stages(c: &mut Criterion) {
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 5.0,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };
    let inst = instantiate(&cluster, ClusterSpec::paper_torus(), &scenario, 0, 2009);
    let links = links_by_descending_bw(&inst.venv);

    let mut group = c.benchmark_group("hmn_stages");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("hosting", |b| {
        b.iter(|| {
            let mut st = PlacementState::new(&inst.phys, &inst.venv);
            hosting_stage(&mut st, &links, HostingPolicy::Paper).expect("hostable");
            st.assigned_count()
        })
    });

    group.bench_function("migration", |b| {
        // Set up a hosted state once per iteration batch; migration itself
        // is what we time, but it needs a fresh pre-state each run.
        b.iter_with_setup(
            || {
                let mut st = PlacementState::new(&inst.phys, &inst.venv);
                hosting_stage(&mut st, &links, HostingPolicy::Paper).expect("hostable");
                st
            },
            |mut st| migration_stage(&mut st).migrations,
        )
    });

    group.bench_function("networking", |b| {
        b.iter_with_setup(
            || {
                let mut st = PlacementState::new(&inst.phys, &inst.venv);
                hosting_stage(&mut st, &links, HostingPolicy::Paper).expect("hostable");
                migration_stage(&mut st);
                st
            },
            |mut st| {
                networking_stage(&mut st, &links, &Default::default(), &mut MapCache::new())
                    .expect("routable")
                    .0
            },
        )
    });

    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
