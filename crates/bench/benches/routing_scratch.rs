//! Micro-benchmark for the allocation-free routing hot paths: the same
//! A*Prune queries with a CSR view and scratch buffers built fresh per
//! call vs. one shared CSR and a warm `RouteScratch`, plus the end-to-end
//! HMN map with a cold vs. warm `MapCache` (cross-trial `ar[]` table
//! reuse).
//!
//! Uses a hand-written `main` instead of `criterion_main!` so the sample
//! summaries stay readable afterwards and can be written to
//! `results/BENCH_routing.json` via `report::write_bench_json`.

use criterion::{BenchmarkId, Criterion};
use emumap_bench::report::{write_bench_json, BenchEntry, PhaseBreakdown};
use emumap_core::parallel::ParallelRunner;
use emumap_core::{
    astar_prune, AStarPruneConfig, ArTables, ArView, Hmn, MapCache, Mapper, RouteScratch,
};
use emumap_model::{Kbps, Millis, ResidualState};
use emumap_trace::{NullSink, Tracer};
use emumap_workloads::{instantiate, ClusterSpec, Scenario, WorkloadKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_routing_scratch(c: &mut Criterion) {
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 5.0,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };
    let inst = instantiate(&cluster, ClusterSpec::paper_torus(), &scenario, 0, 2009);
    let phys = &inst.phys;
    let residual = ResidualState::new(phys);
    let hosts = phys.hosts().to_vec();

    // A fixed batch of host-pair queries at several strides around the
    // torus, so path lengths vary. Both variants share the same `ar[]`
    // tables (table reuse is what the end-to-end pair measures); this
    // pair isolates the per-search allocation cost.
    let mut tables = ArTables::new();
    tables.prepare(phys);
    let mut queries: Vec<(usize, usize)> = Vec::new();
    for stride in [1usize, 3, 7, 13] {
        for i in 0..hosts.len() {
            queries.push((i, (i + stride) % hosts.len()));
        }
    }
    let ar: Vec<Vec<f64>> = hosts
        .iter()
        .map(|&h| {
            let (view, csr) = tables.ar_and_csr(phys, h);
            (0..csr.node_count()).map(|v| view[v]).collect()
        })
        .collect();
    let config = AStarPruneConfig::default();
    let demand = Kbps::from_mbps(1.0);
    let bound = Millis(1_000.0);

    let mut group = c.benchmark_group("routing_scratch");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_with_input(
        BenchmarkId::from_parameter("astar_fresh_alloc"),
        &queries,
        |b, queries| {
            b.iter(|| {
                let mut routed = 0usize;
                for &(i, j) in queries {
                    let found = astar_prune(
                        phys,
                        &residual,
                        hosts[i],
                        hosts[j],
                        demand,
                        bound,
                        ArView::new(&ar[j], hosts[j]),
                        &config,
                        &phys.graph().to_csr(),
                        &mut RouteScratch::new(),
                    );
                    routed += usize::from(found.is_some());
                }
                routed
            })
        },
    );

    let csr = phys.graph().to_csr();
    let mut scratch = RouteScratch::new();
    group.bench_with_input(
        BenchmarkId::from_parameter("astar_reused_scratch"),
        &queries,
        |b, queries| {
            b.iter(|| {
                let mut routed = 0usize;
                for &(i, j) in queries {
                    let found = astar_prune(
                        phys,
                        &residual,
                        hosts[i],
                        hosts[j],
                        demand,
                        bound,
                        ArView::new(&ar[j], hosts[j]),
                        &config,
                        &csr,
                        &mut scratch,
                    );
                    routed += usize::from(found.is_some());
                }
                routed
            })
        },
    );

    // End-to-end HMN trial: cold cache per map vs. one warm cache, the
    // shape the parallel trial engine runs per worker.
    let mapper = Hmn::new();
    group.bench_with_input(
        BenchmarkId::from_parameter("hmn_map_cold_cache"),
        &inst,
        |b, inst| {
            b.iter(|| {
                let mut rng = SmallRng::seed_from_u64(1);
                let mut cache = MapCache::new();
                mapper
                    .map_with_cache(&inst.phys, &inst.venv, &mut rng, &mut cache)
                    .map(|o| o.objective)
                    .ok()
            })
        },
    );

    let mut warm = MapCache::new();
    let mut rng = SmallRng::seed_from_u64(1);
    let _ = mapper.map_with_cache(&inst.phys, &inst.venv, &mut rng, &mut warm);
    group.bench_with_input(
        BenchmarkId::from_parameter("hmn_map_warm_cache"),
        &inst,
        |b, inst| {
            b.iter(|| {
                let mut rng = SmallRng::seed_from_u64(1);
                mapper
                    .map_with_cache(&inst.phys, &inst.venv, &mut rng, &mut warm)
                    .map(|o| o.objective)
                    .ok()
            })
        },
    );

    // Same warm map with an enabled tracer discarding into a NullSink:
    // the worst-case tracing tax (every event payload is constructed and
    // immediately dropped). Compare against `hmn_map_warm_cache`, whose
    // disabled tracer never even builds the events.
    let mut warm_null = MapCache::new();
    warm_null.trace = Tracer::new(Box::new(NullSink));
    let mut rng = SmallRng::seed_from_u64(1);
    let _ = mapper.map_with_cache(&inst.phys, &inst.venv, &mut rng, &mut warm_null);
    group.bench_with_input(
        BenchmarkId::from_parameter("hmn_map_warm_null_sink"),
        &inst,
        |b, inst| {
            b.iter(|| {
                let mut rng = SmallRng::seed_from_u64(1);
                mapper
                    .map_with_cache(&inst.phys, &inst.venv, &mut rng, &mut warm_null)
                    .map(|o| o.objective)
                    .ok()
            })
        },
    );

    group.finish();
}

/// Runs a small HMN trial batch through the phase-tracking runner and
/// summarizes it as one entry with a per-phase time breakdown.
fn phase_breakdown_entry() -> BenchEntry {
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 5.0,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };
    let inst = instantiate(&cluster, ClusterSpec::paper_torus(), &scenario, 0, 2009);
    let mapper = Hmn::new();
    let trials: Vec<u64> = (0..8).collect();
    let n = trials.len();
    let runner = ParallelRunner::new(0);
    let (times, totals) = runner.run_tracked(trials, |seed, cache| {
        let mut rng = SmallRng::seed_from_u64(seed);
        mapper
            .map_with_cache(&inst.phys, &inst.venv, &mut rng, cache)
            .map(|o| o.stats.total_time.as_secs_f64())
            .unwrap_or(0.0)
    });
    BenchEntry {
        name: "routing_scratch/hmn_phase_breakdown".to_string(),
        mean_s: times.iter().sum::<f64>() / n as f64,
        min_s: times.iter().copied().fold(f64::INFINITY, f64::min),
        samples: n,
        phases: Some(PhaseBreakdown {
            hosting_s: totals.hosting_s() / n as f64,
            migration_s: totals.migration_s() / n as f64,
            networking_s: totals.networking_s() / n as f64,
        }),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_routing_scratch(&mut criterion);

    let mut entries: Vec<BenchEntry> = criterion
        .results()
        .iter()
        .map(|(name, summary)| BenchEntry {
            name: name.clone(),
            mean_s: summary.mean_s(),
            min_s: summary.min_s(),
            samples: summary.samples.len(),
            phases: None,
        })
        .collect();
    entries.push(phase_breakdown_entry());
    write_bench_json("results/BENCH_routing.json", &entries)
        .expect("write results/BENCH_routing.json");
    eprintln!("[routing_scratch] summaries -> results/BENCH_routing.json");
    for e in &entries {
        eprintln!(
            "[routing_scratch] {}: mean {:.6}s min {:.6}s (n={})",
            e.name, e.mean_s, e.min_s, e.samples
        );
        if let Some(p) = &e.phases {
            eprintln!(
                "[routing_scratch]   phases: hosting {:.6}s, migration {:.6}s, networking {:.6}s",
                p.hosting_s, p.migration_s, p.networking_s
            );
        }
    }
}
