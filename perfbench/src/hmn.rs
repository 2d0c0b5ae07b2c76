//! The two one-shot HMN workloads: `paper-grid` (the paper's 16 scenarios
//! on both 40-host clusters, one warm cache) and `fattree-map` (one cold
//! 2000-guest map onto an 11 664-host fat-tree).
//!
//! Every pass calls `Hmn::map_with_cache`. A traced pass reads the stage
//! timings and counters the call already returns in `MapStats`.

use crate::measure::{ratio, Digest, Layers, Run};
use emumap_core::{ArTables, Hmn, HmnConfig, MapCache, MapError, MapOutcome, MapStats, Mapper};
use emumap_graph::generators;
use emumap_model::{
    validate_mapping, HostSpec, Kbps, LinkSpec, Mapping, MemMb, Millis, Mips, PhysicalTopology,
    StorGb, VirtualEnvironment, VmmOverhead,
};
use emumap_workloads::{instantiate_both, paper_scenarios, ClusterSpec, VirtualEnvSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the 16-scenario grid per pass (each on both clusters).
const GRID_REPS: u32 = 6;

/// One map to perform.
struct Job {
    phys: PhysicalTopology,
    venv: VirtualEnvironment,
    mapper_seed: u64,
}

pub struct MapWorkload {
    jobs: Vec<Job>,
    /// The set-up a pass depends on: building every cluster it maps onto.
    clusters: Box<dyn Fn() -> Vec<PhysicalTopology>>,
    /// Consecutive jobs timed as one operation: for the grid, one
    /// repetition (every scenario on both clusters, as `batch --reps 1`).
    /// Single maps of the grid would make the latency quantiles jump
    /// between scenarios of very different cost.
    op_size: usize,
    config: HmnConfig,
    /// `true`: one cache for the whole run, as `batch` keeps per worker.
    /// `false`: every pass starts cold, as a one-shot `emumap map` does.
    warm: bool,
}

/// `paper-grid`: the Table-1 scenarios, `GRID_REPS` draws each, on both
/// 40-host clusters, with the paper's HMN configuration.
pub fn paper_grid(seed: u64) -> MapWorkload {
    let cluster = ClusterSpec::paper();
    let scenarios = paper_scenarios();
    let mut jobs = Vec::new();
    for rep in 0..GRID_REPS {
        for scenario in &scenarios {
            let (torus, switched) = instantiate_both(&cluster, scenario, rep, seed);
            for inst in [torus, switched] {
                jobs.push(Job {
                    phys: inst.phys,
                    venv: inst.venv,
                    mapper_seed: inst.mapper_seed,
                });
            }
        }
    }
    let host_sets: Vec<Vec<HostSpec>> = jobs
        .iter()
        .step_by(2)
        .map(|j| {
            j.phys
                .hosts()
                .iter()
                .map(|&h| *j.phys.host_spec(h))
                .collect()
        })
        .collect();
    let clusters = move || {
        host_sets
            .iter()
            .flat_map(|hosts| {
                [
                    cluster.build_with_hosts(ClusterSpec::paper_torus(), hosts),
                    cluster.build_with_hosts(ClusterSpec::paper_switched(), hosts),
                ]
            })
            .collect()
    };
    MapWorkload {
        clusters: Box::new(clusters),
        op_size: jobs.len() / GRID_REPS as usize,
        jobs,
        config: HmnConfig::default(),
        warm: true,
    }
}

fn fat_tree_36() -> PhysicalTopology {
    PhysicalTopology::from_shape(
        &generators::fat_tree(36),
        std::iter::repeat(HostSpec::new(
            Mips(8000.0),
            MemMb::from_gb(8),
            StorGb(4000.0),
        )),
        // 5 ms per hop keeps the 6-hop worst case inside Table 1's 30 ms
        // latency floor.
        LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
        VmmOverhead::NONE,
    )
}

/// `fattree-map`: one 2000-guest Table-1 low-level environment onto
/// `fat_tree(36)`, with dominance pruning (the unpruned search does not
/// finish on fat-trees).
pub fn fattree_map(seed: u64) -> MapWorkload {
    let venv = VirtualEnvSpec::low_level(2000, 0.002).generate(&mut SmallRng::seed_from_u64(seed));
    MapWorkload {
        clusters: Box::new(|| vec![fat_tree_36()]),
        jobs: vec![Job {
            phys: fat_tree_36(),
            venv,
            mapper_seed: seed,
        }],
        op_size: 1,
        config: HmnConfig {
            prune_dominated: true,
            ..HmnConfig::default()
        },
        warm: false,
    }
}

impl MapWorkload {
    /// Times the set-up a pass depends on.
    pub fn setup(&self, run: &mut Run) {
        run.time_setup(&self.clusters);
    }

    /// One pass through `Hmn::map_with_cache`: every job timed, results
    /// checked and digested after the pass. A traced pass also folds the
    /// `MapStats` each map returned into the layers and prices the
    /// Dijkstra runs, both after the timed maps.
    pub fn pass(&self, run: &mut Run, cache: &mut MapCache, traced: bool) {
        if !self.warm {
            *cache = MapCache::new();
        }
        let hmn = Hmn::with_config(self.config);
        let mut results = Vec::with_capacity(self.jobs.len());
        run.begin_pass(self.jobs.len());
        for op in self.jobs.chunks(self.op_size) {
            // Each map is its own piece, so the host speed can be measured
            // between the maps of an operation.
            run.begin_op();
            for job in op {
                let mut rng = SmallRng::seed_from_u64(job.mapper_seed);
                let (result, _) =
                    run.piece(|| hmn.map_with_cache(&job.phys, &job.venv, &mut rng, cache));
                results.push(result);
            }
            run.end_op();
        }
        run.end_pass();
        if traced {
            // The traced figures come from the timed pass itself, so
            // tracing costs these maps nothing.
            let pass_s = *run.raw_pass_s.last().expect("the pass just ended");
            run.layers.traced_pass_s.push(pass_s);
            run.layers.passes += 1;
            for (job, outcome) in self.jobs.iter().zip(&results) {
                if let Ok(outcome) = outcome {
                    fold_stats(&outcome.stats, &mut run.layers);
                    let built = outcome.stats.dijkstra_runs as f64;
                    let rebuilds = if built > 0.0 { 1.0 } else { 0.0 };
                    let tenant = [(&job.venv, &outcome.mapping)];
                    charge_tables(&job.phys, tenant, built, rebuilds, &mut run.layers);
                }
            }
        }
        self.check_and_digest(run, &results);
    }

    fn check_and_digest(&self, run: &mut Run, results: &[Result<MapOutcome, MapError>]) {
        let mut digest = Digest::default();
        for (job, result) in self.jobs.iter().zip(results) {
            run.attempted += 1;
            match result {
                Ok(outcome) => {
                    run.completed += 1;
                    run.succeeded += 1;
                    run.objectives.push(outcome.objective);
                    let valid = validate_mapping(&job.phys, &job.venv, &outcome.mapping);
                    run.check(valid.is_ok(), || {
                        format!("HMN mapping violates Eqs. 1-9: {valid:?}")
                    });
                    digest.mapping(&outcome.mapping);
                    digest.f64(outcome.objective);
                }
                Err(e) => digest.str(&e.to_string()),
            }
        }
        run.pass_digest(digest);
    }
}

/// Folds the stage timings and counters one successful map returned.
/// Failed maps return no stats and are not counted.
fn fold_stats(s: &MapStats, layers: &mut Layers) {
    layers.add("hosting.time_s", s.placement_time.as_secs_f64());
    layers.add("hosting.colocation_hits", s.colocation_hits as f64);
    layers.add("hosting.first_fit_fallbacks", s.first_fit_fallbacks as f64);
    layers.add("migration.time_s", s.migration_time.as_secs_f64());
    layers.add("migration.proposals", s.proposals_evaluated as f64);
    layers.add("migration.moves_accepted", s.migrations as f64);
    layers.add("migration.delta_evaluations", s.delta_evaluations as f64);
    layers.add("migration.full_evaluations", s.full_evaluations as f64);
    layers.add("networking.time_s", s.networking_time.as_secs_f64());
    layers.add("networking.routed_links", s.routed_links as f64);
    layers.add("networking.intra_host_links", s.intra_host_links as f64);
    layers.add("astar_prune.expansions", s.astar_expansions as f64);
    layers.add("astar_prune.pushed", s.astar_pushed as f64);
    layers.add("cache.dijkstra_runs", s.dijkstra_runs as f64);
    layers.add("cache.ar_hits", s.ar_cache_hits as f64);
}

/// Charges `layers` for `tables_built` Dijkstra runs and `rebuilds` cold
/// `ArTables::prepare` calls. Both are priced by timing a fresh
/// `ArTables` that prepares `phys` and builds the `ar[]` table of every
/// distinct destination host of the tenants' routed links, outside any
/// timed pass.
pub fn charge_tables<'a>(
    phys: &PhysicalTopology,
    tenants: impl IntoIterator<Item = (&'a VirtualEnvironment, &'a Mapping)>,
    tables_built: f64,
    rebuilds: f64,
    layers: &mut Layers,
) {
    let mut seen = vec![false; phys.graph().node_count()];
    let mut dests = Vec::new();
    for (venv, mapping) in tenants {
        for l in venv.link_ids() {
            if !mapping.route_of(l).is_intra_host() {
                let hd = mapping.host_of(venv.link_endpoints(l).1);
                if !std::mem::replace(&mut seen[hd.index()], true) {
                    dests.push(hd);
                }
            }
        }
    }
    let mut tables = ArTables::new();
    let t = Instant::now();
    tables.prepare(phys);
    let prepare_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for &d in &dests {
        black_box(tables.ar_and_csr(phys, d));
    }
    let per_table_s = ratio(t.elapsed().as_secs_f64(), dests.len() as f64);
    layers.add("cache.prepare_s", prepare_s * rebuilds);
    layers.add("cache.dijkstra_s", per_table_s * tables_built);
}
