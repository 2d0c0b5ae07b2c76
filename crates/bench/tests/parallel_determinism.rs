//! Regression suite for the parallel trial engine's core guarantee:
//! fanning trials across worker threads — each with its own warm
//! `MapCache` — produces **bit-identical** outcomes to a sequential run
//! with fresh caches, for every heuristic and any thread count.
//!
//! This is what licenses `run_grid`/`figure1`/`batch` to parallelize at
//! all: each trial is a pure function of its seeds, and the per-worker
//! caches are semantically invisible.

use emumap_bench::runner::MapperKind;
use emumap_core::parallel::ParallelRunner;
use emumap_core::MapCache;
use emumap_model::{Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_workloads::{instantiate_both, ClusterSpec, Scenario, WorkloadKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// (mapping, objective bits) of one trial, or None if the mapper failed.
type Outcome = Option<(Mapping, u64)>;

fn one_trial(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    kind: MapperKind,
    seed: u64,
    cache: &mut MapCache,
) -> Outcome {
    let mapper = kind.build(50);
    let mut rng = SmallRng::seed_from_u64(seed);
    mapper
        .map_with_cache(phys, venv, &mut rng, cache)
        .ok()
        .map(|o| (o.mapping, o.objective.to_bits()))
}

#[test]
fn parallel_trials_match_sequential_for_all_heuristics() {
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 2.5,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };

    // A batch of trials across both clusters, several reps, all four
    // heuristics — enough to exercise cross-trial cache reuse on shared
    // topologies and cache invalidation when the topology switches.
    let mut trials: Vec<(u32, usize, MapperKind)> = Vec::new();
    for rep in 0..3u32 {
        for c in 0..2usize {
            for kind in MapperKind::ALL {
                trials.push((rep, c, kind));
            }
        }
    }

    let run_trial = |&(rep, c, kind): &(u32, usize, MapperKind), cache: &mut MapCache| {
        let (torus, switched) = instantiate_both(&cluster, &scenario, rep, 2009);
        let inst = if c == 0 { &torus } else { &switched };
        let seed = inst.mapper_seed ^ ((kind.index() as u64) << 56);
        one_trial(&inst.phys, &inst.venv, kind, seed, cache)
    };

    // Reference: strictly sequential, a fresh cold cache per trial.
    let sequential: Vec<Outcome> = trials
        .iter()
        .map(|t| run_trial(t, &mut MapCache::new()))
        .collect();
    assert!(
        sequential.iter().any(Option::is_some),
        "scenario too hard: no trial succeeded, the comparison is vacuous"
    );

    // Same trials through the pool at several thread counts; each worker
    // keeps one warm cache across every trial it picks up.
    for threads in [1, 2, 4] {
        let parallel =
            ParallelRunner::new(threads).run(trials.clone(), |t, cache| run_trial(&t, cache));
        assert_eq!(
            sequential, parallel,
            "outcomes diverged at {threads} threads"
        );
    }
}

#[test]
fn rounding_mapper_is_deterministic_warm_cold_and_across_threads() {
    // RR samples its placement from a fractional LP solution with the
    // trial's seeded RNG and keeps its solver scratch in the cache, so it
    // gets the same pinned-seed guarantee checks as the paper's four:
    // bit-identical outcomes warm vs. cold and at 1/4/8 threads.
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 2.5,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };
    let kind = MapperKind::RR;
    let mut trials: Vec<(u32, usize)> = Vec::new();
    for rep in 0..2u32 {
        for c in 0..2usize {
            trials.push((rep, c));
        }
    }
    let run_trial = |&(rep, c): &(u32, usize), cache: &mut MapCache| {
        let (torus, switched) = instantiate_both(&cluster, &scenario, rep, 2009);
        let inst = if c == 0 { &torus } else { &switched };
        let seed = inst.mapper_seed ^ ((kind.index() as u64) << 56);
        one_trial(&inst.phys, &inst.venv, kind, seed, cache)
    };

    let sequential: Vec<Outcome> = trials
        .iter()
        .map(|t| run_trial(t, &mut MapCache::new()))
        .collect();
    assert!(
        sequential.iter().any(Option::is_some),
        "RR failed every trial; the determinism comparison is vacuous"
    );
    for threads in [1, 4, 8] {
        let parallel =
            ParallelRunner::new(threads).run(trials.clone(), |t, cache| run_trial(&t, cache));
        assert_eq!(sequential, parallel, "RR diverged at {threads} threads");
    }
    // One warm cache serving every trial twice over must reproduce the
    // cold-cache reference exactly.
    let mut warm = MapCache::new();
    for t in &trials {
        run_trial(t, &mut warm);
    }
    let rewarmed: Vec<Outcome> = trials.iter().map(|t| run_trial(t, &mut warm)).collect();
    assert_eq!(sequential, rewarmed, "warm scratch changed RR outcomes");
}

#[test]
fn warm_cache_is_invisible_within_one_worker() {
    // The single-worker case isolates cache reuse from scheduling: one
    // warm cache serving every trial back-to-back must reproduce the
    // fresh-cache-per-trial reference exactly.
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 5.0,
        density: 0.015,
        workload: WorkloadKind::HighLevel,
    };
    let (torus, _) = instantiate_both(&cluster, &scenario, 0, 2009);

    let mut warm = MapCache::new();
    for kind in MapperKind::ALL {
        for round in 0..2 {
            let fresh = one_trial(
                &torus.phys,
                &torus.venv,
                kind,
                torus.mapper_seed,
                &mut MapCache::new(),
            );
            let reused = one_trial(&torus.phys, &torus.venv, kind, torus.mapper_seed, &mut warm);
            assert_eq!(fresh, reused, "{:?} round {round}", kind);
        }
    }
}
