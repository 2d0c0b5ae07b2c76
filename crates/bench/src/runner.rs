//! The experiment runner: executes the (scenario × cluster × mapper × rep)
//! grid of §5.2 and aggregates the results of Tables 2–3.
//!
//! Work items are independent, so the runner fans them out over a
//! crossbeam scoped-thread worker pool (sized to the machine; the grid is
//! embarrassingly parallel). Each item is a pure function of its seeds, so
//! results are identical at any thread count.

use crate::stats;
use emumap_core::parallel::ParallelRunner;
use emumap_core::{MapCache, Mapper, MapperConfig, MapperEntry};
use emumap_model::{PhysicalTopology, VirtualEnvironment};
use emumap_sim::{run_experiment, ExperimentSpec};
use emumap_workloads::{instantiate_both, ClusterSpec, Scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A handle to one mapper in the core registry — the bench harness
/// registers nothing itself; any mapper added to
/// [`emumap_core::MAPPERS`] is immediately benchable.
///
/// Serialized as the registry key (`"hmn"`, `"rr"`, …), so result files
/// stay readable and stable as the registry grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MapperKind {
    key: &'static str,
}

impl MapperKind {
    /// The paper's heuristic.
    pub const HMN: MapperKind = MapperKind { key: "hmn" };
    /// Random placement + DFS routing.
    pub const R: MapperKind = MapperKind { key: "r" };
    /// Random placement + A\*Prune routing.
    pub const RA: MapperKind = MapperKind { key: "ra" };
    /// Hosting + DFS routing.
    pub const HS: MapperKind = MapperKind { key: "hs" };
    /// The randomized-rounding LP mapper.
    pub const RR: MapperKind = MapperKind { key: "rr" };

    /// The evaluation's four heuristics, in Table 2/3 column order.
    pub const ALL: [MapperKind; 4] = [
        MapperKind::HMN,
        MapperKind::R,
        MapperKind::RA,
        MapperKind::HS,
    ];

    /// Resolves a registry key ("hmn", "rr", …); `None` when unknown.
    pub fn from_key(key: &str) -> Option<MapperKind> {
        emumap_core::find_mapper(key).map(|e| MapperKind { key: e.key })
    }

    /// Every registered mapper, in registry order.
    pub fn every() -> impl Iterator<Item = MapperKind> {
        emumap_core::MAPPERS
            .iter()
            .map(|e| MapperKind { key: e.key })
    }

    fn entry(self) -> &'static MapperEntry {
        emumap_core::find_mapper(self.key).expect("MapperKind keys come from the registry")
    }

    /// The registry key (also the CLI `--mapper` spelling).
    pub fn key(self) -> &'static str {
        self.key
    }

    /// The table column header (the mapper's report label).
    pub fn label(self) -> &'static str {
        self.entry().label
    }

    /// Stable registry position — what harnesses fold into derived seeds
    /// to keep mappers on disjoint RNG streams.
    pub fn index(self) -> usize {
        self.entry().index()
    }

    /// Instantiates the mapper with the given retry budget for the
    /// attempt-based mappers (ignored by the deterministic ones).
    pub fn build(self, max_attempts: usize) -> Box<dyn Mapper> {
        (self.entry().build)(&MapperConfig { max_attempts })
    }
}

impl Serialize for MapperKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.key.to_string())
    }
}

impl Deserialize for MapperKind {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        match value {
            serde::Value::Str(s) => MapperKind::from_key(s)
                .ok_or_else(|| serde::DeError::new(format!("unknown mapper key '{s}'"))),
            _ => Err(serde::DeError::new("MapperKind: expected a string key")),
        }
    }
}

/// Which physical arrangement a record belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cluster {
    /// The 5×8 2-D torus.
    Torus,
    /// Cascaded 64-port switches.
    Switched,
}

impl Cluster {
    /// Both clusters, in the tables' order.
    pub const BOTH: [Cluster; 2] = [Cluster::Torus, Cluster::Switched];

    /// Table header label.
    pub fn label(self) -> &'static str {
        match self {
            Cluster::Torus => "2-D Torus",
            Cluster::Switched => "Switched",
        }
    }
}

/// One successful mapping's measurements.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Measurement {
    /// The Eq. 10 objective.
    pub objective: f64,
    /// Wall-clock mapping time in seconds.
    pub map_time_s: f64,
    /// Links actually routed (Figure 1's x-axis).
    pub routed_links: usize,
    /// Networking-stage wall-clock in seconds (Figure 1's y-axis driver).
    pub networking_time_s: f64,
    /// Simulated experiment runtime in seconds, when the runner was asked
    /// to simulate (`None` otherwise).
    pub experiment_s: Option<f64>,
}

/// One grid cell's raw results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// Scenario row label ("2.5:1 0.015").
    pub scenario: String,
    /// Which cluster.
    pub cluster: Cluster,
    /// Which mapper.
    pub mapper: MapperKind,
    /// One entry per successful repetition.
    pub successes: Vec<Measurement>,
    /// Repetitions that failed to find a valid mapping.
    pub failures: usize,
}

impl CellResult {
    /// Mean objective over successes, or `None` if every rep failed (the
    /// tables print "—").
    pub fn mean_objective(&self) -> Option<f64> {
        (!self.successes.is_empty()).then(|| {
            stats::mean(
                &self
                    .successes
                    .iter()
                    .map(|m| m.objective)
                    .collect::<Vec<_>>(),
            )
        })
    }

    /// Mean mapping time over successes.
    pub fn mean_map_time(&self) -> Option<f64> {
        (!self.successes.is_empty()).then(|| {
            stats::mean(
                &self
                    .successes
                    .iter()
                    .map(|m| m.map_time_s)
                    .collect::<Vec<_>>(),
            )
        })
    }
}

/// Runner configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Repetitions per cell (paper: 30).
    pub reps: u32,
    /// Base seed for the deterministic instance derivation.
    pub seed: u64,
    /// Retry budget for the baselines (paper: 100 000; see
    /// [`emumap_core::DEFAULT_MAX_ATTEMPTS`] for the default's rationale).
    pub max_attempts: usize,
    /// Also run the emulated experiment on each successful mapping
    /// (needed by the correlation study; costs extra time).
    pub simulate: bool,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            reps: 5,
            seed: 2009,
            max_attempts: emumap_core::DEFAULT_MAX_ATTEMPTS,
            simulate: false,
            threads: 0,
        }
    }
}

/// Executes one mapper on one instance, measuring everything, with a
/// caller-owned [`MapCache`] — warm in [`ParallelRunner`] workers, fresh
/// for one-shot callers. Identical results for any cache history.
pub fn run_one(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    kind: MapperKind,
    mapper_seed: u64,
    max_attempts: usize,
    simulate: bool,
    cache: &mut MapCache,
) -> Option<Measurement> {
    let mapper = kind.build(max_attempts);
    let mut rng = SmallRng::seed_from_u64(mapper_seed);
    let start = Instant::now();
    let outcome = mapper.map_with_cache(phys, venv, &mut rng, cache).ok()?;
    let map_time_s = start.elapsed().as_secs_f64();
    debug_assert_eq!(
        emumap_model::validate_mapping(phys, venv, &outcome.mapping),
        Ok(()),
        "{} returned an invalid mapping",
        kind.label()
    );
    let experiment_s = simulate
        .then(|| run_experiment(phys, venv, &outcome.mapping, &ExperimentSpec::default()).total_s);
    Some(Measurement {
        objective: outcome.objective,
        map_time_s,
        routed_links: outcome.stats.routed_links,
        networking_time_s: outcome.stats.networking_time.as_secs_f64(),
        experiment_s,
    })
}

/// Runs the full grid: every scenario × both clusters × the given mappers
/// × `config.reps` repetitions. Returns one [`CellResult`] per
/// (scenario, cluster, mapper), in deterministic order.
pub fn run_grid(
    scenarios: &[Scenario],
    mappers: &[MapperKind],
    config: &RunConfig,
) -> Vec<CellResult> {
    let cluster_spec = ClusterSpec::paper();

    // Work items: one per (scenario, rep); each instantiates both clusters
    // once and runs every mapper on them, amortizing generation.
    let mut work: Vec<(usize, u32)> = Vec::with_capacity(scenarios.len() * config.reps as usize);
    for (scenario_idx, _) in scenarios.iter().enumerate() {
        for rep in 0..config.reps {
            work.push((scenario_idx, rep));
        }
    }

    // Fan the items out; every item returns its per-(cluster, mapper)
    // outcomes, which are folded sequentially below — so cell contents are
    // in deterministic (scenario, rep) order at any thread count.
    let runner = ParallelRunner::new(config.threads);
    let outcomes: Vec<Vec<(Cluster, usize, Option<Measurement>)>> =
        runner.run(work.clone(), |(scenario_idx, rep), cache| {
            let scenario = &scenarios[scenario_idx];
            let (torus, switched) = instantiate_both(&cluster_spec, scenario, rep, config.seed);
            let mut out = Vec::with_capacity(2 * mappers.len());
            for (cluster, inst) in [(Cluster::Torus, &torus), (Cluster::Switched, &switched)] {
                for (mi, &kind) in mappers.iter().enumerate() {
                    let m = run_one(
                        &inst.phys,
                        &inst.venv,
                        kind,
                        inst.mapper_seed ^ (mi as u64) << 56,
                        config.max_attempts,
                        config.simulate,
                        cache,
                    );
                    out.push((cluster, mi, m));
                }
            }
            out
        });

    // Result cells, indexed [scenario][cluster][mapper].
    let mut cells: Vec<CellResult> = scenarios
        .iter()
        .flat_map(|s| {
            Cluster::BOTH.iter().flat_map(move |&cluster| {
                mappers.iter().map(move |&mapper| CellResult {
                    scenario: s.label(),
                    cluster,
                    mapper,
                    successes: Vec::new(),
                    failures: 0,
                })
            })
        })
        .collect();
    let cell_index = |scenario_idx: usize, cluster: Cluster, mapper_idx: usize| {
        let c = match cluster {
            Cluster::Torus => 0,
            Cluster::Switched => 1,
        };
        (scenario_idx * 2 + c) * mappers.len() + mapper_idx
    };

    for (&(scenario_idx, _), item_outcomes) in work.iter().zip(outcomes) {
        for (cluster, mi, m) in item_outcomes {
            let cell = &mut cells[cell_index(scenario_idx, cluster, mi)];
            match m {
                Some(measurement) => cell.successes.push(measurement),
                None => cell.failures += 1,
            }
        }
    }

    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_workloads::WorkloadKind;

    fn tiny_scenario() -> Scenario {
        Scenario {
            ratio: 2.5,
            density: 0.02,
            workload: WorkloadKind::HighLevel,
        }
    }

    #[test]
    fn grid_covers_every_cell() {
        let scenarios = [tiny_scenario()];
        let config = RunConfig {
            reps: 2,
            ..Default::default()
        };
        let cells = run_grid(&scenarios, &MapperKind::ALL, &config);
        assert_eq!(cells.len(), 2 * 4);
        for cell in &cells {
            assert_eq!(
                cell.successes.len() + cell.failures,
                2,
                "{:?}/{:?} lost a repetition",
                cell.cluster,
                cell.mapper
            );
        }
    }

    #[test]
    fn hmn_succeeds_on_the_easy_scenario() {
        let scenarios = [tiny_scenario()];
        let config = RunConfig {
            reps: 2,
            ..Default::default()
        };
        let cells = run_grid(&scenarios, &[MapperKind::HMN], &config);
        for cell in &cells {
            assert_eq!(cell.failures, 0);
            assert!(cell.mean_objective().is_some());
            assert!(cell.mean_map_time().unwrap() > 0.0);
        }
    }

    #[test]
    fn grid_is_deterministic_across_thread_counts() {
        let scenarios = [tiny_scenario()];
        let base = RunConfig {
            reps: 2,
            threads: 1,
            ..Default::default()
        };
        let multi = RunConfig {
            reps: 2,
            threads: 3,
            ..Default::default()
        };
        let a = run_grid(&scenarios, &[MapperKind::HMN, MapperKind::RA], &base);
        let b = run_grid(&scenarios, &[MapperKind::HMN, MapperKind::RA], &multi);
        for (x, y) in a.iter().zip(b.iter()) {
            // Results fold in input (scenario, rep) order at any thread
            // count, so cell contents match element-for-element unsorted.
            let ox: Vec<f64> = x.successes.iter().map(|m| m.objective).collect();
            let oy: Vec<f64> = y.successes.iter().map(|m| m.objective).collect();
            assert_eq!(ox, oy, "{:?}/{:?}", x.cluster, x.mapper);
        }
    }

    #[test]
    fn simulate_flag_fills_experiment_time() {
        let scenarios = [tiny_scenario()];
        let config = RunConfig {
            reps: 1,
            simulate: true,
            ..Default::default()
        };
        let cells = run_grid(&scenarios, &[MapperKind::HMN], &config);
        for cell in &cells {
            for m in &cell.successes {
                assert!(m.experiment_s.unwrap() > 0.0);
            }
        }
    }
}
