//! The common mapper interface and its outcome/statistics types.

use crate::cache::MapCache;
use crate::error::MapError;
use emumap_model::{objective::mapping_objective, Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters};
use rand::RngCore;
use std::time::Duration;

/// Per-run statistics. Every counter and phase time is folded from the
/// run's recorded phase spans by [`MapStats::from_phases`]; mappers fill
/// in what applies to them (e.g. the Random baselines have no migration
/// phase).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MapStats {
    /// Complete mapping attempts (1 for HMN; retry count for baselines).
    pub attempts: usize,
    /// Hosting co-location decisions that landed link endpoints together.
    pub colocation_hits: usize,
    /// Hosting placements that fell back to a first-fit scan.
    pub first_fit_fallbacks: usize,
    /// Guests moved by the Migration stage.
    pub migrations: usize,
    /// Migration moves evaluated but rejected (no objective improvement),
    /// or annealing proposals declined by the Metropolis rule.
    pub migrations_rejected: usize,
    /// Virtual links of the mapping routed over the network.
    pub routed_links: usize,
    /// Virtual links of the mapping handled intra-host.
    pub intra_host_links: usize,
    /// A\*Prune partial paths expanded (0 for DFS routing).
    pub astar_expansions: usize,
    /// A\*Prune candidates pushed onto the heap (0 for DFS routing).
    pub astar_pushed: usize,
    /// Level probes of A\*Prune's bandwidth guide or of the exact router
    /// (0 when neither routed the links).
    pub guide_probes: usize,
    /// Level probes of the exact router that its reachability cut proved
    /// to fail without running them.
    pub cut_proofs: usize,
    /// Dijkstra table computations (latency `ar[]` plus hop-count tables).
    pub dijkstra_runs: usize,
    /// Table lookups answered by a warm cache instead of a Dijkstra run.
    pub ar_cache_hits: usize,
    /// Placement proposals whose energy was evaluated (Migration stage
    /// candidate probes plus annealing Metropolis proposals).
    pub proposals_evaluated: usize,
    /// O(1)/O(degree) incremental energy evaluations (accumulator
    /// `stddev_after` probes plus bandwidth-delta probes).
    pub delta_evaluations: usize,
    /// Full objective recomputations: accumulator builds, periodic drift
    /// refreshes, and resets.
    pub full_evaluations: usize,
    /// Parallel tempering: temperature-exchange attempts between adjacent
    /// replicas at round checkpoints (0 for every other mapper).
    pub replica_exchanges: usize,
    /// Parallel tempering: exchange attempts accepted by the Metropolis
    /// criterion.
    pub exchange_accepts: usize,
    /// Randomized rounding: multiplicative-weights iterations of the
    /// fractional LP solve (0 for every other mapper).
    pub lp_iterations: usize,
    /// Randomized rounding: placement samples drawn from the fractional
    /// solution before one passed the feasibility prechecks.
    pub rounding_attempts: usize,
    /// Randomized rounding: per-guest capacity repairs applied while
    /// sampling (fallbacks away from the sampled host).
    pub repairs: usize,
    /// Wall-clock spent in placement (Hosting spans).
    pub placement_time: Duration,
    /// Wall-clock spent in Migration spans.
    pub migration_time: Duration,
    /// Wall-clock spent routing links (Networking spans).
    pub networking_time: Duration,
    /// Total wall-clock for the whole `map` call.
    pub total_time: Duration,
}

impl MapStats {
    /// Folds a run's phase spans — `(phase, elapsed, counters)` in
    /// emission order — into statistics. This is the one place the trace's
    /// counter names map to these fields (`moves_accepted` → `migrations`,
    /// `moves_rejected` → `migrations_rejected`, `cache_hits` →
    /// `ar_cache_hits`). The per-run fields `attempts`, `routed_links`,
    /// `intra_host_links` and `total_time` are left zero: they describe
    /// the run and its mapping, not a phase.
    pub fn from_phases(phases: impl IntoIterator<Item = (Phase, Duration, PhaseCounters)>) -> Self {
        phases
            .into_iter()
            .fold(MapStats::default(), |mut s, (phase, elapsed, c)| {
                match phase {
                    Phase::Hosting => s.placement_time += elapsed,
                    Phase::Migration => s.migration_time += elapsed,
                    Phase::Networking => s.networking_time += elapsed,
                    Phase::Exact => {}
                }
                let n = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
                s.colocation_hits += n(c.colocation_hits);
                s.first_fit_fallbacks += n(c.first_fit_fallbacks);
                s.migrations += n(c.moves_accepted);
                s.migrations_rejected += n(c.moves_rejected);
                s.proposals_evaluated += n(c.proposals_evaluated);
                s.delta_evaluations += n(c.delta_evaluations);
                s.full_evaluations += n(c.full_evaluations);
                s.astar_expansions += n(c.astar_expansions);
                s.astar_pushed += n(c.astar_pushed);
                s.guide_probes += n(c.guide_probes);
                s.cut_proofs += n(c.cut_proofs);
                s.dijkstra_runs += n(c.dijkstra_runs);
                s.ar_cache_hits += n(c.cache_hits);
                s.replica_exchanges += n(c.replica_exchanges);
                s.exchange_accepts += n(c.exchange_accepts);
                s.lp_iterations += n(c.lp_iterations);
                s.rounding_attempts += n(c.rounding_attempts);
                s.repairs += n(c.repairs);
                s
            })
    }
}

/// A successful mapping plus its quality and cost metrics.
#[derive(Clone, Debug)]
pub struct MapOutcome {
    /// The valid mapping.
    pub mapping: Mapping,
    /// The load-balance factor (Eq. 10) of the mapping.
    pub objective: f64,
    /// Run statistics.
    pub stats: MapStats,
}

impl MapOutcome {
    /// Packages a finished mapping, computing its Eq. 10 objective.
    pub fn new(
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        mapping: Mapping,
        stats: MapStats,
    ) -> Self {
        let objective = mapping_objective(phys, venv, &mapping);
        MapOutcome {
            mapping,
            objective,
            stats,
        }
    }
}

/// A virtual-environment-to-testbed mapper.
///
/// The full family lives in the [`MapperRegistry`](crate::MAPPERS) — the
/// single registration site that the CLI, the bench harness, `compare`,
/// and `serve` all enumerate. As registered there:
/// [`Hmn`](crate::Hmn) (the paper's contribution),
/// [`RandomDfs`](crate::RandomDfs) (R),
/// [`RandomAStar`](crate::RandomAStar) (RA),
/// [`HostingDfs`](crate::HostingDfs) (HS),
/// the [`FirstFitDecreasing`](crate::FirstFitDecreasing) /
/// [`BestFit`](crate::BestFit) / [`WorstFit`](crate::WorstFit)
/// bin-packing baselines,
/// the [`ConsolidatingHmn`](crate::ConsolidatingHmn) objective variant,
/// [`HmnKsp`](crate::HmnKsp) (k-shortest-path routing ablation),
/// [`Annealing`](crate::Annealing) (SA),
/// [`ParallelTempering`](crate::ParallelTempering) (PT),
/// [`RandomizedRounding`](crate::RandomizedRounding) (RR), and the
/// [`HeuristicPool`](crate::HeuristicPool) combinator.
///
/// `rng` drives any randomized decisions; deterministic mappers (HMN)
/// ignore it, which keeps the harness interface uniform: every mapper is a
/// pure function of `(phys, venv, seed)`.
pub trait Mapper {
    /// Short identifier used in reports ("HMN", "R", "RA", "HS", …) —
    /// matches the mapper's label in the [registry](crate::MAPPERS).
    fn name(&self) -> &str;

    /// Attempts to map `venv` onto `phys`, reusing the caller-owned
    /// [`MapCache`] of topology tables and scratch buffers.
    ///
    /// The cache is strictly an accelerator: implementations must return
    /// bit-identical outcomes (mapping, routes, objective) for any cache
    /// history, so batch harnesses can keep one warm cache per worker
    /// thread.
    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError>;

    /// [`map_with_cache`](Self::map_with_cache) on a fresh [`MapCache`],
    /// for one-shot callers.
    fn map(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
    ) -> Result<MapOutcome, MapError> {
        self.map_with_cache(phys, venv, rng, &mut MapCache::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, Route, StorGb, VmmOverhead,
    };

    #[test]
    fn outcome_computes_objective() {
        let phys = PhysicalTopology::from_shape(
            &generators::line(2),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(100.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        venv.add_guest(GuestSpec::new(Mips(200.0), MemMb(64), StorGb(1.0)));
        let mapping = Mapping::new(vec![phys.hosts()[0]], Vec::<Route>::new());
        let outcome = MapOutcome::new(&phys, &venv, mapping, MapStats::default());
        // Residuals (800, 1000): mean 900, stddev 100.
        assert_eq!(outcome.objective, 100.0);
    }
}
