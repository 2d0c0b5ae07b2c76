//! Simulated-annealing placement — a heavier §6-style "different
//! heuristic" for the scenarios where HMN's greedy pipeline stalls.
//!
//! The annealer searches placement space directly: starting from HMN's
//! Hosting+Migration fixpoint, it proposes single-guest moves, accepting
//! worse placements with the usual Metropolis probability under a
//! geometric cooling schedule. The energy combines the paper's Eq. 10
//! objective with a soft penalty for *inter-host bandwidth* (the quantity
//! Hosting's affinity minimizes), so the annealer optimizes both of HMN's
//! goals at once. Routing is still A\*Prune — placement search and routing
//! are orthogonal.
//!
//! The proposal and acceptance kernel is `Chain`, which parallel
//! tempering ([`ParallelTempering`](crate::ParallelTempering)) runs once
//! per rung of its temperature ladder.
//!
//! Determinism: the entire schedule is driven by the caller's seeded RNG.

use crate::astar_prune::AStarPruneConfig;
use crate::cache::MapCache;
use crate::error::MapError;
use crate::hosting::{hosting_stage, links_by_descending_bw, HostingPolicy};
use crate::mapper::{MapOutcome, Mapper};
use crate::migration::migration_stage;
use crate::networking::networking_stage;
use crate::recorder::record_map;
use crate::state::PlacementState;
use emumap_graph::NodeId;
use emumap_model::{GuestId, Mapping, PhysicalTopology, VLinkId, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters};
use rand::{Rng, RngCore};

/// Initial temperature as a fraction of the initial energy (adaptive —
/// instance scales vary over orders of magnitude).
const INITIAL_TEMPERATURE_FACTOR: f64 = 0.3;

/// Geometric cooling rate per proposal.
const COOLING: f64 = 0.9995;

/// Annealer configuration.
#[derive(Clone, Copy, Debug)]
pub struct AnnealingConfig {
    /// Proposals evaluated in total.
    pub iterations: usize,
    /// Weight of the inter-host bandwidth term, as a fraction of its
    /// natural scale relative to the objective (0 disables it).
    pub bandwidth_weight: f64,
    /// A\*Prune configuration for the final routing pass.
    pub astar: AStarPruneConfig,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            iterations: 20_000,
            bandwidth_weight: 0.5,
            astar: AStarPruneConfig::default(),
        }
    }
}

/// Simulated-annealing mapper.
#[derive(Clone, Copy, Debug, Default)]
pub struct Annealing {
    /// Configuration; the default anneals 20k proposals.
    pub config: AnnealingConfig,
}

/// Places every guest at HMN's Hosting+Migration fixpoint — the start of
/// every annealing chain. Because a chain tracks the best placement it
/// visits, including its start, SA and PT never end worse than HMN's own
/// placement. Returns the result with the Hosting span's counters, which
/// a failed Hosting stage reports too.
pub(crate) fn hmn_start(
    state: &mut PlacementState<'_>,
    links: &[VLinkId],
) -> (Result<(), MapError>, PhaseCounters) {
    let (hosted, stats) = hosting_stage(state, links, HostingPolicy::Paper);
    let hosted = hosted.map(|order| {
        migration_stage(state, order);
    });
    (hosted, stats.counters())
}

/// One Metropolis chain over a complete placement: the running energy,
/// the best placement visited and the decision counters. SA runs one
/// chain under a cooling schedule; parallel tempering runs one per rung.
pub(crate) struct Chain<'a> {
    state: PlacementState<'a>,
    /// `(weight, scale)` of the inter-host bandwidth term, if it is on.
    bandwidth: Option<(f64, f64)>,
    energy: f64,
    bw_inter: f64,
    best_energy: f64,
    /// Best placement visited, dense by guest index.
    best: Vec<NodeId>,
    accepted: u64,
    rejected: u64,
    proposals: u64,
    /// The state's delta and full evaluation counts when the chain began.
    evaluations_before: (u64, u64),
}

impl<'a> Chain<'a> {
    /// A chain starting from the complete placement in `state`. `best` is
    /// a reusable buffer for the best-placement snapshot.
    pub(crate) fn new(
        state: PlacementState<'a>,
        bandwidth_weight: f64,
        mut best: Vec<NodeId>,
    ) -> Self {
        let venv = state.venv();
        // Natural scale: average per-host CPU capacity per unit of the
        // total virtual bandwidth, folded so both terms are O(objective).
        let total_bw: f64 = venv.link_ids().map(|l| venv.link(l).bw.value()).sum();
        let scale = if total_bw > 0.0 {
            total_bw / state.phys().host_count() as f64
        } else {
            0.0
        };
        let bandwidth =
            (bandwidth_weight != 0.0 && scale != 0.0).then_some((bandwidth_weight, scale));
        // The inter-host bandwidth is scanned once here and then maintained
        // as a running value: each proposal contributes an O(degree) delta.
        let bw_inter = if bandwidth.is_some() {
            state.inter_host_bandwidth().value()
        } else {
            0.0
        };
        best.clear();
        best.extend(
            venv.guest_ids()
                .map(|g| state.host_of(g).expect("complete")),
        );
        let mut chain = Chain {
            evaluations_before: (state.delta_evaluations(), state.full_evaluations()),
            state,
            bandwidth,
            energy: 0.0,
            bw_inter,
            best_energy: 0.0,
            best,
            accepted: 0,
            rejected: 0,
            proposals: 0,
        };
        chain.energy = chain.energy_of(chain.state.objective(), bw_inter);
        chain.best_energy = chain.energy;
        chain
    }

    fn energy_of(&self, objective: f64, bw_inter: f64) -> f64 {
        match self.bandwidth {
            // Normalized to the objective's scale so neither term
            // dominates by unit choice.
            Some((weight, scale)) => objective + weight * bw_inter / scale,
            None => objective,
        }
    }

    /// The current energy.
    pub(crate) fn energy(&self) -> f64 {
        self.energy
    }

    /// The lowest energy visited.
    pub(crate) fn best_energy(&self) -> f64 {
        self.best_energy
    }

    /// Proposes moving one random guest to one random host and applies the
    /// Metropolis test at `temperature`. A proposal that stays put or does
    /// not fit is skipped uncounted.
    pub(crate) fn step<R: Rng + ?Sized>(
        &mut self,
        hosts: &[NodeId],
        temperature: f64,
        rng: &mut R,
    ) {
        let guest_count = self.best.len();
        if guest_count == 0 || hosts.len() < 2 {
            return;
        }
        let g = GuestId::from_index(rng.gen_range(0..guest_count));
        let from = self.state.host_of(g).expect("complete");
        let to = hosts[rng.gen_range(0..hosts.len())];
        if to == from || !self.state.fits(g, to) {
            return;
        }
        // Delta evaluation: O(1) objective + O(degree) bandwidth, with no
        // state mutation. Accept commits the tracked values; reject costs
        // nothing.
        let objective_after = self.state.objective_if_migrated(g, to);
        let bw_after = if self.bandwidth.is_some() {
            self.bw_inter + self.state.inter_bandwidth_delta(g, to).value()
        } else {
            self.bw_inter
        };
        let proposed = self.energy_of(objective_after, bw_after);
        self.proposals += 1;
        let delta = proposed - self.energy;
        if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-12)).exp() {
            self.state.migrate(g, to).expect("fit checked");
            self.energy = proposed;
            self.bw_inter = bw_after;
            self.accepted += 1;
            if proposed < self.best_energy {
                self.best_energy = proposed;
                for (i, slot) in self.best.iter_mut().enumerate() {
                    *slot = self
                        .state
                        .host_of(GuestId::from_index(i))
                        .expect("complete");
                }
            }
        } else {
            self.rejected += 1;
        }
    }

    /// Moves the state to the best placement visited. One-by-one
    /// migration could transiently violate capacity (a swap needs both
    /// slots free at once), so every displaced guest is unassigned first,
    /// then reassigned — the target state as a whole was feasible when
    /// recorded.
    pub(crate) fn restore_best(&mut self, displaced: &mut Vec<GuestId>) {
        displaced.clear();
        displaced.extend(
            (0..self.best.len())
                .map(GuestId::from_index)
                .filter(|&g| self.state.host_of(g) != Some(self.best[g.index()])),
        );
        for &g in displaced.iter() {
            self.state.unassign(g);
        }
        for &g in displaced.iter() {
            self.state
                .assign(g, self.best[g.index()])
                .expect("best placement was feasible when recorded");
        }
    }

    /// The chain's Migration counters: its decisions and the evaluations
    /// its state served since the chain began.
    pub(crate) fn counters(&self) -> PhaseCounters {
        PhaseCounters {
            moves_accepted: self.accepted,
            moves_rejected: self.rejected,
            proposals_evaluated: self.proposals,
            delta_evaluations: self.state.delta_evaluations() - self.evaluations_before.0,
            full_evaluations: self.state.full_evaluations() - self.evaluations_before.1,
            ..Default::default()
        }
    }

    /// The state and the best-placement buffer.
    pub(crate) fn into_parts(self) -> (PlacementState<'a>, Vec<NodeId>) {
        (self.state, self.best)
    }
}

impl Mapper for Annealing {
    fn name(&self) -> &str {
        "SA"
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        let cfg = &self.config;
        let links = links_by_descending_bw(venv);
        record_map("SA", phys, venv, cache, |rec, cache| {
            let mut state = PlacementState::new(phys, venv);
            rec.phase(cache, Phase::Hosting, |_| hmn_start(&mut state, &links))?;

            // --- Anneal, ending on the best placement visited. The
            // chain's buffers come from the cache and go back to it, so a
            // warm run allocates nothing here.
            let chain = rec.phase(cache, Phase::Migration, |cache| {
                let best = std::mem::take(&mut cache.anneal.best);
                let mut chain = Chain::new(state, cfg.bandwidth_weight, best);
                let mut temperature = (chain.energy() * INITIAL_TEMPERATURE_FACTOR).max(1e-6);
                for _ in 0..cfg.iterations {
                    chain.step(phys.hosts(), temperature, rng);
                    temperature *= COOLING;
                }
                chain.restore_best(&mut cache.anneal.displaced);
                let counters = chain.counters();
                (chain, counters)
            });
            let (mut state, best) = chain.into_parts();
            cache.anneal.best = best;

            // --- Route.
            let routes = rec.phase(cache, Phase::Networking, |cache| {
                networking_stage(&mut state, &links, &cfg.astar, cache)
            })?;
            Ok(Mapping::new(state.into_placement(), routes))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hmn;
    use emumap_graph::generators;
    use emumap_model::{
        validate_mapping, GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, StorGb,
        VLinkSpec, VmmOverhead,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn phys() -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::torus2d(3, 4),
            std::iter::repeat(HostSpec::new(
                Mips(2000.0),
                MemMb::from_gb(2),
                StorGb(2000.0),
            )),
            LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    fn venv(n: usize, seed: u64) -> VirtualEnvironment {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut v = VirtualEnvironment::new();
        let ids: Vec<_> = (0..n)
            .map(|_| {
                v.add_guest(GuestSpec::new(
                    Mips(rng.gen_range(50.0..=100.0)),
                    MemMb(rng.gen_range(128..=256)),
                    StorGb(rng.gen_range(100.0..=200.0)),
                ))
            })
            .collect();
        for w in ids.windows(2) {
            v.add_link(
                w[0],
                w[1],
                VLinkSpec::new(Kbps(rng.gen_range(500.0..=1000.0)), Millis(45.0)),
            );
        }
        v
    }

    #[test]
    fn annealing_produces_valid_mappings() {
        let p = phys();
        let v = venv(30, 1);
        let cfg = AnnealingConfig {
            iterations: 3_000,
            ..Default::default()
        };
        let out = Annealing { config: cfg }
            .map(&p, &v, &mut SmallRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(validate_mapping(&p, &v, &out.mapping), Ok(()));
    }

    #[test]
    fn annealing_is_reproducible_per_seed() {
        let p = phys();
        let v = venv(20, 2);
        let cfg = AnnealingConfig {
            iterations: 1_000,
            ..Default::default()
        };
        let a = Annealing { config: cfg }
            .map(&p, &v, &mut SmallRng::seed_from_u64(3))
            .unwrap();
        let b = Annealing { config: cfg }
            .map(&p, &v, &mut SmallRng::seed_from_u64(3))
            .unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn chain_tracks_its_energy_and_improves_on_a_piled_up_start() {
        let p = phys();
        let v = venv(30, 4);
        let hosts = p.hosts().to_vec();
        let total_bw: f64 = v.link_ids().map(|l| v.link(l).bw.value()).sum();
        let scale = total_bw / p.host_count() as f64;
        for weight in [0.0, 0.5] {
            // Every guest on the first host that fits: a badly balanced
            // start with plenty of room to improve.
            let mut state = PlacementState::new(&p, &v);
            for g in v.guest_ids() {
                let h = hosts.iter().copied().find(|&h| state.fits(g, h)).unwrap();
                state.assign(g, h).unwrap();
            }
            let mut chain = Chain::new(state, weight, Vec::new());
            let start = chain.energy();
            let mut rng = SmallRng::seed_from_u64(11);
            for i in 0..6_000 {
                // Hot, warm and greedy steps interleaved.
                chain.step(&hosts, start * [0.5, 0.05, 0.0][i % 3], &mut rng);
            }
            // The running values against a from-scratch recompute: the
            // population stddev of the residual CPU column and a full
            // inter-host bandwidth scan.
            let residuals = chain.state.residual().host_proc_residuals(&p);
            let mean = residuals.iter().sum::<f64>() / residuals.len() as f64;
            let var =
                residuals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / residuals.len() as f64;
            let objective = var.sqrt();
            let bw_full = chain.state.inter_host_bandwidth().value();
            let energy_full = if weight == 0.0 {
                objective
            } else {
                assert!(
                    (chain.bw_inter - bw_full).abs() < 1e-6,
                    "running bw {} vs full {bw_full}",
                    chain.bw_inter
                );
                objective + weight * bw_full / scale
            };
            assert!(
                (chain.state.objective() - objective).abs() < 1e-6,
                "weight {weight}: accumulator {} vs full {objective}",
                chain.state.objective()
            );
            assert!(
                (chain.energy() - energy_full).abs() < 1e-6,
                "weight {weight}: running energy {} vs full {energy_full}",
                chain.energy()
            );
            assert!(chain.accepted > 0, "weight {weight}: nothing accepted");
            assert!(
                chain.best_energy() < start,
                "weight {weight}: best {} not below the start {start}",
                chain.best_energy()
            );
        }
    }

    #[test]
    fn annealing_from_hosting_is_competitive_with_hmn() {
        let p = phys();
        let v = venv(24, 6);
        let hmn = Hmn::new()
            .map(&p, &v, &mut SmallRng::seed_from_u64(1))
            .unwrap();
        let sa = Annealing {
            config: AnnealingConfig {
                iterations: 10_000,
                bandwidth_weight: 0.0,
                ..Default::default()
            },
        }
        .map(&p, &v, &mut SmallRng::seed_from_u64(1))
        .unwrap();
        // SA explores beyond HMN's greedy fixpoint; with a pure Eq. 10
        // energy it must match or beat HMN's balance on this instance.
        assert!(
            sa.objective <= hmn.objective + 1e-9,
            "SA {} vs HMN {}",
            sa.objective,
            hmn.objective
        );
    }

    #[test]
    fn bandwidth_weight_increases_colocation() {
        let p = phys();
        let v = venv(30, 8);
        let run = |w: f64| {
            Annealing {
                config: AnnealingConfig {
                    iterations: 8_000,
                    bandwidth_weight: w,
                    ..Default::default()
                },
            }
            .map(&p, &v, &mut SmallRng::seed_from_u64(2))
            .unwrap()
        };
        let balanced_only = run(0.0);
        let with_affinity = run(2.0);
        assert!(
            with_affinity.mapping.intra_host_link_count()
                >= balanced_only.mapping.intra_host_link_count(),
            "bandwidth term should keep chatty guests together ({} vs {})",
            with_affinity.mapping.intra_host_link_count(),
            balanced_only.mapping.intra_host_link_count()
        );
    }

    #[test]
    fn empty_venv_is_fine() {
        let p = phys();
        let v = VirtualEnvironment::new();
        let out = Annealing::default()
            .map(&p, &v, &mut SmallRng::seed_from_u64(1))
            .unwrap();
        assert_eq!(out.mapping.guest_count(), 0);
    }
}
