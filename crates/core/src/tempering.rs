//! Parallel-tempering placement search — N annealing replicas on a
//! temperature ladder, exchanging temperatures at deterministic round
//! checkpoints.
//!
//! Plain simulated annealing ([`Annealing`](crate::Annealing)) owns one
//! Markov chain whose temperature only falls; once cold it cannot climb
//! out of the basin it froze into. Parallel tempering (replica exchange)
//! runs several chains at *fixed* temperatures spanning cold to hot and
//! periodically proposes swapping the temperatures of adjacent rungs with
//! the Metropolis criterion `min(1, exp((1/T_i - 1/T_j)(E_i - E_j)))`.
//! Hot replicas tunnel between basins; accepted exchanges hand their
//! discoveries down the ladder to the cold rungs that exploit them. The
//! result at an equal proposal budget is never structurally worse than one
//! cold chain — the coldest rung *is* one — and on rugged landscapes it is
//! usually better.
//!
//! ### Determinism at any thread count
//!
//! Replicas are sharded across a [`ParallelRunner`] pool, one round per
//! `run` call (the call is a barrier). Each replica owns its private
//! `SmallRng` seeded from the master seed and its ladder index, so the
//! proposal stream of replica `k` is a pure function of `(instance, seed,
//! k)` — independent of which worker thread executes it. Exchange
//! decisions consume a *dedicated* swap RNG sequentially on the
//! coordinator between rounds. Outcomes are therefore bit-identical for 1,
//! 4 or 64 worker threads, which the determinism suite asserts.

use crate::astar_prune::AStarPruneConfig;
use crate::cache::MapCache;
use crate::error::MapError;
use crate::hosting::{hosting_stage, links_by_descending_bw, HostingPolicy};
use crate::mapper::{MapOutcome, Mapper};
use crate::migration::migration_stage;
use crate::networking::networking_stage;
use crate::parallel::ParallelRunner;
use crate::recorder::record_map;
use crate::state::PlacementState;
use emumap_graph::NodeId;
use emumap_model::{GuestId, Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Parallel-tempering configuration. The default ladder (8 replicas x
/// 50 rounds x 50 proposals) evaluates 20 000 proposals in total — the
/// same budget as [`AnnealingConfig`](crate::AnnealingConfig)'s default,
/// so `--mapper sa` and `--mapper pt` compare like for like.
#[derive(Clone, Copy, Debug)]
pub struct TemperingConfig {
    /// Replicas on the temperature ladder (>= 1).
    pub replicas: usize,
    /// Exchange rounds; replicas synchronize at each round boundary.
    pub rounds: usize,
    /// Metropolis proposals per replica per round.
    pub iterations_per_round: usize,
    /// Coldest rung's temperature as a fraction of the initial energy.
    pub min_temperature_factor: f64,
    /// Hottest rung's temperature as a fraction of the initial energy.
    pub max_temperature_factor: f64,
    /// Weight of the inter-host bandwidth energy term (as in
    /// [`AnnealingConfig`](crate::AnnealingConfig)).
    pub bandwidth_weight: f64,
    /// Seed every replica from HMN's Hosting+Migration fixpoint instead of
    /// an independent random placement per replica.
    pub seed_with_hosting: bool,
    /// Worker threads for the replica pool; `0` means one per core.
    pub threads: usize,
    /// A\*Prune configuration for the final routing pass.
    pub astar: AStarPruneConfig,
}

impl Default for TemperingConfig {
    fn default() -> Self {
        TemperingConfig {
            replicas: 8,
            rounds: 50,
            iterations_per_round: 50,
            min_temperature_factor: 0.01,
            max_temperature_factor: 0.5,
            bandwidth_weight: 0.5,
            seed_with_hosting: true,
            threads: 0,
            astar: AStarPruneConfig::default(),
        }
    }
}

impl TemperingConfig {
    /// Total Metropolis proposals across the whole ladder.
    pub fn total_proposals(&self) -> usize {
        self.replicas * self.rounds * self.iterations_per_round
    }
}

/// One rung of the ladder: a placement chain at a fixed temperature.
///
/// Owns everything its round needs (state, RNG, running energy), so a
/// round is a pure function of the replica value — the struct moves into
/// a worker, runs, and moves back.
struct Replica<'a> {
    state: PlacementState<'a>,
    rng: SmallRng,
    temperature: f64,
    energy: f64,
    bw_inter: f64,
    best_energy: f64,
    best_placement: Vec<NodeId>,
    accepted: usize,
    rejected: usize,
    proposals: usize,
}

impl Replica<'_> {
    /// Runs `iterations` single-guest move proposals at this replica's
    /// current temperature.
    fn run_round(
        &mut self,
        hosts: &[NodeId],
        iterations: usize,
        bw_enabled: bool,
        bw_weight: f64,
        bw_scale: f64,
    ) {
        let guest_count = self.state.venv().guest_count();
        if guest_count == 0 || hosts.len() < 2 {
            return;
        }
        let energy_of = |objective: f64, bw_inter: f64| {
            if bw_enabled {
                objective + bw_weight * bw_inter / bw_scale
            } else {
                objective
            }
        };
        for _ in 0..iterations {
            let g = GuestId::from_index(self.rng.gen_range(0..guest_count));
            let from = self.state.host_of(g).expect("complete");
            let to = hosts[self.rng.gen_range(0..hosts.len())];
            if to == from || !self.state.fits(g, to) {
                continue;
            }
            let objective_after = self.state.objective_if_migrated(g, to);
            let bw_after = if bw_enabled {
                self.bw_inter + self.state.inter_bandwidth_delta(g, to).value()
            } else {
                self.bw_inter
            };
            let proposed = energy_of(objective_after, bw_after);
            self.proposals += 1;
            let delta = proposed - self.energy;
            let accept = delta <= 0.0
                || self.rng.gen::<f64>() < (-delta / self.temperature.max(1e-12)).exp();
            if accept {
                self.state.migrate(g, to).expect("fit checked");
                self.energy = proposed;
                self.bw_inter = bw_after;
                self.accepted += 1;
                if proposed < self.best_energy {
                    self.best_energy = proposed;
                    for (i, slot) in self.best_placement.iter_mut().enumerate() {
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
    }
}

/// Parallel-tempering mapper (`--mapper pt`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelTempering {
    /// Configuration; the default matches SA's 20k-proposal budget.
    pub config: TemperingConfig,
}

impl Mapper for ParallelTempering {
    fn name(&self) -> &str {
        "PT"
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        let cfg = &self.config;
        assert!(cfg.replicas >= 1, "at least one replica required");
        let links = links_by_descending_bw(venv);
        record_map("PT", phys, venv, cache, |rec, cache| {
            // One draw from the caller's RNG keys the entire run: replica
            // proposal streams and the swap stream all derive from it, so
            // the mapper remains a pure function of (phys, venv, seed).
            let master_seed = rng.next_u64();
            let hosts: Vec<NodeId> = phys.hosts().to_vec();
            let guest_count = venv.guest_count();

            // --- Seed placement (shared by every replica when
            // hosting-seeded).
            let (seed_placement, _) = rec.try_phase(
                cache,
                Phase::Hosting,
                |_| {
                    if !cfg.seed_with_hosting {
                        return Ok((None, PhaseCounters::default()));
                    }
                    let mut state = PlacementState::new(phys, venv);
                    let h = hosting_stage(&mut state, &links, HostingPolicy::Paper)?;
                    migration_stage(&mut state);
                    Ok((Some(state.into_placement()), h.counters()))
                },
                |(_, counters)| *counters,
            )?;

            // --- Build the ladder.
            let bw_scale = {
                let total_bw: f64 = venv.link_ids().map(|l| venv.link(l).bw.value()).sum();
                if total_bw > 0.0 {
                    total_bw / phys.host_count() as f64
                } else {
                    0.0
                }
            };
            let bw_enabled = cfg.bandwidth_weight != 0.0 && bw_scale != 0.0;
            let mut replicas: Vec<Replica<'_>> = Vec::with_capacity(cfg.replicas);
            for k in 0..cfg.replicas {
                let mut state = PlacementState::new(phys, venv);
                let mut replica_rng = SmallRng::seed_from_u64(
                    master_seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                match &seed_placement {
                    Some(placement) => {
                        for (i, &h) in placement.iter().enumerate() {
                            state
                                .assign(GuestId::from_index(i), h)
                                .expect("hosting placement is feasible");
                        }
                    }
                    None => {
                        // Independent random feasible start per replica.
                        let mut fitting: Vec<NodeId> = Vec::with_capacity(hosts.len());
                        for g in venv.guest_ids() {
                            fitting.clear();
                            fitting.extend(hosts.iter().copied().filter(|&h| state.fits(g, h)));
                            if fitting.is_empty() {
                                return Err(MapError::HostingFailed { guest: g });
                            }
                            let pick = fitting[replica_rng.gen_range(0..fitting.len())];
                            state.assign(g, pick).expect("candidate verified");
                        }
                    }
                }
                let bw_inter = if bw_enabled {
                    state.inter_host_bandwidth().value()
                } else {
                    0.0
                };
                let energy = if bw_enabled {
                    state.objective() + cfg.bandwidth_weight * bw_inter / bw_scale
                } else {
                    state.objective()
                };
                // Geometric ladder from cold (rung 0) to hot, anchored on this
                // replica's own initial energy scale.
                let t_min = (energy * cfg.min_temperature_factor).max(1e-6);
                let t_max = (energy * cfg.max_temperature_factor).max(t_min * (1.0 + 1e-9));
                let frac = if cfg.replicas == 1 {
                    0.0
                } else {
                    k as f64 / (cfg.replicas - 1) as f64
                };
                let temperature = t_min * (t_max / t_min).powf(frac);
                let best_placement = venv
                    .guest_ids()
                    .map(|g| state.host_of(g).expect("complete"))
                    .collect();
                replicas.push(Replica {
                    state,
                    rng: replica_rng,
                    temperature,
                    energy,
                    bw_inter,
                    best_energy: energy,
                    best_placement,
                    accepted: 0,
                    rejected: 0,
                    proposals: 0,
                });
            }

            // --- Temper.
            let replicas = rec.phase(cache, Phase::Migration, |_| {
                temper(cfg, replicas, &hosts, master_seed, bw_enabled, bw_scale)
            });

            // --- Route the global best. Ties break toward the
            // coldest-built (lowest-index) replica for determinism.
            let best = replicas
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.best_energy.total_cmp(&b.best_energy))
                .map(|(i, _)| i)
                .expect("at least one replica");
            let mut state = PlacementState::new(phys, venv);
            for (i, &h) in replicas[best].best_placement.iter().enumerate() {
                state
                    .assign(GuestId::from_index(i), h)
                    .expect("best placement was feasible when recorded");
            }
            drop(replicas);
            debug_assert_eq!(state.assigned_count(), guest_count);

            let (routes, _) = rec.try_phase(
                cache,
                Phase::Networking,
                |cache| networking_stage(&mut state, &links, &cfg.astar, cache),
                |(_, counters)| *counters,
            )?;
            Ok(Mapping::new(state.into_placement(), routes))
        })
    }
}

/// Runs the tempering rounds over the replica ladder with temperature
/// exchanges between adjacent rungs; returns the replicas and the
/// Migration span's counters.
fn temper<'a>(
    cfg: &TemperingConfig,
    mut replicas: Vec<Replica<'a>>,
    hosts: &[NodeId],
    master_seed: u64,
    bw_enabled: bool,
    bw_scale: f64,
) -> (Vec<Replica<'a>>, PhaseCounters) {
    let runner = ParallelRunner::new(cfg.threads.min(cfg.replicas.max(1)));
    let mut swap_rng = SmallRng::seed_from_u64(master_seed.wrapping_add(0xA076_1D64_78BD_642F));
    let mut replica_exchanges = 0u64;
    let mut exchange_accepts = 0u64;
    let delta_evals_before: u64 = replicas.iter().map(|r| r.state.delta_evaluations()).sum();
    let full_evals_before: u64 = replicas.iter().map(|r| r.state.full_evaluations()).sum();
    for round in 0..cfg.rounds {
        replicas = runner.run(replicas, |mut r, _cache| {
            r.run_round(
                hosts,
                cfg.iterations_per_round,
                bw_enabled,
                cfg.bandwidth_weight,
                bw_scale,
            );
            r
        });
        // Exchange temperatures between adjacent rungs, alternating
        // even/odd pairing per round so every neighbor pair is tried.
        // The swap RNG is consumed strictly sequentially here on the
        // coordinator — one draw per attempt, accepted or not — so the
        // decision stream never depends on worker scheduling.
        let mut k = round % 2;
        while k + 1 < replicas.len() {
            replica_exchanges += 1;
            let u = swap_rng.gen::<f64>();
            let (ti, tj) = (replicas[k].temperature, replicas[k + 1].temperature);
            let (ei, ej) = (replicas[k].energy, replicas[k + 1].energy);
            let log_accept = (1.0 / ti - 1.0 / tj) * (ei - ej);
            if log_accept >= 0.0 || u < log_accept.exp() {
                exchange_accepts += 1;
                replicas[k].temperature = tj;
                replicas[k + 1].temperature = ti;
            }
            k += 2;
        }
    }
    let delta_evaluations: u64 = replicas
        .iter()
        .map(|r| r.state.delta_evaluations())
        .sum::<u64>()
        - delta_evals_before;
    let full_evaluations: u64 = replicas
        .iter()
        .map(|r| r.state.full_evaluations())
        .sum::<u64>()
        - full_evals_before;
    let counters = PhaseCounters {
        moves_accepted: replicas.iter().map(|r| r.accepted as u64).sum(),
        moves_rejected: replicas.iter().map(|r| r.rejected as u64).sum(),
        proposals_evaluated: replicas.iter().map(|r| r.proposals as u64).sum(),
        delta_evaluations,
        full_evaluations,
        replica_exchanges,
        exchange_accepts,
        ..Default::default()
    };
    (replicas, counters)
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

    fn small_config() -> TemperingConfig {
        TemperingConfig {
            replicas: 4,
            rounds: 10,
            iterations_per_round: 50,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn tempering_produces_valid_mappings() {
        let p = phys();
        let v = venv(30, 1);
        let out = ParallelTempering {
            config: small_config(),
        }
        .map(&p, &v, &mut SmallRng::seed_from_u64(7))
        .unwrap();
        assert_eq!(validate_mapping(&p, &v, &out.mapping), Ok(()));
        assert!(out.stats.replica_exchanges > 0);
        assert!(out.stats.exchange_accepts <= out.stats.replica_exchanges);
    }

    #[test]
    fn tempering_is_bit_identical_across_thread_counts() {
        let p = phys();
        let v = venv(24, 2);
        let run = |threads: usize| {
            let config = TemperingConfig {
                threads,
                ..small_config()
            };
            ParallelTempering { config }
                .map(&p, &v, &mut SmallRng::seed_from_u64(3))
                .unwrap()
        };
        let one = run(1);
        for threads in [4, 8] {
            let multi = run(threads);
            assert_eq!(one.mapping, multi.mapping, "{threads} threads");
            assert_eq!(
                one.objective.to_bits(),
                multi.objective.to_bits(),
                "{threads} threads"
            );
            assert_eq!(one.stats.replica_exchanges, multi.stats.replica_exchanges);
            assert_eq!(one.stats.exchange_accepts, multi.stats.exchange_accepts);
            assert_eq!(
                one.stats.proposals_evaluated,
                multi.stats.proposals_evaluated
            );
        }
    }

    #[test]
    fn tempering_from_hosting_is_competitive_with_hmn() {
        let p = phys();
        let v = venv(24, 6);
        let hmn = Hmn::new()
            .map(&p, &v, &mut SmallRng::seed_from_u64(1))
            .unwrap();
        let pt = ParallelTempering {
            config: TemperingConfig {
                bandwidth_weight: 0.0,
                ..small_config()
            },
        }
        .map(&p, &v, &mut SmallRng::seed_from_u64(1))
        .unwrap();
        // Every replica starts from HMN's own fixpoint and tracks its
        // best, so with a pure Eq. 10 energy PT can never end worse.
        assert!(
            pt.objective <= hmn.objective + 1e-9,
            "PT {} vs HMN {}",
            pt.objective,
            hmn.objective
        );
    }

    #[test]
    fn accumulator_energy_matches_full_recompute_after_exchanges() {
        // The per-replica running energy is maintained via the O(1)
        // accumulator and O(degree) bandwidth deltas across thousands of
        // proposals and dozens of temperature exchanges; verify against
        // a from-scratch recompute of both terms on the final states.
        let p = phys();
        let v = venv(30, 4);
        let cfg = TemperingConfig {
            replicas: 4,
            rounds: 20,
            iterations_per_round: 100,
            threads: 2,
            ..Default::default()
        };
        // Re-run the ladder by hand (the mapper's internals are private)
        // with the same machinery the mapper uses.
        let links = links_by_descending_bw(&v);
        let mut state = PlacementState::new(&p, &v);
        hosting_stage(&mut state, &links, HostingPolicy::Paper).unwrap();
        migration_stage(&mut state);
        let seed_placement = state.into_placement();
        let total_bw: f64 = v.link_ids().map(|l| v.link(l).bw.value()).sum();
        let bw_scale = total_bw / p.host_count() as f64;
        let mut replicas: Vec<Replica<'_>> = (0..cfg.replicas)
            .map(|k| {
                let mut state = PlacementState::new(&p, &v);
                for (i, &h) in seed_placement.iter().enumerate() {
                    state.assign(GuestId::from_index(i), h).unwrap();
                }
                let bw_inter = state.inter_host_bandwidth().value();
                let energy = state.objective() + cfg.bandwidth_weight * bw_inter / bw_scale;
                Replica {
                    state,
                    rng: SmallRng::seed_from_u64(99 + k as u64),
                    temperature: 0.05 * energy.max(1.0) * (k + 1) as f64,
                    energy,
                    bw_inter,
                    best_energy: energy,
                    best_placement: seed_placement.clone(),
                    accepted: 0,
                    rejected: 0,
                    proposals: 0,
                }
            })
            .collect();
        let hosts: Vec<NodeId> = p.hosts().to_vec();
        let mut swap_rng = SmallRng::seed_from_u64(1234);
        for round in 0..cfg.rounds {
            for r in replicas.iter_mut() {
                r.run_round(
                    &hosts,
                    cfg.iterations_per_round,
                    true,
                    cfg.bandwidth_weight,
                    bw_scale,
                );
            }
            let mut k = round % 2;
            while k + 1 < replicas.len() {
                let u = swap_rng.gen::<f64>();
                let (ti, tj) = (replicas[k].temperature, replicas[k + 1].temperature);
                let (ei, ej) = (replicas[k].energy, replicas[k + 1].energy);
                let log_accept = (1.0 / ti - 1.0 / tj) * (ei - ej);
                if log_accept >= 0.0 || u < log_accept.exp() {
                    replicas[k].temperature = tj;
                    replicas[k + 1].temperature = ti;
                }
                k += 2;
            }
        }
        for (k, r) in replicas.iter().enumerate() {
            assert!(r.accepted > 0, "replica {k} accepted no proposals");
            // Objective term: accumulator vs population stddev from the
            // residual columns.
            let residuals = r.state.residual().host_proc_residuals(&p);
            let mean = residuals.iter().sum::<f64>() / residuals.len() as f64;
            let var =
                residuals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / residuals.len() as f64;
            let objective = var.sqrt();
            // Bandwidth term: full rescan vs the running delta total.
            let bw_full = r.state.inter_host_bandwidth().value();
            let energy_full = objective + cfg.bandwidth_weight * bw_full / bw_scale;
            assert!(
                (r.state.objective() - objective).abs() < 1e-6,
                "replica {k}: accumulator {} vs full {}",
                r.state.objective(),
                objective
            );
            assert!(
                (r.bw_inter - bw_full).abs() < 1e-6,
                "replica {k}: running bw {} vs full {}",
                r.bw_inter,
                bw_full
            );
            assert!(
                (r.energy - energy_full).abs() < 1e-6,
                "replica {k}: running energy {} vs full {}",
                r.energy,
                energy_full
            );
        }
    }

    #[test]
    fn single_replica_is_fine() {
        let p = phys();
        let v = venv(12, 5);
        let out = ParallelTempering {
            config: TemperingConfig {
                replicas: 1,
                rounds: 5,
                iterations_per_round: 100,
                threads: 1,
                ..Default::default()
            },
        }
        .map(&p, &v, &mut SmallRng::seed_from_u64(2))
        .unwrap();
        assert_eq!(validate_mapping(&p, &v, &out.mapping), Ok(()));
        assert_eq!(out.stats.replica_exchanges, 0);
    }

    #[test]
    fn empty_venv_is_fine() {
        let p = phys();
        let v = VirtualEnvironment::new();
        let out = ParallelTempering::default()
            .map(&p, &v, &mut SmallRng::seed_from_u64(1))
            .unwrap();
        assert_eq!(out.mapping.guest_count(), 0);
    }

    #[test]
    fn random_start_varies_per_replica_but_is_reproducible() {
        let p = phys();
        let v = venv(20, 7);
        let config = TemperingConfig {
            seed_with_hosting: false,
            ..small_config()
        };
        let a = ParallelTempering { config }
            .map(&p, &v, &mut SmallRng::seed_from_u64(9))
            .unwrap();
        let b = ParallelTempering { config }
            .map(&p, &v, &mut SmallRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }
}
