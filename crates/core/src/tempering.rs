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

use crate::annealing::{hmn_start, Chain};
use crate::astar_prune::AStarPruneConfig;
use crate::cache::MapCache;
use crate::error::MapError;
use crate::hosting::links_by_descending_bw;
use crate::mapper::{MapOutcome, Mapper};
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

/// One rung of the ladder: an annealing [`Chain`] at a fixed temperature
/// with its own proposal stream.
///
/// Owns everything its round needs, so a round is a pure function of the
/// replica value — the struct moves into a worker, runs, and moves back.
struct Replica<'a> {
    chain: Chain<'a>,
    rng: SmallRng,
    temperature: f64,
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

            // --- Seed placement, shared by every replica.
            let seed_placement = rec.phase(cache, Phase::Hosting, |_| {
                let mut state = PlacementState::new(phys, venv);
                let (hosted, counters) = hmn_start(&mut state, &links);
                (hosted.map(|()| state.into_placement()), counters)
            })?;

            // --- Build the ladder.
            let replicas: Vec<Replica<'_>> = (0..cfg.replicas)
                .map(|k| {
                    let mut state = PlacementState::new(phys, venv);
                    for (i, &h) in seed_placement.iter().enumerate() {
                        state
                            .assign(GuestId::from_index(i), h)
                            .expect("hosting placement is feasible");
                    }
                    let chain = Chain::new(state, cfg.bandwidth_weight, Vec::new());
                    // Geometric ladder from cold (rung 0) to hot, anchored
                    // on the replica's initial energy scale.
                    let energy = chain.energy();
                    let t_min = (energy * cfg.min_temperature_factor).max(1e-6);
                    let t_max = (energy * cfg.max_temperature_factor).max(t_min * (1.0 + 1e-9));
                    let frac = if cfg.replicas == 1 {
                        0.0
                    } else {
                        k as f64 / (cfg.replicas - 1) as f64
                    };
                    Replica {
                        chain,
                        rng: SmallRng::seed_from_u64(
                            master_seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        ),
                        temperature: t_min * (t_max / t_min).powf(frac),
                    }
                })
                .collect();

            // --- Temper.
            let mut replicas = rec.phase(cache, Phase::Migration, |_| {
                temper(cfg, replicas, phys.hosts(), master_seed)
            });

            // --- Route the global best. Ties break toward the
            // coldest-built (lowest-index) replica for determinism.
            let best = replicas
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.chain.best_energy().total_cmp(&b.chain.best_energy()))
                .map(|(i, _)| i)
                .expect("at least one replica");
            let mut chain = replicas.swap_remove(best).chain;
            drop(replicas);
            chain.restore_best(&mut Vec::new());
            let (mut state, _) = chain.into_parts();

            let routes = rec.phase(cache, Phase::Networking, |cache| {
                networking_stage(&mut state, &links, &cfg.astar, cache)
            })?;
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
) -> (Vec<Replica<'a>>, PhaseCounters) {
    let runner = ParallelRunner::new(cfg.threads);
    let mut swap_rng = SmallRng::seed_from_u64(master_seed.wrapping_add(0xA076_1D64_78BD_642F));
    let mut counters = PhaseCounters::default();
    for round in 0..cfg.rounds {
        replicas = runner.run(replicas, |mut r, _cache| {
            for _ in 0..cfg.iterations_per_round {
                r.chain.step(hosts, r.temperature, &mut r.rng);
            }
            r
        });
        // Exchange temperatures between adjacent rungs, alternating
        // even/odd pairing per round so every neighbor pair is tried.
        // The swap RNG is consumed strictly sequentially here on the
        // coordinator — one draw per attempt, accepted or not — so the
        // decision stream never depends on worker scheduling.
        let mut k = round % 2;
        while k + 1 < replicas.len() {
            counters.replica_exchanges += 1;
            let u = swap_rng.gen::<f64>();
            let (ti, tj) = (replicas[k].temperature, replicas[k + 1].temperature);
            let (ei, ej) = (replicas[k].chain.energy(), replicas[k + 1].chain.energy());
            let log_accept = (1.0 / ti - 1.0 / tj) * (ei - ej);
            if log_accept >= 0.0 || u < log_accept.exp() {
                counters.exchange_accepts += 1;
                replicas[k].temperature = tj;
                replicas[k + 1].temperature = ti;
            }
            k += 2;
        }
    }
    for r in &replicas {
        let c = r.chain.counters();
        counters.moves_accepted += c.moves_accepted;
        counters.moves_rejected += c.moves_rejected;
        counters.proposals_evaluated += c.proposals_evaluated;
        counters.delta_evaluations += c.delta_evaluations;
        counters.full_evaluations += c.full_evaluations;
    }
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
}
