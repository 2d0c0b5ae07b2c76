//! Simulated-annealing placement — a heavier §6-style "different
//! heuristic" for the scenarios where HMN's greedy pipeline stalls.
//!
//! The annealer searches placement space directly: starting from a random
//! (or hosting-seeded) feasible placement, it proposes single-guest moves
//! and guest swaps, accepting worse placements with the usual Metropolis
//! probability under a geometric cooling schedule. The energy combines the
//! paper's Eq. 10 objective with a soft penalty for *inter-host bandwidth*
//! (the quantity Hosting's affinity minimizes), so the annealer optimizes
//! both of HMN's goals at once. Routing is still A\*Prune — placement
//! search and routing are orthogonal.
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
use emumap_model::{GuestId, Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters};
use rand::{Rng, RngCore};

/// Annealer configuration.
#[derive(Clone, Copy, Debug)]
pub struct AnnealingConfig {
    /// Proposals evaluated in total.
    pub iterations: usize,
    /// Initial temperature as a fraction of the initial energy (adaptive —
    /// instance scales vary over orders of magnitude).
    pub initial_temperature_factor: f64,
    /// Geometric cooling rate per iteration (e.g. 0.999).
    pub cooling: f64,
    /// Weight of the inter-host bandwidth term, as a fraction of its
    /// natural scale relative to the objective (0 disables it).
    pub bandwidth_weight: f64,
    /// Seed the search from HMN's Hosting+Migration fixpoint instead of a
    /// random placement. Because the annealer tracks the best placement
    /// visited (including the start), this guarantees the result is never
    /// worse than HMN's own placement.
    pub seed_with_hosting: bool,
    /// A\*Prune configuration for the final routing pass.
    pub astar: AStarPruneConfig,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            iterations: 20_000,
            initial_temperature_factor: 0.3,
            cooling: 0.9995,
            bandwidth_weight: 0.5,
            seed_with_hosting: true,
            astar: AStarPruneConfig::default(),
        }
    }
}

/// Simulated-annealing mapper.
#[derive(Clone, Copy, Debug, Default)]
pub struct Annealing {
    /// Configuration; the default anneals 20k proposals from a
    /// hosting-seeded start.
    pub config: AnnealingConfig,
}

/// The Metropolis loop over a complete placement, ending on the best
/// placement visited; returns the Migration span's counters.
fn anneal(
    cfg: &AnnealingConfig,
    state: &mut PlacementState<'_>,
    hosts: &[NodeId],
    best_placement: &mut Vec<NodeId>,
    displaced: &mut Vec<GuestId>,
    rng: &mut dyn RngCore,
) -> PhaseCounters {
    let venv = state.venv();
    let phys = state.phys();
    let guest_count = venv.guest_count();
    let bw_scale = {
        // Natural scale: average per-host CPU capacity per unit of the
        // total virtual bandwidth, folded so both terms are O(objective).
        let total_bw: f64 = venv.link_ids().map(|l| venv.link(l).bw.value()).sum();
        if total_bw > 0.0 {
            total_bw / phys.host_count() as f64
        } else {
            0.0
        }
    };
    let bw_enabled = cfg.bandwidth_weight != 0.0 && bw_scale != 0.0;
    let energy_of = |objective: f64, bw_inter: f64| {
        if bw_enabled {
            // Normalize the bandwidth term to the objective's scale so
            // neither dominates by unit choice.
            objective + cfg.bandwidth_weight * bw_inter / bw_scale
        } else {
            objective
        }
    };
    // The inter-host bandwidth is scanned once here and then maintained
    // as a running value: each proposal contributes an O(degree) delta.
    let mut bw_inter = if bw_enabled {
        state.inter_host_bandwidth().value()
    } else {
        0.0
    };
    let mut current = energy_of(state.objective(), bw_inter);
    let mut best_energy = current;
    best_placement.extend(
        venv.guest_ids()
            .map(|g| state.host_of(g).expect("complete")),
    );
    let mut temperature = (current * cfg.initial_temperature_factor).max(1e-6);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut proposals = 0usize;
    let delta_evals_before = state.delta_evaluations();
    let full_evals_before = state.full_evaluations();

    if guest_count > 0 && hosts.len() > 1 {
        for _ in 0..cfg.iterations {
            // Propose: move one random guest to one random other host.
            let g = GuestId::from_index(rng.gen_range(0..guest_count));
            let from = state.host_of(g).expect("complete");
            let to = hosts[rng.gen_range(0..hosts.len())];
            if to == from || !state.fits(g, to) {
                temperature *= cfg.cooling;
                continue;
            }
            // Delta evaluation: O(1) objective + O(degree) bandwidth,
            // with no state mutation. Accept commits the tracked
            // values; reject costs nothing.
            let objective_after = state.objective_if_migrated(g, to);
            let bw_after = if bw_enabled {
                bw_inter + state.inter_bandwidth_delta(g, to).value()
            } else {
                bw_inter
            };
            let proposed = energy_of(objective_after, bw_after);
            proposals += 1;
            let delta = proposed - current;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-12)).exp();
            if accept {
                state.migrate(g, to).expect("fit checked");
                current = proposed;
                bw_inter = bw_after;
                accepted += 1;
                if proposed < best_energy {
                    best_energy = proposed;
                    for (i, slot) in best_placement.iter_mut().enumerate() {
                        *slot = state.host_of(GuestId::from_index(i)).expect("complete");
                    }
                }
            } else {
                rejected += 1;
            }
            temperature *= cfg.cooling;
        }
    }

    // Restore the best placement visited. One-by-one migration could
    // transiently violate capacity (a swap needs both slots free at
    // once), so unassign every displaced guest first, then reassign —
    // the target state as a whole was feasible when recorded.
    displaced.extend(
        (0..guest_count)
            .map(GuestId::from_index)
            .filter(|&g| state.host_of(g) != Some(best_placement[g.index()])),
    );
    for &g in displaced.iter() {
        state.unassign(g);
    }
    for &g in displaced.iter() {
        state
            .assign(g, best_placement[g.index()])
            .expect("best placement was feasible when recorded");
    }
    PhaseCounters {
        moves_accepted: accepted as u64,
        moves_rejected: rejected as u64,
        proposals_evaluated: proposals as u64,
        delta_evaluations: state.delta_evaluations() - delta_evals_before,
        full_evaluations: state.full_evaluations() - full_evals_before,
        ..Default::default()
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

            // Borrow the reusable search buffers out of the cache for the
            // run; they go back before the Networking stage needs the whole
            // cache.
            cache.anneal.begin();
            let mut hosts = std::mem::take(&mut cache.anneal.hosts);
            let mut best_placement = std::mem::take(&mut cache.anneal.best);
            let mut displaced = std::mem::take(&mut cache.anneal.displaced);
            hosts.extend_from_slice(phys.hosts());

            // --- Initial placement.
            rec.try_phase(
                cache,
                Phase::Hosting,
                |_| {
                    if cfg.seed_with_hosting {
                        let h = hosting_stage(&mut state, &links, HostingPolicy::Paper)?;
                        migration_stage(&mut state);
                        return Ok(h.counters());
                    }
                    let mut fitting: Vec<NodeId> = Vec::with_capacity(hosts.len());
                    for g in venv.guest_ids() {
                        fitting.clear();
                        fitting.extend(hosts.iter().copied().filter(|&h| state.fits(g, h)));
                        if fitting.is_empty() {
                            return Err(MapError::HostingFailed { guest: g });
                        }
                        let pick = fitting[rng.gen_range(0..fitting.len())];
                        state.assign(g, pick).expect("candidate verified");
                    }
                    Ok(PhaseCounters::default())
                },
                |counters| *counters,
            )?;

            // --- Anneal.
            rec.phase(cache, Phase::Migration, |_| {
                let counters = anneal(
                    cfg,
                    &mut state,
                    &hosts,
                    &mut best_placement,
                    &mut displaced,
                    rng,
                );
                ((), counters)
            });

            // Return the (possibly grown) buffers to the cache for the next
            // run.
            cache.anneal.hosts = hosts;
            cache.anneal.best = best_placement;
            cache.anneal.displaced = displaced;

            // --- Route.
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
    fn annealing_improves_on_a_random_start() {
        let p = phys();
        let v = venv(30, 4);
        let none = Annealing {
            config: AnnealingConfig {
                iterations: 0,
                seed_with_hosting: false,
                ..Default::default()
            },
        }
        .map(&p, &v, &mut SmallRng::seed_from_u64(5))
        .unwrap();
        let annealed = Annealing {
            config: AnnealingConfig {
                iterations: 8_000,
                seed_with_hosting: false,
                bandwidth_weight: 0.0, // pure Eq. 10 for a clean comparison
                ..Default::default()
            },
        }
        .map(&p, &v, &mut SmallRng::seed_from_u64(5))
        .unwrap();
        assert!(
            annealed.objective <= none.objective,
            "annealing should not end worse than its random start: {} vs {}",
            annealed.objective,
            none.objective
        );
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
