//! The evaluation's baseline mappers (§5):
//!
//! * [`RandomDfs`] (**R**) — "a mapping algorithm that randomly tries to
//!   map the guests to hosts and for each link in `E_v` applies a
//!   depth-first search algorithm to find a path". Both placement and
//!   routing are retried on failure ("in the Random approach, both mapping
//!   of guests and of virtual links were retried").
//! * [`RandomAStar`] (**RA**) — random placement, A\*Prune routing.
//! * [`HostingDfs`] (**HS**) — HMN's Hosting stage for placement (run
//!   once — it is deterministic), DFS routing with retries ("in [HS] only
//!   the last one were retried; so, if the initial mapping of guests did
//!   not allow a mapping of links, this heuristic fails").
//!
//! ### Retry budget
//!
//! The paper's random algorithm gives up "after 100000 tries". Replaying
//! 100 000 *complete* remap attempts of a 2000-guest/20000-link scenario is
//! minutes of wall-clock per failing run and failing runs dominate Table 2
//! (322/480 for R on the torus), so the default budget here is
//! [`DEFAULT_MAX_ATTEMPTS`] = 200 complete attempts. This preserves the
//! failure *shape*: success probability per attempt is roughly constant, so
//! a scenario that survives 200 independent attempts without a single
//! success is overwhelmingly likely to survive 100 000 too (and the
//! borderline region is narrow). The budget is a public field; pass
//! `100_000` to reproduce the paper's bound literally.

use crate::astar_prune::AStarPruneConfig;
use crate::cache::MapCache;
use crate::dfs_routing::DfsRouter;
use crate::error::MapError;
use crate::hosting::{hosting_stage, links_by_descending_bw, HostingPolicy};
use crate::mapper::{MapOutcome, Mapper};
use crate::networking::networking_stage;
use crate::recorder::{record_map, Recorder};
use crate::state::PlacementState;
use emumap_graph::NodeId;
use emumap_model::{Mapping, PhysicalTopology, Route, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// Default complete-attempt budget for the retrying baselines (see module
/// docs for why this is not the paper's literal 100 000).
pub const DEFAULT_MAX_ATTEMPTS: usize = 200;

/// Places every guest on a uniformly random host among those that fit it.
/// Returns `Err` with the first unplaceable guest.
fn random_placement(state: &mut PlacementState<'_>, rng: &mut dyn RngCore) -> Result<(), MapError> {
    let venv = state.venv();
    let hosts: Vec<NodeId> = state.phys().hosts().to_vec();
    let mut candidates: Vec<NodeId> = Vec::with_capacity(hosts.len());
    for g in venv.guest_ids() {
        candidates.clear();
        candidates.extend(hosts.iter().copied().filter(|&h| state.fits(g, h)));
        if candidates.is_empty() {
            return Err(MapError::HostingFailed { guest: g });
        }
        let pick = candidates[rng.gen_range(0..candidates.len())];
        state.assign(g, pick).expect("candidate verified");
    }
    Ok(())
}

/// [`random_placement`] as one attempt's Hosting span.
fn random_hosting(
    rec: &mut Recorder,
    cache: &mut MapCache,
    state: &mut PlacementState<'_>,
    rng: &mut dyn RngCore,
) -> Result<(), MapError> {
    rec.phase(cache, Phase::Hosting, |_| {
        (random_placement(state, rng), PhaseCounters::default())
    })
}

/// One DFS routing pass as an attempt's Networking span. Links are
/// routed in a fresh random order (the baseline has no ordering
/// insight); a failed pass releases its commitments, so `state` can be
/// routed again.
fn dfs_networking(
    rec: &mut Recorder,
    cache: &mut MapCache,
    state: &mut PlacementState<'_>,
    rng: &mut dyn RngCore,
) -> Result<Vec<Route>, MapError> {
    rec.phase(cache, Phase::Networking, |cache| {
        let mut order: Vec<_> = state.venv().link_ids().collect();
        order.shuffle(rng);
        networking_stage(state, &order, DfsRouter { rng }, cache)
    })
}

/// **R** — random placement + DFS routing, whole attempt retried.
#[derive(Clone, Copy, Debug)]
pub struct RandomDfs {
    /// Complete attempts before giving up.
    pub max_attempts: usize,
}

impl Default for RandomDfs {
    fn default() -> Self {
        RandomDfs {
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }
}

impl Mapper for RandomDfs {
    fn name(&self) -> &str {
        "R"
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        record_map("R", phys, venv, cache, |rec, cache| {
            let mut state = PlacementState::new(phys, venv);
            for attempt in 1..=self.max_attempts {
                rec.attempts = attempt;
                state.reset();
                if random_hosting(rec, cache, &mut state, rng).is_err() {
                    continue;
                }
                if let Ok(routes) = dfs_networking(rec, cache, &mut state, rng) {
                    return Ok(Mapping::new(state.into_placement(), routes));
                }
            }
            Err(MapError::RetriesExhausted {
                attempts: self.max_attempts,
            })
        })
    }
}

/// **RA** — random placement + A\*Prune routing, whole attempt retried.
#[derive(Clone, Copy, Debug)]
pub struct RandomAStar {
    /// Complete attempts before giving up.
    pub max_attempts: usize,
}

impl Default for RandomAStar {
    fn default() -> Self {
        RandomAStar {
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }
}

impl Mapper for RandomAStar {
    fn name(&self) -> &str {
        "RA"
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        let links = links_by_descending_bw(venv);
        record_map("RA", phys, venv, cache, |rec, cache| {
            let mut state = PlacementState::new(phys, venv);
            for attempt in 1..=self.max_attempts {
                rec.attempts = attempt;
                state.reset();
                if random_hosting(rec, cache, &mut state, rng).is_err() {
                    continue;
                }
                if let Ok(routes) = rec.phase(cache, Phase::Networking, |cache| {
                    networking_stage(&mut state, &links, &AStarPruneConfig::default(), cache)
                }) {
                    return Ok(Mapping::new(state.into_placement(), routes));
                }
            }
            Err(MapError::RetriesExhausted {
                attempts: self.max_attempts,
            })
        })
    }
}

/// **HS** — HMN Hosting for placement (once), DFS routing with retries.
#[derive(Clone, Copy, Debug)]
pub struct HostingDfs {
    /// Routing attempts before giving up (placement is fixed).
    pub max_attempts: usize,
}

impl Default for HostingDfs {
    fn default() -> Self {
        HostingDfs {
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }
}

impl Mapper for HostingDfs {
    fn name(&self) -> &str {
        "HS"
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        let links = links_by_descending_bw(venv);
        record_map("HS", phys, venv, cache, |rec, cache| {
            let mut state = PlacementState::new(phys, venv);
            rec.phase(cache, Phase::Hosting, |_| {
                let (hosted, stats) = hosting_stage(&mut state, &links, HostingPolicy::Paper);
                (hosted.map(drop), stats.counters())
            })?;
            for attempt in 1..=self.max_attempts {
                rec.attempts = attempt;
                // A failed pass released its commitments.
                if let Ok(routes) = dfs_networking(rec, cache, &mut state, rng) {
                    return Ok(Mapping::new(state.into_placement(), routes));
                }
            }
            Err(MapError::RetriesExhausted {
                attempts: self.max_attempts,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn venv(n: usize) -> VirtualEnvironment {
        let mut v = VirtualEnvironment::new();
        let ids: Vec<_> = (0..n)
            .map(|_| v.add_guest(GuestSpec::new(Mips(75.0), MemMb(192), StorGb(150.0))))
            .collect();
        for w in ids.windows(2) {
            v.add_link(w[0], w[1], VLinkSpec::new(Kbps(750.0), Millis(45.0)));
        }
        v
    }

    #[test]
    fn all_three_baselines_produce_valid_mappings() {
        let p = phys();
        let v = venv(10);
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(RandomDfs::default()),
            Box::new(RandomAStar::default()),
            Box::new(HostingDfs::default()),
        ];
        for m in &mappers {
            let mut rng = SmallRng::seed_from_u64(7);
            let out = m
                .map(&p, &v, &mut rng)
                .unwrap_or_else(|e| panic!("{} failed: {e}", m.name()));
            assert_eq!(
                validate_mapping(&p, &v, &out.mapping),
                Ok(()),
                "{} produced an invalid mapping",
                m.name()
            );
        }
    }

    #[test]
    fn random_mappers_vary_with_seed() {
        let p = phys();
        let v = venv(10);
        let m = RandomDfs::default();
        let a = m.map(&p, &v, &mut SmallRng::seed_from_u64(1)).unwrap();
        let b = m.map(&p, &v, &mut SmallRng::seed_from_u64(2)).unwrap();
        // Not guaranteed in principle, but with 12 hosts and 10 guests two
        // seeds colliding on the identical placement is (1/12)^10-ish.
        assert_ne!(a.mapping.placement(), b.mapping.placement());
    }

    #[test]
    fn random_is_reproducible_per_seed() {
        let p = phys();
        let v = venv(10);
        let m = RandomAStar::default();
        let a = m.map(&p, &v, &mut SmallRng::seed_from_u64(3)).unwrap();
        let b = m.map(&p, &v, &mut SmallRng::seed_from_u64(3)).unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn warm_cache_reproduces_cold_outcomes_for_all_baselines() {
        // The cache must be invisible: same seed, same mapping, whether the
        // caches/scratch are cold, warm from the same trial, or warm from a
        // different mapper's trials.
        let p = phys();
        let v = venv(10);
        let mut cache = MapCache::new();
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(RandomDfs::default()),
            Box::new(RandomAStar::default()),
            Box::new(HostingDfs::default()),
        ];
        for m in &mappers {
            let cold = m.map(&p, &v, &mut SmallRng::seed_from_u64(7)).unwrap();
            for round in 0..2 {
                let warm = m
                    .map_with_cache(&p, &v, &mut SmallRng::seed_from_u64(7), &mut cache)
                    .unwrap();
                assert_eq!(cold.mapping, warm.mapping, "{} round {round}", m.name());
                assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
            }
        }
        assert!(
            cache.topo.hits() > 0,
            "second rounds must hit the shared tables"
        );
    }

    #[test]
    fn impossible_scenario_exhausts_retries() {
        // Guests that fit nowhere.
        let p = phys();
        let mut v = VirtualEnvironment::new();
        let a = v.add_guest(GuestSpec::new(Mips(1.0), MemMb::from_gb(100), StorGb(1.0)));
        let b = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(1), StorGb(1.0)));
        v.add_link(a, b, VLinkSpec::new(Kbps(1.0), Millis(60.0)));
        let m = RandomDfs { max_attempts: 5 };
        let err = m.map(&p, &v, &mut SmallRng::seed_from_u64(1)).unwrap_err();
        assert_eq!(err, MapError::RetriesExhausted { attempts: 5 });
    }

    #[test]
    fn hosting_failure_fails_hs_without_retries() {
        // HS does not retry placement: an impossible hosting fails
        // immediately with HostingFailed, not RetriesExhausted.
        let p = phys();
        let mut v = VirtualEnvironment::new();
        let a = v.add_guest(GuestSpec::new(Mips(1.0), MemMb::from_gb(100), StorGb(1.0)));
        let b = v.add_guest(GuestSpec::new(Mips(1.0), MemMb(1), StorGb(1.0)));
        v.add_link(a, b, VLinkSpec::new(Kbps(1.0), Millis(60.0)));
        let err = HostingDfs::default()
            .map(&p, &v, &mut SmallRng::seed_from_u64(1))
            .unwrap_err();
        assert!(matches!(err, MapError::HostingFailed { .. }));
    }

    #[test]
    fn ra_attempt_counter_reports_retries() {
        // A scenario RA can map but R-style placement sometimes routes on
        // the first try; just assert the counter is within budget and >= 1.
        let p = phys();
        let v = venv(6);
        let out = RandomAStar::default()
            .map(&p, &v, &mut SmallRng::seed_from_u64(11))
            .unwrap();
        assert!(out.stats.attempts >= 1);
        assert!(out.stats.attempts <= DEFAULT_MAX_ATTEMPTS);
    }

    #[test]
    fn released_routes_leave_residuals_clean_after_hs_retry() {
        // Force at least one routing retry by giving HS a tight latency
        // budget on a ring (DFS may wander), then verify the final mapping
        // still validates (a leak of committed bandwidth would surface as
        // a BandwidthExceeded violation on some seed).
        let p = PhysicalTopology::from_shape(
            &generators::ring(8),
            std::iter::repeat(HostSpec::new(Mips(2000.0), MemMb(512), StorGb(500.0))),
            LinkSpec::new(Kbps(2000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut v = VirtualEnvironment::new();
        let ids: Vec<_> = (0..8)
            .map(|_| v.add_guest(GuestSpec::new(Mips(75.0), MemMb(256), StorGb(100.0))))
            .collect();
        for i in 0..8 {
            v.add_link(
                ids[i],
                ids[(i + 1) % 8],
                VLinkSpec::new(Kbps(900.0), Millis(10.0)),
            );
        }
        for seed in 0..10 {
            if let Ok(out) = HostingDfs::default().map(&p, &v, &mut SmallRng::seed_from_u64(seed)) {
                assert_eq!(
                    validate_mapping(&p, &v, &out.mapping),
                    Ok(()),
                    "seed {seed}"
                );
            }
        }
    }
}
