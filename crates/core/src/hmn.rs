//! The **Hosting–Migration–Networking (HMN) heuristic** — the paper's
//! contribution (§4): three stages run in sequence.
//!
//! 1. [Hosting](crate::hosting) — affinity-driven preliminary placement;
//! 2. [Migration](crate::migration) — load-balance refinement of the
//!    placement (minimizing Eq. 10);
//! 3. [Networking](crate::networking) — widest-path routing of every
//!    virtual link with the modified 1-constrained A\*Prune.
//!
//! [`HmnConfig`] exposes the design decisions DESIGN.md calls out for
//! ablation (migration on/off, link ordering, path metric, lower-bound
//! pruning); the default is exactly the paper's algorithm.

use crate::astar_prune::{AStarPruneConfig, PathMetric};
use crate::cache::MapCache;
use crate::error::MapError;
use crate::hosting::{hosting_stage, links_by_descending_bw, HostingPolicy};
use crate::mapper::{MapOutcome, Mapper};
use crate::migration::{migration_counters, MigrationPolicy};
use crate::networking::networking_stage;
use crate::recorder::record_map;
use crate::state::PlacementState;
use emumap_model::{Mapping, PhysicalTopology, VLinkId, VirtualEnvironment};
use emumap_trace::Phase;
use rand::seq::SliceRandom;
use rand::RngCore;

/// In which order the Hosting and Networking stages consider virtual links.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LinkOrder {
    /// Descending bandwidth — the paper's order for both stages.
    #[default]
    DescendingBandwidth,
    /// Ascending bandwidth (ablation: the worst plausible order).
    AscendingBandwidth,
    /// Uniformly random order (ablation; uses the mapper's RNG).
    Random,
}

/// Configuration of the HMN heuristic. [`HmnConfig::default`] reproduces
/// the paper exactly.
#[derive(Clone, Copy, Debug)]
pub struct HmnConfig {
    /// Co-location rule in the Hosting stage (paper rule or the
    /// first-fit-colocation fix).
    pub hosting: HostingPolicy,
    /// Which Migration stage refinement to run (paper rule, exhaustive
    /// extension, or off for ablation).
    pub migration: MigrationPolicy,
    /// Link processing order for Hosting and Networking.
    pub link_order: LinkOrder,
    /// Path-selection metric in A\*Prune.
    pub path_metric: PathMetric,
    /// Use the Dijkstra latency lower bound when pruning in A\*Prune.
    pub use_latency_lower_bound: bool,
    /// Safety cap on A\*Prune expansions per link; the exact router of
    /// `prune_dominated` has none.
    pub max_expansions: usize,
    /// Route with exact per-level dominance instead of A\*Prune: one
    /// label per node at each bandwidth level, the same
    /// `(bottleneck, latency, hops)` triple, and a failure only when no
    /// path exists ([`AStarPruneConfig::prune_dominated`]). Off by default
    /// (the paper keeps every partial path); essential on topologies with
    /// massive equal-cost path multiplicity (fat-trees), where A\*Prune's
    /// frontier grows exponentially and exhausts `max_expansions` before
    /// any complete path pops.
    pub prune_dominated: bool,
}

impl Default for HmnConfig {
    fn default() -> Self {
        let astar = AStarPruneConfig::default();
        HmnConfig {
            hosting: HostingPolicy::Paper,
            migration: MigrationPolicy::Paper,
            link_order: LinkOrder::DescendingBandwidth,
            path_metric: astar.metric,
            use_latency_lower_bound: astar.use_latency_lower_bound,
            max_expansions: astar.max_expansions,
            prune_dominated: astar.prune_dominated,
        }
    }
}

impl HmnConfig {
    fn astar(&self) -> AStarPruneConfig {
        AStarPruneConfig {
            metric: self.path_metric,
            use_latency_lower_bound: self.use_latency_lower_bound,
            max_expansions: self.max_expansions,
            prune_dominated: self.prune_dominated,
        }
    }
}

/// The HMN mapper.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hmn {
    /// Configuration; default = the paper's algorithm.
    pub config: HmnConfig,
}

impl Hmn {
    /// HMN with the paper's configuration.
    pub fn new() -> Self {
        Hmn::default()
    }

    /// HMN with a custom configuration (ablations).
    pub fn with_config(config: HmnConfig) -> Self {
        Hmn { config }
    }

    fn ordered_links(&self, venv: &VirtualEnvironment, rng: &mut dyn RngCore) -> Vec<VLinkId> {
        match self.config.link_order {
            LinkOrder::DescendingBandwidth => links_by_descending_bw(venv),
            LinkOrder::AscendingBandwidth => {
                let mut links = links_by_descending_bw(venv);
                links.reverse();
                links
            }
            LinkOrder::Random => {
                let mut links: Vec<VLinkId> = venv.link_ids().collect();
                links.shuffle(rng);
                links
            }
        }
    }
}

impl Mapper for Hmn {
    fn name(&self) -> &str {
        "HMN"
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        let links = self.ordered_links(venv, rng);
        record_map("HMN", phys, venv, cache, |rec, cache| {
            let mut state = PlacementState::new(phys, venv);
            let order = rec.phase(cache, Phase::Hosting, |_| {
                let (hosted, stats) = hosting_stage(&mut state, &links, self.config.hosting);
                (hosted, stats.counters())
            })?;
            if self.config.migration != MigrationPolicy::Off {
                rec.phase(cache, Phase::Migration, |_| {
                    let counters = migration_counters(&mut state, order, self.config.migration);
                    ((), counters)
                });
            }
            let routes = rec.phase(cache, Phase::Networking, |cache| {
                networking_stage(&mut state, &links, &self.config.astar(), cache)
            })?;
            Ok(Mapping::new(state.into_placement(), routes))
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

    fn paper_like_phys() -> PhysicalTopology {
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

    fn small_venv(guests: usize, links: &[(usize, usize)]) -> VirtualEnvironment {
        let mut venv = VirtualEnvironment::new();
        let ids: Vec<_> = (0..guests)
            .map(|i| {
                venv.add_guest(GuestSpec::new(
                    Mips(50.0 + i as f64),
                    MemMb(192),
                    StorGb(150.0),
                ))
            })
            .collect();
        for (k, &(a, b)) in links.iter().enumerate() {
            venv.add_link(
                ids[a],
                ids[b],
                VLinkSpec::new(Kbps(500.0 + 10.0 * k as f64), Millis(45.0)),
            );
        }
        venv
    }

    #[test]
    fn hmn_produces_a_valid_mapping() {
        let phys = paper_like_phys();
        let venv = small_venv(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let outcome = Hmn::new().map(&phys, &venv, &mut rng).unwrap();
        assert_eq!(validate_mapping(&phys, &venv, &outcome.mapping), Ok(()));
        assert_eq!(outcome.stats.attempts, 1);
        assert_eq!(
            outcome.stats.routed_links + outcome.stats.intra_host_links,
            venv.link_count()
        );
    }

    #[test]
    fn hmn_is_deterministic() {
        let phys = paper_like_phys();
        let venv = small_venv(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let a = Hmn::new()
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(1))
            .unwrap();
        let b = Hmn::new()
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(999))
            .unwrap();
        assert_eq!(a.mapping, b.mapping, "HMN ignores the RNG");
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn prune_dominated_keeps_placement_and_validity() {
        // The exact router returns A*Prune's triples; the placement (fixed
        // before Networking runs) is untouched and the routed mapping
        // stays valid.
        let phys = paper_like_phys();
        let venv = small_venv(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let baseline = Hmn::new()
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(1))
            .unwrap();
        let pruned = Hmn::with_config(HmnConfig {
            prune_dominated: true,
            ..Default::default()
        })
        .map(&phys, &venv, &mut SmallRng::seed_from_u64(1))
        .unwrap();
        assert_eq!(validate_mapping(&phys, &venv, &pruned.mapping), Ok(()));
        assert_eq!(pruned.mapping.placement(), baseline.mapping.placement());
        assert_eq!(pruned.objective, baseline.objective);
    }

    #[test]
    fn migration_ablation_never_improves_objective() {
        let phys = paper_like_phys();
        let venv = small_venv(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
            ],
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let with = Hmn::new().map(&phys, &venv, &mut rng).unwrap();
        let without = Hmn::with_config(HmnConfig {
            migration: MigrationPolicy::Off,
            ..Default::default()
        })
        .map(&phys, &venv, &mut rng)
        .unwrap();
        assert!(
            with.objective <= without.objective + 1e-9,
            "migration must not worsen the objective ({} vs {})",
            with.objective,
            without.objective
        );
        assert_eq!(without.stats.migrations, 0);
    }

    #[test]
    fn hosting_failure_propagates() {
        // One tiny host cannot take two fat guests.
        let phys = PhysicalTopology::from_shape(
            &generators::line(1),
            std::iter::once(HostSpec::new(Mips(1000.0), MemMb(256), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(200), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(200), StorGb(1.0)));
        venv.add_link(a, b, VLinkSpec::new(Kbps(1.0), Millis(60.0)));
        let err = Hmn::new()
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(1))
            .unwrap_err();
        assert!(matches!(err, MapError::HostingFailed { .. }));
    }

    #[test]
    fn networking_failure_propagates() {
        // Two hosts, narrow link, virtual link demands more than capacity;
        // guests can't co-locate (memory).
        let phys = PhysicalTopology::from_shape(
            &generators::line(2),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(256), StorGb(100.0))),
            LinkSpec::new(Kbps(10.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(200), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(200), StorGb(1.0)));
        venv.add_link(a, b, VLinkSpec::new(Kbps(100.0), Millis(60.0)));
        let err = Hmn::new()
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(1))
            .unwrap_err();
        assert!(matches!(err, MapError::NetworkingFailed { .. }));
    }

    #[test]
    fn colocation_rescues_heavy_links_that_exceed_physical_capacity() {
        // §5.2's argument for Hosting: a virtual link demanding MORE than
        // any physical link can still be mapped by co-locating its guests.
        let phys = PhysicalTopology::from_shape(
            &generators::line(2),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0))),
            LinkSpec::new(Kbps(100.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(64), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(64), StorGb(1.0)));
        // 10x the physical link capacity.
        venv.add_link(a, b, VLinkSpec::new(Kbps(1000.0), Millis(60.0)));
        // Unconnected filler guests give the Migration stage something to
        // balance with, so it has no reason to split the heavy pair (its
        // candidate selection prefers guests with zero co-located
        // bandwidth).
        for _ in 0..2 {
            venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(64), StorGb(1.0)));
        }
        let outcome = Hmn::new()
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(1))
            .unwrap();
        assert_eq!(outcome.mapping.host_of(a), outcome.mapping.host_of(b));
        assert_eq!(validate_mapping(&phys, &venv, &outcome.mapping), Ok(()));
    }

    #[test]
    fn random_link_order_uses_rng_but_stays_valid() {
        let phys = paper_like_phys();
        let venv = small_venv(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let cfg = HmnConfig {
            link_order: LinkOrder::Random,
            ..Default::default()
        };
        let outcome = Hmn::with_config(cfg)
            .map(&phys, &venv, &mut SmallRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(validate_mapping(&phys, &venv, &outcome.mapping), Ok(()));
    }
}
