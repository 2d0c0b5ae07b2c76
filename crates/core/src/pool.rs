//! The heuristic pool sketched in the paper's future work (§6): "offer to
//! the emulator a pool of different heuristics that might be selected
//! according to the emulated scenario."

use crate::cache::MapCache;
use crate::error::MapError;
use crate::mapper::{MapOutcome, Mapper};
use emumap_model::{PhysicalTopology, VirtualEnvironment};
use rand::RngCore;

/// How the pool combines its members.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Return the first member that succeeds (members ordered by
    /// preference). Cheapest; matches "fall back when HMN fails".
    #[default]
    FirstSuccess,
    /// Run every member and return the success with the lowest objective
    /// (Eq. 10). Most thorough; costs the sum of all members.
    BestObjective,
}

/// A pool of mappers combined under a [`PoolPolicy`].
pub struct HeuristicPool {
    name: String,
    members: Vec<Box<dyn Mapper>>,
    policy: PoolPolicy,
}

impl HeuristicPool {
    /// A pool over `members` (preference order matters for
    /// [`PoolPolicy::FirstSuccess`]).
    pub fn new(members: Vec<Box<dyn Mapper>>, policy: PoolPolicy) -> Self {
        assert!(
            !members.is_empty(),
            "a heuristic pool needs at least one member"
        );
        let name = format!(
            "pool[{}]",
            members
                .iter()
                .map(|m| m.name())
                .collect::<Vec<_>>()
                .join("+")
        );
        HeuristicPool {
            name,
            members,
            policy,
        }
    }
}

impl Mapper for HeuristicPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        match self.policy {
            PoolPolicy::FirstSuccess => {
                let mut last_err = None;
                for m in &self.members {
                    match m.map_with_cache(phys, venv, rng, cache) {
                        Ok(out) => return Ok(out),
                        Err(e) => last_err = Some(e),
                    }
                }
                Err(last_err.expect("pool is non-empty"))
            }
            PoolPolicy::BestObjective => {
                let mut best: Option<MapOutcome> = None;
                let mut last_err = None;
                for m in &self.members {
                    match m.map_with_cache(phys, venv, rng, cache) {
                        Ok(out) => {
                            let better = best
                                .as_ref()
                                .map(|b| out.objective < b.objective)
                                .unwrap_or(true);
                            if better {
                                best = Some(out);
                            }
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                best.ok_or_else(|| last_err.expect("all members failed"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MapError;
    use crate::mapper::MapStats;
    use emumap_model::{GuestId, Mapping, Route};

    /// A mapper that always fails.
    struct AlwaysFails;
    impl Mapper for AlwaysFails {
        fn name(&self) -> &str {
            "fail"
        }
        fn map_with_cache(
            &self,
            _phys: &PhysicalTopology,
            _venv: &VirtualEnvironment,
            _rng: &mut dyn RngCore,
            _cache: &mut MapCache,
        ) -> Result<MapOutcome, MapError> {
            Err(MapError::HostingFailed {
                guest: GuestId::from_index(0),
            })
        }
    }

    /// A mapper that places everything on one fixed host.
    struct FixedHost(usize);
    impl Mapper for FixedHost {
        fn name(&self) -> &str {
            "fixed"
        }
        fn map_with_cache(
            &self,
            phys: &PhysicalTopology,
            venv: &VirtualEnvironment,
            _rng: &mut dyn RngCore,
            _cache: &mut MapCache,
        ) -> Result<MapOutcome, MapError> {
            let host = phys.hosts()[self.0];
            let mapping = Mapping::new(
                vec![host; venv.guest_count()],
                vec![Route::intra_host(); venv.link_count()],
            );
            Ok(MapOutcome::new(phys, venv, mapping, MapStats::default()))
        }
    }

    fn setup() -> (PhysicalTopology, VirtualEnvironment) {
        use emumap_graph::generators;
        use emumap_model::{
            GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, StorGb, VmmOverhead,
        };
        let phys = PhysicalTopology::from_shape(
            &generators::line(2),
            [
                HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(100.0)),
                HostSpec::new(Mips(2000.0), MemMb(4096), StorGb(100.0)),
            ]
            .into_iter(),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        venv.add_guest(GuestSpec::new(Mips(500.0), MemMb(64), StorGb(1.0)));
        venv.add_guest(GuestSpec::new(Mips(500.0), MemMb(64), StorGb(1.0)));
        (phys, venv)
    }

    #[test]
    fn first_success_skips_failures() {
        let (phys, venv) = setup();
        let pool = HeuristicPool::new(
            vec![Box::new(AlwaysFails), Box::new(FixedHost(0))],
            PoolPolicy::FirstSuccess,
        );
        let out = pool
            .map(&phys, &venv, &mut rand::rngs::mock::StepRng::new(0, 1))
            .unwrap();
        assert_eq!(out.mapping.hosts_used(), 1);
        assert_eq!(pool.name(), "pool[fail+fixed]");
    }

    #[test]
    fn best_objective_picks_the_lower_stddev() {
        let (phys, venv) = setup();
        // Host 0 (1000 MIPS): all guests there -> residuals (0, 2000),
        // stddev 1000. Host 1 (2000 MIPS): residuals (1000, 1000) ->
        // stddev 0. BestObjective must choose host 1.
        let pool = HeuristicPool::new(
            vec![Box::new(FixedHost(0)), Box::new(FixedHost(1))],
            PoolPolicy::BestObjective,
        );
        let out = pool
            .map(&phys, &venv, &mut rand::rngs::mock::StepRng::new(0, 1))
            .unwrap();
        assert_eq!(out.objective, 0.0);
        assert_eq!(out.mapping.host_of(GuestId::from_index(0)), phys.hosts()[1]);
    }

    #[test]
    fn all_failures_surface_the_last_error() {
        let (phys, venv) = setup();
        for policy in [PoolPolicy::FirstSuccess, PoolPolicy::BestObjective] {
            let pool =
                HeuristicPool::new(vec![Box::new(AlwaysFails), Box::new(AlwaysFails)], policy);
            let err = pool
                .map(&phys, &venv, &mut rand::rngs::mock::StepRng::new(0, 1))
                .unwrap_err();
            assert!(matches!(err, MapError::HostingFailed { .. }));
        }
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_pool_panics() {
        let _ = HeuristicPool::new(vec![], PoolPolicy::FirstSuccess);
    }
}
