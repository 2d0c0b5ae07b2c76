//! The consolidation objective from the paper's future work (§6): "one
//! could be interested in a mapping whose goal is to minimize the amount of
//! hosts used in each emulation. Variations in the HMN heuristic in order
//! to attend such different objective functions are also subject of current
//! research."
//!
//! [`ConsolidatingHmn`] is such a variation: Hosting and Networking are
//! unchanged, but the Migration stage is replaced by a **drain** pass that
//! tries to empty lightly-used hosts entirely, packing their guests into
//! the remaining used hosts (first-fit by descending residual memory). A
//! host is drained only if *all* of its guests can be relocated — partial
//! drains would not reduce the hosts-used count and would hurt balance for
//! nothing.

use crate::astar_prune::AStarPruneConfig;
use crate::cache::MapCache;
use crate::error::MapError;
use crate::hosting::{hosting_stage, links_by_descending_bw, HostingPolicy};
use crate::mapper::{MapOutcome, Mapper};
use crate::networking::networking_stage;
use crate::recorder::record_map;
use crate::state::PlacementState;
use emumap_graph::NodeId;
use emumap_model::{GuestId, Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters};
use rand::RngCore;

/// Statistics from a drain pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Hosts emptied.
    pub hosts_drained: usize,
    /// Guests relocated.
    pub guests_moved: usize,
    /// Hosts in use after the pass.
    pub hosts_used_after: usize,
}

/// Tries to empty occupied hosts, starting from the least-occupied (fewest
/// guests, ties by id). Repeats until no host can be fully drained.
pub fn drain_stage(state: &mut PlacementState<'_>) -> DrainStats {
    assert!(state.is_complete(), "drain requires a complete assignment");
    let mut stats = DrainStats::default();

    'outer: loop {
        // Occupied hosts ordered by ascending guest count.
        let mut occupied: Vec<NodeId> = state
            .phys()
            .hosts()
            .iter()
            .copied()
            .filter(|&h| !state.guests_on(h).is_empty())
            .collect();
        occupied.sort_by_key(|&h| (state.guests_on(h).len(), h));

        for &victim in &occupied {
            if let Some(moved) = try_drain(state, victim, &occupied) {
                stats.hosts_drained += 1;
                stats.guests_moved += moved;
                continue 'outer; // re-plan from scratch: occupancy changed
            }
        }
        break;
    }

    stats.hosts_used_after = state
        .phys()
        .hosts()
        .iter()
        .filter(|&&h| !state.guests_on(h).is_empty())
        .count();
    stats
}

/// Attempts to move every guest off `victim` into the other occupied
/// hosts. All-or-nothing: rolls back and returns `None` if any guest
/// cannot be relocated; otherwise returns how many guests moved.
fn try_drain(state: &mut PlacementState<'_>, victim: NodeId, occupied: &[NodeId]) -> Option<usize> {
    let guests: Vec<GuestId> = state.guests_on(victim).to_vec();
    if guests.is_empty() {
        return None;
    }
    let mut moved: Vec<(GuestId, NodeId)> = Vec::with_capacity(guests.len());
    for g in &guests {
        // Destinations: other occupied hosts, fullest-memory-first so big
        // holes are preserved for big guests later (first-fit-decreasing
        // flavour).
        let mut dests: Vec<NodeId> = occupied
            .iter()
            .copied()
            .filter(|&h| h != victim && !state.guests_on(h).is_empty())
            .collect();
        dests.sort_by(|&a, &b| {
            state
                .residual()
                .mem(b)
                .cmp(&state.residual().mem(a))
                .then(a.cmp(&b))
        });
        let Some(dest) = dests.into_iter().find(|&h| state.fits(*g, h)) else {
            // Roll back what we moved so far.
            for (g, _) in moved {
                state
                    .migrate(g, victim)
                    .expect("guest came from the victim");
            }
            return None;
        };
        state.migrate(*g, dest).expect("fit checked");
        moved.push((*g, dest));
    }
    Some(moved.len())
}

/// HMN variant optimizing hosts-used instead of load balance.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsolidatingHmn;

impl Mapper for ConsolidatingHmn {
    fn name(&self) -> &str {
        "HMN-consolidate"
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        _rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        let links = links_by_descending_bw(venv);
        record_map("HMN-consolidate", phys, venv, cache, |rec, cache| {
            let mut state = PlacementState::new(phys, venv);
            rec.phase(cache, Phase::Hosting, |_| {
                let (hosted, stats) = hosting_stage(&mut state, &links, HostingPolicy::Paper);
                (hosted.map(drop), stats.counters())
            })?;
            // The drain pass stands in for Migration: its relocations are
            // the moves it accepted.
            rec.phase(cache, Phase::Migration, |_| {
                let drain = drain_stage(&mut state);
                let counters = PhaseCounters {
                    moves_accepted: drain.guests_moved as u64,
                    ..Default::default()
                };
                ((), counters)
            });
            let routes = rec.phase(cache, Phase::Networking, |cache| {
                networking_stage(&mut state, &links, &AStarPruneConfig::default(), cache)
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

    fn phys(n: usize) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::ring(n),
            std::iter::repeat(HostSpec::new(Mips(2000.0), MemMb(1024), StorGb(1000.0))),
            LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    #[test]
    fn drain_consolidates_spread_guests() {
        let p = phys(4);
        let mut venv = VirtualEnvironment::new();
        let guests: Vec<_> = (0..4)
            .map(|_| venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(128), StorGb(10.0))))
            .collect();
        let mut st = PlacementState::new(&p, &venv);
        // One guest per host — maximally spread.
        for (i, &g) in guests.iter().enumerate() {
            st.assign(g, p.hosts()[i]).unwrap();
        }
        let stats = drain_stage(&mut st);
        // 1024 MB hosts can take all four 128 MB guests: one host suffices.
        assert_eq!(stats.hosts_used_after, 1);
        assert!(stats.hosts_drained >= 3);
    }

    #[test]
    fn drain_is_all_or_nothing() {
        let p = phys(2);
        let mut venv = VirtualEnvironment::new();
        // Host capacity 1024 MB. Host 0: one 600 MB guest. Host 1: two
        // guests (600 + 300). Neither host can absorb the other fully.
        let a = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(600), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(600), StorGb(1.0)));
        let c = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(300), StorGb(1.0)));
        let mut st = PlacementState::new(&p, &venv);
        st.assign(a, p.hosts()[0]).unwrap();
        st.assign(b, p.hosts()[1]).unwrap();
        st.assign(c, p.hosts()[1]).unwrap();
        let stats = drain_stage(&mut st);
        assert_eq!(stats.hosts_drained, 0);
        assert_eq!(stats.hosts_used_after, 2);
        // Nothing moved.
        assert_eq!(st.host_of(a), Some(p.hosts()[0]));
        assert_eq!(st.host_of(b), Some(p.hosts()[1]));
        assert_eq!(st.host_of(c), Some(p.hosts()[1]));
    }

    #[test]
    fn consolidating_hmn_uses_fewer_hosts_than_plain_hmn() {
        use crate::hmn::Hmn;
        let p = phys(8);
        let mut venv = VirtualEnvironment::new();
        let ids: Vec<_> = (0..8)
            .map(|_| venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(128), StorGb(10.0))))
            .collect();
        for w in ids.windows(2) {
            venv.add_link(w[0], w[1], VLinkSpec::new(Kbps(100.0), Millis(60.0)));
        }
        let mut rng = SmallRng::seed_from_u64(1);
        let plain = Hmn::new().map(&p, &venv, &mut rng).unwrap();
        let packed = ConsolidatingHmn.map(&p, &venv, &mut rng).unwrap();
        assert!(
            packed.mapping.hosts_used() <= plain.mapping.hosts_used(),
            "consolidation must not use more hosts ({} vs {})",
            packed.mapping.hosts_used(),
            plain.mapping.hosts_used()
        );
        assert_eq!(validate_mapping(&p, &venv, &packed.mapping), Ok(()));
    }

    #[test]
    fn drained_mapping_still_validates() {
        let p = phys(6);
        let mut venv = VirtualEnvironment::new();
        let ids: Vec<_> = (0..12)
            .map(|_| venv.add_guest(GuestSpec::new(Mips(50.0), MemMb(150), StorGb(20.0))))
            .collect();
        for w in ids.windows(2) {
            venv.add_link(w[0], w[1], VLinkSpec::new(Kbps(500.0), Millis(45.0)));
        }
        let out = ConsolidatingHmn
            .map(&p, &venv, &mut SmallRng::seed_from_u64(2))
            .unwrap();
        assert_eq!(validate_mapping(&p, &venv, &out.mapping), Ok(()));
    }
}
