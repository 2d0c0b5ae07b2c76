//! HMN stage 1 — **Hosting** (§4.1): a preliminary assignment of guests to
//! hosts driven by network affinity.
//!
//! Virtual links are processed in descending bandwidth order; wherever
//! possible both endpoints of a high-bandwidth link land on the same host,
//! so that the heaviest traffic never touches the physical network. The
//! host list is a [`HostOrder`] by descending residual CPU, so the hosts
//! with the most free CPU are preferred early (the balance itself is
//! refined later by Migration).
//!
//! There is one host order per map. [`hosting_stage`] builds it once and
//! re-keys one host per assignment in O(log n) — the paper's re-sort
//! "considering the new CPU availabilities" without sorting — and returns
//! it, so Migration starts from it instead of sorting the hosts again.

use crate::error::MapError;
use crate::state::{HostOrder, PlacementState};
use emumap_graph::NodeId;
use emumap_model::{GuestId, VLinkId, VirtualEnvironment};
use emumap_trace::PhaseCounters;

/// How the Hosting stage attempts co-location of an unmapped link's
/// endpoint pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HostingPolicy {
    /// §4.1 verbatim: co-location is only attempted on *the first host of
    /// the CPU-sorted list*; if the pair does not fit there, the guests
    /// are split — even when a later host could take both. (This is the
    /// quirk the `heuristic_pool` example exploits to make HMN fail.)
    #[default]
    Paper,
    /// §6-style fix: scan the CPU-sorted list for the first host that fits
    /// *both* guests before giving up on co-location. Strictly more
    /// links end up intra-host; costs one extra scan per unmapped pair.
    FirstFitColocation,
}

/// What the Hosting stage did, for observability: how often co-location
/// succeeded vs. how often placement fell back to a first-fit scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostingStats {
    /// Link-driven co-location decisions that landed guests together on
    /// one host (pair co-locations plus anchor pulls onto a mapped peer).
    pub colocation_hits: usize,
    /// Guests placed by a first-fit scan after co-location was impossible
    /// or inapplicable (split pairs, anchor fallbacks, self-loops,
    /// isolated leftovers).
    pub first_fit_fallbacks: usize,
}

impl HostingStats {
    /// The trace-facing view of these counters.
    pub fn counters(&self) -> PhaseCounters {
        PhaseCounters {
            colocation_hits: self.colocation_hits as u64,
            first_fit_fallbacks: self.first_fit_fallbacks as u64,
            ..Default::default()
        }
    }
}

/// Virtual links sorted by descending bandwidth demand (the paper's
/// processing order), ties broken by id for determinism.
pub fn links_by_descending_bw(venv: &VirtualEnvironment) -> Vec<VLinkId> {
    let mut links: Vec<VLinkId> = venv.link_ids().collect();
    links.sort_by(|&a, &b| {
        venv.link(b)
            .bw
            .partial_cmp(&venv.link(a).bw)
            .expect("bandwidths are finite")
            .then(a.cmp(&b))
    });
    links
}

/// First host in `order` that fits `guest`, or `None`. Deliberately *not*
/// bitset-based: this scan usually stops at the first few hosts, while
/// [`emumap_model::ResidualState::fill_feasible`] always pays the full
/// column pass (Greedy, which filters every candidate anyway, uses it).
fn first_fit(state: &PlacementState<'_>, order: &HostOrder, guest: GuestId) -> Option<NodeId> {
    order.iter(state).find(|&h| state.fits(guest, h))
}

/// Runs the Hosting stage over `links` with the co-location rule of
/// `policy` ([`HostingPolicy::Paper`] is the paper's). Mutates `state`; on
/// failure the state is left partially assigned (callers either abort or
/// reset). On success returns the [`HostOrder`] of the final residuals,
/// which Migration takes over. The co-location/fallback counts come back
/// either way — on failure they count the decisions made up to the guest
/// that found no host.
pub fn hosting_stage(
    state: &mut PlacementState<'_>,
    links: &[VLinkId],
    policy: HostingPolicy,
) -> (Result<HostOrder, MapError>, HostingStats) {
    let mut stats = HostingStats::default();
    let mut order = HostOrder::new(state);
    let hosted = place_guests(state, &mut order, links, policy, &mut stats);
    (hosted.map(|()| order), stats)
}

/// The body of [`hosting_stage`], counting into `stats` as it goes. Every
/// assignment goes through `order`, which stays the descending-CPU list
/// the paper re-sorts after each one.
fn place_guests(
    state: &mut PlacementState<'_>,
    order: &mut HostOrder,
    links: &[VLinkId],
    policy: HostingPolicy,
    stats: &mut HostingStats,
) -> Result<(), MapError> {
    let venv = state.venv();
    for &l in links {
        let (vs, vd) = venv.link_endpoints(l);
        match (state.host_of(vs), state.host_of(vd)) {
            // Both endpoints already mapped: nothing to do.
            (Some(_), Some(_)) => continue,

            // Neither mapped: try to co-locate on the first (most CPU
            // available) host; otherwise place the most CPU-intensive
            // guest first-fit and the other one after it.
            (None, None) => {
                if vs == vd {
                    // Self-loop virtual link: place its single guest.
                    let h =
                        first_fit(state, order, vs).ok_or(MapError::HostingFailed { guest: vs })?;
                    order
                        .assign(state, vs, h)
                        .expect("first_fit verified capacity");
                    stats.first_fit_fallbacks += 1;
                    continue;
                }
                let fits_both = |state: &PlacementState<'_>, host: NodeId| {
                    let (gs, gd) = (venv.guest(vs), venv.guest(vd));
                    let r = state.residual();
                    r.mem(host).value() >= gs.mem.value() + gd.mem.value()
                        && r.stor(host).value() >= gs.stor.value() + gd.stor.value()
                };
                let colocate_on = match policy {
                    HostingPolicy::Paper => order
                        .iter(state)
                        .next()
                        .filter(|&top| fits_both(state, top)),
                    HostingPolicy::FirstFitColocation => {
                        order.iter(state).find(|&h| fits_both(state, h))
                    }
                };
                if let Some(host) = colocate_on {
                    order
                        .assign(state, vs, host)
                        .expect("combined fit verified");
                    order
                        .assign(state, vd, host)
                        .expect("combined fit verified");
                    stats.colocation_hits += 1;
                } else {
                    // "the most CPU-intensive guest is assigned to the
                    // first host in the list able to receive the guest"
                    let (g1, g2) = if venv.guest(vs).proc.value() >= venv.guest(vd).proc.value() {
                        (vs, vd)
                    } else {
                        (vd, vs)
                    };
                    let h1 =
                        first_fit(state, order, g1).ok_or(MapError::HostingFailed { guest: g1 })?;
                    order
                        .assign(state, g1, h1)
                        .expect("first_fit verified capacity");
                    let h2 =
                        first_fit(state, order, g2).ok_or(MapError::HostingFailed { guest: g2 })?;
                    order
                        .assign(state, g2, h2)
                        .expect("first_fit verified capacity");
                    stats.first_fit_fallbacks += 2;
                }
            }

            // Exactly one mapped: pull the unmapped guest onto its peer's
            // host, falling back to first-fit.
            (mapped, unmapped_side) => {
                let (anchor_host, free) = match (mapped, unmapped_side) {
                    (Some(h), None) => (h, vd),
                    (None, Some(h)) => (h, vs),
                    _ => unreachable!("remaining patterns handled above"),
                };
                let target = if state.fits(free, anchor_host) {
                    stats.colocation_hits += 1;
                    anchor_host
                } else {
                    stats.first_fit_fallbacks += 1;
                    first_fit(state, order, free).ok_or(MapError::HostingFailed { guest: free })?
                };
                order.assign(state, free, target).expect("fit verified");
            }
        }
    }

    // Guests untouched by any link (isolated nodes — the paper's generator
    // never produces them because it guarantees connectivity, but the
    // public API accepts arbitrary virtual environments): place them
    // most-CPU-intensive first, first-fit.
    let mut leftovers: Vec<GuestId> = venv
        .guest_ids()
        .filter(|&g| state.host_of(g).is_none())
        .collect();
    leftovers.sort_by(|&a, &b| {
        venv.guest(b)
            .proc
            .partial_cmp(&venv.guest(a).proc)
            .expect("CPU demands are finite")
            .then(a.cmp(&b))
    });
    for g in leftovers {
        let h = first_fit(state, order, g).ok_or(MapError::HostingFailed { guest: g })?;
        order
            .assign(state, g, h)
            .expect("first_fit verified capacity");
        stats.first_fit_fallbacks += 1;
    }

    debug_assert!(state.is_complete());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb,
        VLinkSpec, VmmOverhead,
    };

    /// The paper's Hosting stage over every link, heaviest first.
    fn host_paper(st: &mut PlacementState<'_>) -> Result<HostingStats, MapError> {
        let links = links_by_descending_bw(st.venv());
        let (hosted, stats) = hosting_stage(st, &links, HostingPolicy::Paper);
        hosted.map(|_| stats)
    }

    fn phys_uniform(n: usize, mem_mb: u64) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::ring(n),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(mem_mb), StorGb(1000.0))),
            LinkSpec::new(Kbps(1_000_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    fn guest(mem: u64) -> GuestSpec {
        GuestSpec::new(Mips(50.0), MemMb(mem), StorGb(1.0))
    }

    fn link(bw: f64) -> VLinkSpec {
        VLinkSpec::new(Kbps(bw), Millis(60.0))
    }

    #[test]
    fn links_sorted_by_descending_bw_with_stable_ties() {
        let mut venv = VirtualEnvironment::new();
        let g: Vec<_> = (0..4).map(|_| venv.add_guest(guest(10))).collect();
        let l0 = venv.add_link(g[0], g[1], link(100.0));
        let l1 = venv.add_link(g[1], g[2], link(300.0));
        let l2 = venv.add_link(g[2], g[3], link(100.0));
        assert_eq!(links_by_descending_bw(&venv), vec![l1, l0, l2]);
    }

    #[test]
    fn high_bandwidth_endpoints_are_colocated() {
        let phys = phys_uniform(4, 1024);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest(100));
        let b = venv.add_guest(guest(100));
        let c = venv.add_guest(guest(100));
        venv.add_link(a, b, link(1000.0)); // heavy: co-locate
        venv.add_link(b, c, link(1.0)); // light
        let mut st = PlacementState::new(&phys, &venv);
        host_paper(&mut st).unwrap();
        assert_eq!(st.host_of(a), st.host_of(b));
        // c joins b's host too (it fits), per the one-mapped rule.
        assert_eq!(st.host_of(c), st.host_of(b));
    }

    #[test]
    fn splits_pair_when_they_do_not_fit_together() {
        // Hosts hold 150 MB; two 100 MB guests cannot share one.
        let phys = phys_uniform(4, 150);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(90.0), MemMb(100), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(100), StorGb(1.0)));
        venv.add_link(a, b, link(1000.0));
        let mut st = PlacementState::new(&phys, &venv);
        host_paper(&mut st).unwrap();
        assert_ne!(st.host_of(a), st.host_of(b));
        assert!(st.is_complete());
    }

    #[test]
    fn already_mapped_peer_attracts_unmapped_guest() {
        let phys = phys_uniform(4, 1024);
        let mut venv = VirtualEnvironment::new();
        let g: Vec<_> = (0..3).map(|_| venv.add_guest(guest(100))).collect();
        // Processing order: (g0,g1) first (heaviest), then (g1,g2).
        venv.add_link(g[0], g[1], link(500.0));
        venv.add_link(g[1], g[2], link(400.0));
        let mut st = PlacementState::new(&phys, &venv);
        host_paper(&mut st).unwrap();
        assert_eq!(st.host_of(g[2]), st.host_of(g[1]));
    }

    #[test]
    fn overflow_spills_to_next_host() {
        // Host memory 250 MB: holds two 100 MB guests but not three.
        let phys = phys_uniform(3, 250);
        let mut venv = VirtualEnvironment::new();
        let g: Vec<_> = (0..3).map(|_| venv.add_guest(guest(100))).collect();
        venv.add_link(g[0], g[1], link(900.0));
        venv.add_link(g[1], g[2], link(800.0));
        let mut st = PlacementState::new(&phys, &venv);
        host_paper(&mut st).unwrap();
        assert_eq!(st.host_of(g[0]), st.host_of(g[1]));
        assert_ne!(st.host_of(g[2]), st.host_of(g[1]));
    }

    #[test]
    fn fails_when_cluster_is_too_small() {
        let phys = phys_uniform(2, 100);
        let mut venv = VirtualEnvironment::new();
        let g: Vec<_> = (0..3).map(|_| venv.add_guest(guest(90))).collect();
        venv.add_link(g[0], g[1], link(10.0));
        venv.add_link(g[1], g[2], link(5.0));
        let mut st = PlacementState::new(&phys, &venv);
        let links = links_by_descending_bw(&venv);
        let (hosted, stats) = hosting_stage(&mut st, &links, HostingPolicy::Paper);
        assert!(matches!(hosted, Err(MapError::HostingFailed { .. })));
        // The failed stage still reports its work: the split pair, then
        // the fallback that found no host for g2.
        assert_eq!(
            stats,
            HostingStats {
                colocation_hits: 0,
                first_fit_fallbacks: 3
            }
        );
    }

    #[test]
    fn isolated_guests_are_still_placed() {
        let phys = phys_uniform(3, 1024);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest(100));
        let b = venv.add_guest(guest(100));
        let _isolated = venv.add_guest(guest(100));
        venv.add_link(a, b, link(10.0));
        let mut st = PlacementState::new(&phys, &venv);
        host_paper(&mut st).unwrap();
        assert!(st.is_complete());
    }

    #[test]
    fn hosting_stats_count_colocations_and_fallbacks() {
        // Colocated pair + anchor pull: two co-location hits, no fallbacks.
        let phys = phys_uniform(4, 1024);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest(100));
        let b = venv.add_guest(guest(100));
        let c = venv.add_guest(guest(100));
        venv.add_link(a, b, link(1000.0));
        venv.add_link(b, c, link(1.0));
        let mut st = PlacementState::new(&phys, &venv);
        let stats = host_paper(&mut st).unwrap();
        assert_eq!(
            stats,
            HostingStats {
                colocation_hits: 2,
                first_fit_fallbacks: 0
            }
        );

        // Pair that cannot share a host: both guests placed first-fit.
        let phys = phys_uniform(4, 150);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(90.0), MemMb(100), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(100), StorGb(1.0)));
        venv.add_link(a, b, link(1000.0));
        let mut st = PlacementState::new(&phys, &venv);
        let stats = host_paper(&mut st).unwrap();
        assert_eq!(
            stats,
            HostingStats {
                colocation_hits: 0,
                first_fit_fallbacks: 2
            }
        );
    }

    #[test]
    fn no_links_at_all_is_fine() {
        let phys = phys_uniform(3, 1024);
        let mut venv = VirtualEnvironment::new();
        for _ in 0..5 {
            venv.add_guest(guest(50));
        }
        let mut st = PlacementState::new(&phys, &venv);
        hosting_stage(&mut st, &[], HostingPolicy::Paper).0.unwrap();
        assert!(st.is_complete());
    }

    #[test]
    fn self_loop_link_places_its_guest() {
        let phys = phys_uniform(3, 1024);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest(100));
        venv.add_link(a, a, link(999.0));
        let mut st = PlacementState::new(&phys, &venv);
        host_paper(&mut st).unwrap();
        assert!(st.host_of(a).is_some());
    }

    #[test]
    fn heterogeneous_hosts_fill_biggest_cpu_first() {
        let shape = generators::line(3);
        let phys = PhysicalTopology::from_shape(
            &shape,
            [
                HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0)),
                HostSpec::new(Mips(3000.0), MemMb(4096), StorGb(1000.0)),
                HostSpec::new(Mips(2000.0), MemMb(4096), StorGb(1000.0)),
            ]
            .into_iter(),
            LinkSpec::new(Kbps(1_000_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest(100));
        let b = venv.add_guest(guest(100));
        venv.add_link(a, b, link(100.0));
        let mut st = PlacementState::new(&phys, &venv);
        host_paper(&mut st).unwrap();
        // Both go to the 3000 MIPS host (most available CPU).
        assert_eq!(st.host_of(a), Some(phys.hosts()[1]));
        assert_eq!(st.host_of(b), Some(phys.hosts()[1]));
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::state::PlacementState;
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb,
        VLinkSpec, VirtualEnvironment, VmmOverhead,
    };

    /// The adversarial shape from the heuristic_pool example: the
    /// most-CPU-available host cannot take the pair, but a later host can.
    fn adversarial() -> (PhysicalTopology, VirtualEnvironment) {
        let shape = emumap_graph::generators::line(3);
        let phys = PhysicalTopology::from_shape(
            &shape,
            [
                HostSpec::new(Mips(3000.0), MemMb(300), StorGb(500.0)), // CPU-first, tiny mem
                HostSpec::new(Mips(1000.0), MemMb(2048), StorGb(500.0)),
                HostSpec::new(Mips(900.0), MemMb(2048), StorGb(500.0)),
            ]
            .into_iter(),
            LinkSpec::new(Kbps(2000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(200), StorGb(10.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(200), StorGb(10.0)));
        // 5 Mbps pair: only mappable intra-host (physical links are 2 Mbps).
        venv.add_link(a, b, VLinkSpec::new(Kbps(5000.0), Millis(60.0)));
        (phys, venv)
    }

    #[test]
    fn paper_policy_splits_the_pair() {
        let (phys, venv) = adversarial();
        let mut st = PlacementState::new(&phys, &venv);
        hosting_stage(
            &mut st,
            &links_by_descending_bw(&venv),
            HostingPolicy::Paper,
        )
        .0
        .unwrap();
        let a = emumap_model::GuestId::from_index(0);
        let b = emumap_model::GuestId::from_index(1);
        assert_ne!(
            st.host_of(a),
            st.host_of(b),
            "paper rule splits on the first host"
        );
    }

    #[test]
    fn first_fit_colocation_keeps_the_pair_together() {
        let (phys, venv) = adversarial();
        let mut st = PlacementState::new(&phys, &venv);
        hosting_stage(
            &mut st,
            &links_by_descending_bw(&venv),
            HostingPolicy::FirstFitColocation,
        )
        .0
        .unwrap();
        let a = emumap_model::GuestId::from_index(0);
        let b = emumap_model::GuestId::from_index(1);
        assert_eq!(st.host_of(a), st.host_of(b));
        // ... on the first host that fits both (host 1).
        assert_eq!(st.host_of(a), Some(phys.hosts()[1]));
    }

    #[test]
    fn fixed_policy_lets_hmn_map_the_pool_examples_instance() {
        use crate::hmn::{Hmn, HmnConfig};
        use crate::mapper::Mapper;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let (phys, venv) = adversarial();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(
            Hmn::new().map(&phys, &venv, &mut rng).is_err(),
            "paper HMN fails: the split 5 Mbps link is unroutable"
        );
        // Migration would split the colocated pair again in this
        // degenerate 2-guest instance (as in the simulation_coupling
        // test), so pin it off: the policy under test is Hosting's.
        let fixed = Hmn::with_config(HmnConfig {
            hosting: HostingPolicy::FirstFitColocation,
            migration: crate::MigrationPolicy::Off,
            ..Default::default()
        });
        let out = fixed
            .map(&phys, &venv, &mut rng)
            .expect("first-fit colocation rescues the instance");
        assert_eq!(
            emumap_model::validate_mapping(&phys, &venv, &out.mapping),
            Ok(())
        );
    }
}

#[cfg(test)]
mod reference_tests {
    //! [`hosting_stage`] against the paper's Hosting, which sorts every
    //! host again after every assignment, and [`HostOrder`] against that
    //! full sort.
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb,
        VLinkSpec, VmmOverhead,
    };
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Sorts `hosts` by descending residual CPU (ties by id), as the paper
    /// does after every assignment "considering the new CPU
    /// availabilities".
    fn sort_hosts(hosts: &mut [NodeId], state: &PlacementState<'_>) {
        hosts.sort_by(|&a, &b| {
            state
                .residual()
                .proc(b)
                .partial_cmp(&state.residual().proc(a))
                .expect("CPU residuals are finite")
                .then(a.cmp(&b))
        });
    }

    /// Every host of `state`, fully sorted.
    fn sorted(state: &PlacementState<'_>) -> Vec<NodeId> {
        let mut hosts = state.phys().hosts().to_vec();
        sort_hosts(&mut hosts, state);
        hosts
    }

    /// The paper's Hosting over a host list sorted from scratch before
    /// every scan, counting as [`hosting_stage`] does.
    fn reference_hosting(
        state: &mut PlacementState<'_>,
        links: &[VLinkId],
        policy: HostingPolicy,
    ) -> (Result<(), MapError>, HostingStats) {
        let mut stats = HostingStats::default();
        let venv = state.venv();
        let first_fit = |state: &PlacementState<'_>, g: GuestId| {
            sorted(state)
                .into_iter()
                .find(|&h| state.fits(g, h))
                .ok_or(MapError::HostingFailed { guest: g })
        };
        let hosted = (|| {
            for &l in links {
                let (vs, vd) = venv.link_endpoints(l);
                match (state.host_of(vs), state.host_of(vd)) {
                    (Some(_), Some(_)) => {}
                    (None, None) if vs == vd => {
                        let h = first_fit(state, vs)?;
                        state.assign(vs, h).unwrap();
                        stats.first_fit_fallbacks += 1;
                    }
                    (None, None) => {
                        let (gs, gd) = (venv.guest(vs), venv.guest(vd));
                        let fits_both = |h: &NodeId| {
                            let r = state.residual();
                            r.mem(*h).value() >= gs.mem.value() + gd.mem.value()
                                && r.stor(*h).value() >= gs.stor.value() + gd.stor.value()
                        };
                        let list = sorted(state);
                        let colocate_on = match policy {
                            HostingPolicy::Paper => list.first().copied().filter(fits_both),
                            HostingPolicy::FirstFitColocation => list.into_iter().find(fits_both),
                        };
                        if let Some(h) = colocate_on {
                            state.assign(vs, h).unwrap();
                            state.assign(vd, h).unwrap();
                            stats.colocation_hits += 1;
                        } else {
                            let (g1, g2) = if gs.proc.value() >= gd.proc.value() {
                                (vs, vd)
                            } else {
                                (vd, vs)
                            };
                            let h1 = first_fit(state, g1)?;
                            state.assign(g1, h1).unwrap();
                            let h2 = first_fit(state, g2)?;
                            state.assign(g2, h2).unwrap();
                            stats.first_fit_fallbacks += 2;
                        }
                    }
                    (mapped, other) => {
                        let (anchor, free) = match (mapped, other) {
                            (Some(h), _) => (h, vd),
                            (None, h) => (h.unwrap(), vs),
                        };
                        let target = if state.fits(free, anchor) {
                            stats.colocation_hits += 1;
                            anchor
                        } else {
                            stats.first_fit_fallbacks += 1;
                            first_fit(state, free)?
                        };
                        state.assign(free, target).unwrap();
                    }
                }
            }
            let mut leftovers: Vec<GuestId> = venv
                .guest_ids()
                .filter(|&g| state.host_of(g).is_none())
                .collect();
            leftovers.sort_by(|&a, &b| {
                venv.guest(b)
                    .proc
                    .partial_cmp(&venv.guest(a).proc)
                    .unwrap()
                    .then(a.cmp(&b))
            });
            for g in leftovers {
                let h = first_fit(state, g)?;
                state.assign(g, h).unwrap();
                stats.first_fit_fallbacks += 1;
            }
            Ok(())
        })();
        (hosted, stats)
    }

    /// 2 to 2 000 hosts whose CPU capacities fall into a few classes
    /// (ties, `±0.0` and all) or spread at random, with memory-blocked
    /// hosts, and guests of `±0.0` to large CPU demands.
    fn random_cluster(
        rng: &mut SmallRng,
        max_guests: usize,
    ) -> (PhysicalTopology, VirtualEnvironment) {
        let n = match rng.gen_range(0..10) {
            0..=3 => rng.gen_range(2..9),
            4..=6 => rng.gen_range(9..65),
            7..=8 => rng.gen_range(65..401),
            _ => rng.gen_range(401..2001),
        };
        let classes = [1000.0, 2000.0, 1500.0, 3000.0, 0.0, -0.0];
        let phys = PhysicalTopology::from_shape(
            &generators::ring(n),
            (0..n).map(|_| {
                let cpu = if rng.gen_bool(0.7) {
                    classes[rng.gen_range(0..classes.len())]
                } else {
                    rng.gen_range(500.0..3000.0)
                };
                let mem = [10, 256, 4096][rng.gen_range(0..3usize)];
                HostSpec::new(Mips(cpu), MemMb(mem), StorGb(1000.0))
            }),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        for _ in 0..rng.gen_range(0..=max_guests) {
            let proc =
                [0.0, -0.0, 100.0, 250.0, rng.gen_range(0.0..400.0)][rng.gen_range(0..5usize)];
            let mem = [64, 200, 512][rng.gen_range(0..3usize)];
            venv.add_guest(GuestSpec::new(Mips(proc), MemMb(mem), StorGb(1.0)));
        }
        (phys, venv)
    }

    /// A Hosting case: a random cluster plus links among a random subset
    /// of its guests (self-loops included, the rest isolated), with
    /// bandwidths in a few tied classes.
    fn hosting_case(seed: u64) -> (PhysicalTopology, VirtualEnvironment) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (phys, mut venv) = random_cluster(&mut rng, 120);
        let linked = rng.gen_range(0..=venv.guest_count());
        for _ in 0..rng.gen_range(0..=2 * linked) {
            let a = GuestId::from_index(rng.gen_range(0..linked));
            let b = if rng.gen_bool(0.1) {
                a
            } else {
                GuestId::from_index(rng.gen_range(0..linked))
            };
            let bw = [1.0, 10.0, 100.0][rng.gen_range(0..3usize)];
            venv.add_link(a, b, VLinkSpec::new(Kbps(bw), Millis(60.0)));
        }
        (phys, venv)
    }

    fn check_hosting(seed: u64, policy: HostingPolicy) -> Result<(), TestCaseError> {
        let (phys, venv) = hosting_case(seed);
        let links = links_by_descending_bw(&venv);
        let (mut a, mut b) = (
            PlacementState::new(&phys, &venv),
            PlacementState::new(&phys, &venv),
        );
        let (hosted, stats) = hosting_stage(&mut a, &links, policy);
        let (want, want_stats) = reference_hosting(&mut b, &links, policy);
        prop_assert_eq!(stats, want_stats);
        for g in venv.guest_ids() {
            prop_assert_eq!(a.host_of(g), b.host_of(g), "guest {}", g);
        }
        match hosted {
            Ok(order) => {
                prop_assert_eq!(want, Ok(()));
                prop_assert_eq!(order.iter(&a).collect::<Vec<_>>(), sorted(&a));
            }
            Err(e) => prop_assert_eq!(want, Err(e)),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn hosting_stage_matches_the_resorting_reference(seed in any::<u64>(), first_fit_colocation in any::<bool>()) {
            let policy = if first_fit_colocation {
                HostingPolicy::FirstFitColocation
            } else {
                HostingPolicy::Paper
            };
            check_hosting(seed, policy)?;
        }

        #[test]
        fn host_order_matches_a_full_sort_after_assigns_and_migrations(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (phys, venv) = random_cluster(&mut rng, 60);
            let mut st = PlacementState::new(&phys, &venv);
            let mut order = HostOrder::new(&st);
            prop_assert_eq!(order.iter(&st).collect::<Vec<_>>(), sorted(&st));
            let hosts = phys.hosts();
            for _ in 0..2 * venv.guest_count() {
                let g = GuestId::from_index(rng.gen_range(0..venv.guest_count()));
                let h = hosts[rng.gen_range(0..hosts.len())];
                // Either call may fail on capacity and must then change
                // neither the state nor the order.
                let _ = match st.host_of(g) {
                    None => order.assign(&mut st, g, h),
                    Some(_) => order.migrate(&mut st, g, h),
                };
                prop_assert_eq!(order.iter(&st).collect::<Vec<_>>(), sorted(&st));
            }
        }
    }
}
