//! HMN stage 2 — **Migration** (§4.2): improve load balance by moving
//! guests off the most-loaded host.
//!
//! Each iteration:
//! 1. pick the most-loaded host (smallest residual CPU — load is measured
//!    in residual CPU so heterogeneous hosts compare fairly),
//! 2. on it, pick the guest with the smallest total bandwidth to co-located
//!    guests ("in order to minimize utilization of physical links"),
//! 3. scan candidate destinations from least loaded (largest residual CPU)
//!    and move the guest to the first destination that both fits it and
//!    strictly improves the Eq. 10 load-balance factor.
//!
//! The process repeats while the factor improves; when no improving move
//! exists *for the chosen guest of the most-loaded host*, the stage stops
//! (exactly the paper's stopping rule — it does not consider other guests
//! of that host).

use crate::state::PlacementState;
use emumap_graph::NodeId;
use emumap_model::GuestId;
use emumap_trace::PhaseCounters;

/// Statistics from a Migration run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MigrationStats {
    /// Number of guests moved.
    pub migrations: usize,
    /// Candidate moves evaluated (destination fits the guest) but not
    /// taken because they failed to improve Eq. 10.
    pub rejected: usize,
    /// Candidate moves whose objective was evaluated (accepted plus
    /// rejected) — each one an O(1) delta probe of the accumulator.
    pub proposals_evaluated: usize,
    /// Objective (Eq. 10) before the stage.
    pub objective_before: f64,
    /// Objective after the stage.
    pub objective_after: f64,
}

/// Which migration refinement runs between Hosting and Networking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// The paper's §4.2 rule: one candidate guest (minimum co-located
    /// bandwidth) from the single most-loaded host per iteration; stop
    /// when that candidate cannot improve Eq. 10.
    #[default]
    Paper,
    /// Steepest-descent extension (the §6 "better heuristics" direction):
    /// every iteration considers *every* guest on the most-loaded host and
    /// every destination, and performs the single move that improves
    /// Eq. 10 the most; among equal improvements, the guest with the
    /// least co-located bandwidth moves (preserving the paper's
    /// keep-affine-pairs-together intent). Strictly at least as good as
    /// [`MigrationPolicy::Paper`] on the objective, at higher cost.
    Exhaustive,
    /// Skip the stage entirely (ablation).
    Off,
}

/// Runs `policy`'s refinement as a Migration phase body: the stage's
/// decisions plus the accumulator work they cost. `Off` does nothing.
pub(crate) fn migration_counters(
    state: &mut PlacementState<'_>,
    policy: MigrationPolicy,
) -> PhaseCounters {
    let delta_before = state.delta_evaluations();
    let full_before = state.full_evaluations();
    let m = match policy {
        MigrationPolicy::Paper => migration_stage(state),
        MigrationPolicy::Exhaustive => migration_stage_exhaustive(state),
        MigrationPolicy::Off => return PhaseCounters::default(),
    };
    PhaseCounters {
        moves_accepted: m.migrations as u64,
        moves_rejected: m.rejected as u64,
        proposals_evaluated: m.proposals_evaluated as u64,
        delta_evaluations: state.delta_evaluations() - delta_before,
        full_evaluations: state.full_evaluations() - full_before,
        ..Default::default()
    }
}

/// The most-loaded host: smallest residual CPU, ties by id. Only hosts with
/// at least one guest qualify (an empty host has nothing to migrate).
fn most_loaded_occupied_host(state: &PlacementState<'_>) -> Option<NodeId> {
    state
        .phys()
        .hosts()
        .iter()
        .copied()
        .filter(|&h| !state.guests_on(h).is_empty())
        .min_by(|&a, &b| {
            state
                .residual()
                .proc(a)
                .partial_cmp(&state.residual().proc(b))
                .expect("CPU residuals are finite")
                .then(a.cmp(&b))
        })
}

/// The guest on `host` with the smallest co-located bandwidth (ties by id).
fn cheapest_guest_to_move(state: &PlacementState<'_>, host: NodeId) -> GuestId {
    state
        .guests_on(host)
        .iter()
        .copied()
        .min_by(|&a, &b| {
            state
                .co_located_bandwidth(a)
                .partial_cmp(&state.co_located_bandwidth(b))
                .expect("bandwidths are finite")
                .then(a.cmp(&b))
        })
        .expect("host is occupied")
}

/// Runs the Migration stage to fixpoint. Always succeeds (migration can
/// only refine a complete assignment).
///
/// # Panics
/// Panics if the assignment is incomplete — Hosting must run first.
pub fn migration_stage(state: &mut PlacementState<'_>) -> MigrationStats {
    assert!(
        state.is_complete(),
        "migration requires a complete assignment"
    );
    let mut stats = MigrationStats {
        objective_before: state.objective(),
        ..Default::default()
    };

    // Hoisted out of the loop so the steady-state search allocates
    // nothing; refilled (capacity kept) each iteration.
    let mut destinations: Vec<NodeId> = Vec::with_capacity(state.phys().host_count());
    loop {
        let current = state.objective();
        let Some(origin) = most_loaded_occupied_host(state) else {
            break; // no occupied host: empty virtual environment
        };
        let guest = cheapest_guest_to_move(state, origin);

        // Destinations from least loaded (largest residual CPU) downward.
        destinations.clear();
        destinations.extend(
            state
                .phys()
                .hosts()
                .iter()
                .copied()
                .filter(|&h| h != origin),
        );
        destinations.sort_by(|&a, &b| {
            state
                .residual()
                .proc(b)
                .partial_cmp(&state.residual().proc(a))
                .expect("CPU residuals are finite")
                .then(a.cmp(&b))
        });

        let mut moved = false;
        for &dest in &destinations {
            if !state.fits(guest, dest) {
                continue;
            }
            stats.proposals_evaluated += 1;
            if state.objective_if_migrated(guest, dest) < current {
                state.migrate(guest, dest).expect("fit checked");
                stats.migrations += 1;
                moved = true;
                break;
            }
            stats.rejected += 1;
        }
        if !moved {
            break;
        }
    }

    stats.objective_after = state.objective();
    stats
}

/// Steepest-descent migration ([`MigrationPolicy::Exhaustive`]): per
/// iteration, the best improving (guest, destination) move among all
/// guests of the most-loaded host. Terminates because every move strictly
/// decreases Eq. 10.
pub fn migration_stage_exhaustive(state: &mut PlacementState<'_>) -> MigrationStats {
    assert!(
        state.is_complete(),
        "migration requires a complete assignment"
    );
    let mut stats = MigrationStats {
        objective_before: state.objective(),
        ..Default::default()
    };

    let mut guests: Vec<GuestId> = Vec::new();
    loop {
        let current = state.objective();
        let Some(origin) = most_loaded_occupied_host(state) else {
            break;
        };
        // Best move: (objective gain, guest co-located bw as tiebreak).
        let mut best: Option<(f64, emumap_model::Kbps, GuestId, NodeId)> = None;
        guests.clear();
        guests.extend_from_slice(state.guests_on(origin));
        for &g in &guests {
            let colo = state.co_located_bandwidth(g);
            for &dest in state.phys().hosts() {
                if dest == origin || !state.fits(g, dest) {
                    continue;
                }
                stats.proposals_evaluated += 1;
                let after = state.objective_if_migrated(g, dest);
                if after >= current - 1e-12 {
                    stats.rejected += 1;
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((b_after, b_colo, b_g, _)) => {
                        after < *b_after - 1e-12
                            || ((after - *b_after).abs() <= 1e-12
                                && (colo < *b_colo || (colo == *b_colo && g < *b_g)))
                    }
                };
                if better {
                    best = Some((after, colo, g, dest));
                }
            }
        }
        let Some((_, _, guest, dest)) = best else {
            break;
        };
        state.migrate(guest, dest).expect("fit checked");
        stats.migrations += 1;
    }

    stats.objective_after = state.objective();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb,
        VLinkSpec, VirtualEnvironment, VmmOverhead,
    };

    fn phys(n: usize) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::ring(n),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0))),
            LinkSpec::new(Kbps(1_000_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    fn cpu_guest(mips: f64) -> GuestSpec {
        GuestSpec::new(Mips(mips), MemMb(64), StorGb(1.0))
    }

    #[test]
    fn spreads_a_pileup() {
        let p = phys(4);
        let mut venv = VirtualEnvironment::new();
        let guests: Vec<_> = (0..4).map(|_| venv.add_guest(cpu_guest(100.0))).collect();
        let mut st = PlacementState::new(&p, &venv);
        // All four guests start on host 0 (badly imbalanced).
        for &g in &guests {
            st.assign(g, p.hosts()[0]).unwrap();
        }
        let stats = migration_stage(&mut st);
        assert!(stats.objective_after < stats.objective_before);
        assert_eq!(
            stats.objective_after, 0.0,
            "uniform guests over uniform hosts balance exactly"
        );
        assert_eq!(stats.migrations, 3);
        assert_eq!(
            stats.proposals_evaluated,
            stats.migrations + stats.rejected,
            "every evaluated candidate is either taken or rejected"
        );
        // One guest per host.
        for &h in p.hosts() {
            assert_eq!(st.guests_on(h).len(), 1);
        }
    }

    #[test]
    fn balanced_state_is_a_fixpoint() {
        let p = phys(2);
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(cpu_guest(100.0));
        let b = venv.add_guest(cpu_guest(100.0));
        let mut st = PlacementState::new(&p, &venv);
        st.assign(a, p.hosts()[0]).unwrap();
        st.assign(b, p.hosts()[1]).unwrap();
        let stats = migration_stage(&mut st);
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.objective_before, stats.objective_after);
        assert_eq!(
            stats.rejected, 1,
            "the one fitting destination was evaluated and rejected"
        );
        assert_eq!(stats.proposals_evaluated, 1);
    }

    #[test]
    fn prefers_moving_low_bandwidth_guests() {
        let p = phys(2);
        let mut venv = VirtualEnvironment::new();
        // Three guests on host 0: a-b tied by a fat link, c unconnected.
        let a = venv.add_guest(cpu_guest(100.0));
        let b = venv.add_guest(cpu_guest(100.0));
        let c = venv.add_guest(cpu_guest(100.0));
        venv.add_link(a, b, VLinkSpec::new(Kbps(5000.0), Millis(60.0)));
        let mut st = PlacementState::new(&p, &venv);
        for &g in &[a, b, c] {
            st.assign(g, p.hosts()[0]).unwrap();
        }
        migration_stage(&mut st);
        // c (zero co-located bandwidth) is the cheapest to move; a and b
        // stay together.
        assert_eq!(st.host_of(c), Some(p.hosts()[1]));
        assert_eq!(st.host_of(a), Some(p.hosts()[0]));
        assert_eq!(st.host_of(b), Some(p.hosts()[0]));
    }

    #[test]
    fn respects_hard_constraints_at_destination() {
        let shape = generators::line(2);
        let p = PhysicalTopology::from_shape(
            &shape,
            [
                HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0)),
                HostSpec::new(Mips(1000.0), MemMb(10), StorGb(1000.0)), // tiny memory
            ]
            .into_iter(),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(64), StorGb(1.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(64), StorGb(1.0)));
        let mut st = PlacementState::new(&p, &venv);
        st.assign(a, p.hosts()[0]).unwrap();
        st.assign(b, p.hosts()[0]).unwrap();
        let stats = migration_stage(&mut st);
        // Balance would improve by moving one guest, but host 1 cannot take
        // any guest: no migration may happen — and an unfitting destination
        // is not an evaluated proposal, so nothing counts as rejected.
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.proposals_evaluated, 0);
    }

    #[test]
    fn heterogeneous_cpu_balances_residual_not_count() {
        let shape = generators::line(2);
        let p = PhysicalTopology::from_shape(
            &shape,
            [
                HostSpec::new(Mips(3000.0), MemMb(4096), StorGb(1000.0)),
                HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0)),
            ]
            .into_iter(),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let guests: Vec<_> = (0..4).map(|_| venv.add_guest(cpu_guest(250.0))).collect();
        let mut st = PlacementState::new(&p, &venv);
        // All on the small host: residuals (3000, 0) -> stddev 1500.
        for &g in &guests {
            st.assign(g, p.hosts()[1]).unwrap();
        }
        let stats = migration_stage(&mut st);
        // Optimal split: all four guests on the big host gives residuals
        // (2000, 1000), stddev 500; three on big host gives (2250, 750),
        // stddev 750; the fixpoint must improve on 1500.
        assert!(stats.objective_after < 1500.0);
        assert!(stats.migrations >= 2);
        // More CPU work lands on the 3000-MIPS host than on the 1000-MIPS
        // host.
        assert!(st.guests_on(p.hosts()[0]).len() > st.guests_on(p.hosts()[1]).len());
    }

    #[test]
    fn empty_virtual_environment_is_ok() {
        let p = phys(3);
        let venv = VirtualEnvironment::new();
        let mut st = PlacementState::new(&p, &venv);
        let stats = migration_stage(&mut st);
        assert_eq!(stats.migrations, 0);
    }

    #[test]
    #[should_panic(expected = "complete assignment")]
    fn panics_on_incomplete_assignment() {
        let p = phys(2);
        let mut venv = VirtualEnvironment::new();
        venv.add_guest(cpu_guest(10.0));
        let mut st = PlacementState::new(&p, &venv);
        migration_stage(&mut st);
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;
    use crate::state::PlacementState;
    use emumap_graph::generators;
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb,
        VirtualEnvironment, VmmOverhead,
    };

    fn phys(caps: &[f64]) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::ring(caps.len().max(3)),
            caps.iter()
                .map(|&c| HostSpec::new(Mips(c), MemMb(4096), StorGb(1000.0)))
                .chain(std::iter::repeat(HostSpec::new(
                    Mips(1000.0),
                    MemMb(4096),
                    StorGb(1000.0),
                ))),
            LinkSpec::new(Kbps(1_000_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    #[test]
    fn exhaustive_never_worse_than_paper_policy() {
        // A pileup both policies can fix; the exhaustive fixpoint must be
        // at least as balanced.
        let p = phys(&[1000.0, 2000.0, 3000.0]);
        let mut venv = VirtualEnvironment::new();
        let guests: Vec<_> = (0..6)
            .map(|i| {
                venv.add_guest(GuestSpec::new(
                    Mips(100.0 + 50.0 * i as f64),
                    MemMb(64),
                    StorGb(1.0),
                ))
            })
            .collect();
        let build = |policy_paper: bool| {
            let mut st = PlacementState::new(&p, &venv);
            for &g in &guests {
                st.assign(g, p.hosts()[0]).unwrap();
            }
            if policy_paper {
                migration_stage(&mut st)
            } else {
                migration_stage_exhaustive(&mut st)
            }
        };
        let paper = build(true);
        let exhaustive = build(false);
        assert!(exhaustive.objective_after <= paper.objective_after + 1e-9);
        assert!(exhaustive.objective_after < exhaustive.objective_before);
    }

    #[test]
    fn exhaustive_escapes_a_paper_policy_fixpoint() {
        // Construct a state where the paper's single-candidate rule stalls
        // (the minimum-co-located-bandwidth guest cannot improve) but some
        // OTHER guest on the most-loaded host can. Host 0 holds a small
        // guest (10 MIPS, zero links => the paper's candidate) and a big
        // one (400 MIPS). Residuals: h0 = 1000-410 = 590, h1 = 1000,
        // h2 = 1000... mean moves make the small guest useless: moving 10
        // MIPS barely changes stddev but CAN still improve it slightly, so
        // pin it instead with memory: make the small guest NOT fit
        // elsewhere.
        let shape = generators::line(2);
        let p = PhysicalTopology::from_shape(
            &shape,
            [
                HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0)),
                HostSpec::new(Mips(1000.0), MemMb(100), StorGb(1000.0)), // tiny memory
            ]
            .into_iter(),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        // Candidate by min co-located bw: the zero-link small guest; but it
        // needs 512 MB and host 1 only has 100 MB.
        let small = venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(512), StorGb(1.0)));
        // The big guest fits host 1 (64 MB) and moving it improves balance:
        // residuals go from (590, 1000) to (990, 600).
        let big = venv.add_guest(GuestSpec::new(Mips(400.0), MemMb(64), StorGb(1.0)));
        let mut st = PlacementState::new(&p, &venv);
        st.assign(small, p.hosts()[0]).unwrap();
        st.assign(big, p.hosts()[0]).unwrap();

        let mut st_paper = PlacementState::new(&p, &venv);
        st_paper.assign(small, p.hosts()[0]).unwrap();
        st_paper.assign(big, p.hosts()[0]).unwrap();
        let paper = migration_stage(&mut st_paper);
        assert_eq!(
            paper.migrations, 0,
            "paper policy stalls on the unmovable candidate"
        );

        let exhaustive = migration_stage_exhaustive(&mut st);
        assert_eq!(
            exhaustive.migrations, 1,
            "exhaustive policy moves the big guest"
        );
        assert!(exhaustive.objective_after < paper.objective_after);
        assert_eq!(st.host_of(big), Some(p.hosts()[1]));
    }

    #[test]
    fn exhaustive_terminates_on_balanced_input() {
        let p = phys(&[1000.0, 1000.0, 1000.0]);
        let mut venv = VirtualEnvironment::new();
        let g: Vec<_> = (0..3)
            .map(|_| venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(64), StorGb(1.0))))
            .collect();
        let mut st = PlacementState::new(&p, &venv);
        for (i, &gg) in g.iter().enumerate() {
            st.assign(gg, p.hosts()[i]).unwrap();
        }
        let stats = migration_stage_exhaustive(&mut st);
        assert_eq!(stats.migrations, 0);
    }
}
