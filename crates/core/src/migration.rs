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
//!
//! # O(log n) per move
//!
//! There is one host order per map, and Hosting builds it: the stages
//! take over the [`HostOrder`] that [`hosting_stage`] returns (other
//! callers build one with [`HostOrder::new`]). It holds every host keyed by
//! (residual CPU descending, id ascending), which is the destination scan
//! order. Next to it a call keeps one set of the occupied hosts keyed by
//! (residual ascending, id ascending), built from the hosts its guests sit
//! on, whose first entry is the origin. Residuals enter the keys through an
//! order-preserving `u64` map (after `-0.0` becomes `+0.0`), so both orders
//! are exactly the `partial_cmp`-then-id sort. A move changes two
//! residuals and so two entries per set, in O(log n); nothing is rescanned
//! or re-sorted.
//!
//! The destination scan stops early. Moving a guest of CPU `c` from
//! residual `r_o` to residual `r_d` leaves the mean residual unchanged and
//! changes `Σ(r − mean)²` by `2c(c + r_o − r_d)`, so it can improve Eq. 10
//! only if `r_d > r_o + c`. Destinations come by falling `r_d`, so once
//! the float margin `(r_o + c) − r_d` exceeds
//! [`ObjectiveAccumulator::move_tolerance`] — a proven bound on the
//! probe's rounding, derived in its docs — no later destination can pass
//! `objective_if_migrated(..) < objective()`, and the scan ends. Inside
//! that band every candidate is still decided by that float comparison, so
//! the placements, objective bits and move counts are those of a scan over
//! every host; only proposals that could not succeed go uncounted. A guest
//! with `c == 0` leaves every term of the probe unchanged, so its band is
//! empty.
//!
//! [`ObjectiveAccumulator::move_tolerance`]: emumap_model::ObjectiveAccumulator::move_tolerance
//! [`hosting_stage`]: crate::hosting::hosting_stage

use crate::state::{key, HostOrder, PlacementState};
use emumap_graph::NodeId;
use emumap_model::GuestId;
use emumap_trace::PhaseCounters;
use std::collections::BTreeSet;

/// Statistics from a Migration run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MigrationStats {
    /// Number of guests moved.
    pub migrations: usize,
    /// Candidate moves evaluated (the destination lies in the guest's
    /// improvement band and fits it) but not taken because they failed
    /// to improve Eq. 10.
    pub rejected: usize,
    /// Candidate moves whose objective was evaluated (accepted plus
    /// rejected) — each one an O(1) delta probe of the accumulator. Only
    /// destinations inside the improvement band (module docs) count;
    /// those past it provably cannot improve and are never probed.
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
/// decisions plus the accumulator work they cost. `order` must be the
/// [`HostOrder`] of `state`. `Off` does nothing.
pub(crate) fn migration_counters(
    state: &mut PlacementState<'_>,
    order: HostOrder,
    policy: MigrationPolicy,
) -> PhaseCounters {
    let delta_before = state.delta_evaluations();
    let full_before = state.full_evaluations();
    let m = match policy {
        MigrationPolicy::Paper => migration_stage(state, order),
        MigrationPolicy::Exhaustive => migration_stage_exhaustive(state, order),
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

/// The hosts of one Migration call (module docs): the [`HostOrder`] of
/// every host it was handed plus the occupied hosts keyed by
/// (residual ascending, id ascending).
struct HostIndex {
    order: HostOrder,
    /// Occupied hosts, most loaded first: key `key(residual)`.
    occupied: BTreeSet<(u64, u32)>,
}

impl HostIndex {
    /// Takes over `order`, which must describe `state`, and indexes the
    /// hosts that hold a guest.
    fn new(state: &PlacementState<'_>, order: HostOrder) -> Self {
        debug_assert!(order.describes(state), "a stale host order");
        let r = state.residual();
        let occupied = state
            .venv()
            .guest_ids()
            .filter_map(|g| state.host_of(g))
            .map(|h| {
                let slot = r.slot_of(h).expect("hosts have slots");
                (key(r.proc_column()[slot]), slot as u32)
            })
            .collect();
        HostIndex { order, occupied }
    }

    /// The most-loaded occupied host, if any host is occupied.
    fn origin(&self, state: &PlacementState<'_>) -> Option<NodeId> {
        let &(_, slot) = self.occupied.first()?;
        Some(state.residual().host_at(slot as usize))
    }

    /// Moves `guest` to `dest` (which must fit it), re-keying the two
    /// hosts the move changes.
    fn migrate(&mut self, state: &mut PlacementState<'_>, guest: GuestId, dest: NodeId) {
        let origin = state
            .host_of(guest)
            .expect("migration runs on a complete assignment");
        let slots = [origin, dest].map(|h| state.residual().slot_of(h).expect("hosts have slots"));
        for slot in slots {
            let k = key(state.residual().proc_column()[slot]);
            self.occupied.remove(&(k, slot as u32));
        }
        self.order.migrate(state, guest, dest).expect("fit checked");
        for slot in slots {
            if !state.guests_on(state.residual().host_at(slot)).is_empty() {
                let k = key(state.residual().proc_column()[slot]);
                self.occupied.insert((k, slot as u32));
            }
        }
    }
}

/// The destinations on which moving one guest off `origin` may improve
/// Eq. 10, as a stop test for a scan by falling residual (module docs).
struct Band {
    /// `r_o + c`, rounded as the probe rounds it.
    top: f64,
    /// The float margin `top − r_d` past which no destination improves.
    tol: f64,
}

impl Band {
    fn new(state: &PlacementState<'_>, index: &HostIndex, origin: NodeId, guest: GuestId) -> Self {
        let c = state.venv().guest(guest).proc.value();
        let tol = if c > 0.0 {
            let (lo, hi) = index.order.bounds(state);
            state.move_tolerance(lo, hi, c)
        } else if c == 0.0 {
            f64::NEG_INFINITY // the float objective cannot change
        } else {
            f64::INFINITY // negative CPU is outside the proof: scan every host
        };
        Band {
            top: state.residual().proc(origin).value() + c,
            tol,
        }
    }

    /// `true` if neither `dest` nor any host with less residual CPU can
    /// improve Eq. 10: the margin only grows as the residual falls.
    fn ends_at(&self, state: &PlacementState<'_>, dest: NodeId) -> bool {
        self.top - state.residual().proc(dest).value() > self.tol
    }
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

/// Runs the Migration stage to fixpoint from `order`, the [`HostOrder`]
/// of `state` that [`hosting_stage`](crate::hosting::hosting_stage)
/// returns. Always succeeds (migration can only refine a complete
/// assignment).
///
/// # Panics
/// Panics if the assignment is incomplete — Hosting must run first.
pub fn migration_stage(state: &mut PlacementState<'_>, order: HostOrder) -> MigrationStats {
    assert!(
        state.is_complete(),
        "migration requires a complete assignment"
    );
    let mut stats = MigrationStats {
        objective_before: state.objective(),
        ..Default::default()
    };

    let mut index = HostIndex::new(state, order);
    // An empty index means an empty virtual environment.
    while let Some(origin) = index.origin(state) {
        let current = state.objective();
        let guest = cheapest_guest_to_move(state, origin);
        let band = Band::new(state, &index, origin, guest);

        // Destinations from least loaded (largest residual CPU) downward.
        let mut chosen = None;
        for dest in index.order.iter(state) {
            if band.ends_at(state, dest) {
                break;
            }
            if dest == origin || !state.fits(guest, dest) {
                continue;
            }
            stats.proposals_evaluated += 1;
            if state.objective_if_migrated(guest, dest) < current {
                chosen = Some(dest);
                break;
            }
            stats.rejected += 1;
        }
        let Some(dest) = chosen else {
            break;
        };
        index.migrate(state, guest, dest);
        stats.migrations += 1;
    }

    stats.objective_after = state.objective();
    stats
}

/// Steepest-descent migration ([`MigrationPolicy::Exhaustive`]): per
/// iteration, the best improving (guest, destination) move among all
/// guests of the most-loaded host. Terminates because every move strictly
/// decreases Eq. 10. `order` is as for [`migration_stage`].
pub fn migration_stage_exhaustive(
    state: &mut PlacementState<'_>,
    order: HostOrder,
) -> MigrationStats {
    assert!(
        state.is_complete(),
        "migration requires a complete assignment"
    );
    let mut stats = MigrationStats {
        objective_before: state.objective(),
        ..Default::default()
    };

    let mut index = HostIndex::new(state, order);
    let (mut guests, mut in_band): (Vec<GuestId>, Vec<NodeId>) = (Vec::new(), Vec::new());
    while let Some(origin) = index.origin(state) {
        let current = state.objective();
        // Best move: (objective gain, guest co-located bw as tiebreak).
        let mut best: Option<(f64, emumap_model::Kbps, GuestId, NodeId)> = None;
        guests.clear();
        guests.extend_from_slice(state.guests_on(origin));
        for &g in &guests {
            let colo = state.co_located_bandwidth(g);
            // The band's hosts in id order, the order a scan of every host
            // meets them in. Past the band `after >= current`, which the
            // test below rejects anyway, so the chosen move is the same.
            let band = Band::new(state, &index, origin, g);
            in_band.clear();
            in_band.extend(
                index
                    .order
                    .iter(state)
                    .take_while(|&h| !band.ends_at(state, h)),
            );
            in_band.sort_unstable();
            for &dest in &in_band {
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
        index.migrate(state, guest, dest);
        stats.migrations += 1;
    }

    stats.objective_after = state.objective();
    stats
}

/// Runs `stage` on `state` from a freshly built [`HostOrder`].
#[cfg(test)]
fn run_fresh(
    stage: fn(&mut PlacementState<'_>, HostOrder) -> MigrationStats,
    state: &mut PlacementState<'_>,
) -> MigrationStats {
    let order = HostOrder::new(state);
    stage(state, order)
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
        let stats = run_fresh(migration_stage, &mut st);
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
        let stats = run_fresh(migration_stage, &mut st);
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.objective_before, stats.objective_after);
        // The one fitting destination (residual 900) lies past the band
        // edge 900 + 100: the move provably cannot improve, so it is never
        // probed.
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.proposals_evaluated, 0);
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
        run_fresh(migration_stage, &mut st);
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
        let stats = run_fresh(migration_stage, &mut st);
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
        let stats = run_fresh(migration_stage, &mut st);
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
        let stats = run_fresh(migration_stage, &mut st);
        assert_eq!(stats.migrations, 0);
    }

    #[test]
    #[should_panic(expected = "complete assignment")]
    fn panics_on_incomplete_assignment() {
        let p = phys(2);
        let mut venv = VirtualEnvironment::new();
        venv.add_guest(cpu_guest(10.0));
        let mut st = PlacementState::new(&p, &venv);
        run_fresh(migration_stage, &mut st);
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
                run_fresh(migration_stage, &mut st)
            } else {
                run_fresh(migration_stage_exhaustive, &mut st)
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
        let paper = run_fresh(migration_stage, &mut st_paper);
        assert_eq!(
            paper.migrations, 0,
            "paper policy stalls on the unmovable candidate"
        );

        let exhaustive = run_fresh(migration_stage_exhaustive, &mut st);
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
        let stats = run_fresh(migration_stage_exhaustive, &mut st);
        assert_eq!(stats.migrations, 0);
    }
}

#[cfg(test)]
mod reference_tests {
    //! The index-and-band stages against the sort-based stages they
    //! replaced, kept here as references.
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb,
        VLinkSpec, VirtualEnvironment, VmmOverhead,
    };
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The most-loaded occupied host by a scan of every host.
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

    /// The paper stage with a scan for the origin and a full sort of the
    /// destinations per iteration.
    fn reference_paper(state: &mut PlacementState<'_>) -> MigrationStats {
        let mut stats = MigrationStats {
            objective_before: state.objective(),
            ..Default::default()
        };
        let mut destinations: Vec<NodeId> = Vec::new();
        loop {
            let current = state.objective();
            let Some(origin) = most_loaded_occupied_host(state) else {
                break;
            };
            let guest = cheapest_guest_to_move(state, origin);
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

    /// The exhaustive stage probing every guest of the origin against
    /// every host.
    fn reference_exhaustive(state: &mut PlacementState<'_>) -> MigrationStats {
        let mut stats = MigrationStats {
            objective_before: state.objective(),
            ..Default::default()
        };
        loop {
            let current = state.objective();
            let Some(origin) = most_loaded_occupied_host(state) else {
                break;
            };
            let mut best: Option<(f64, Kbps, GuestId, NodeId)> = None;
            for g in state.guests_on(origin).to_vec() {
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

    /// `x` moved `k` ulps up (`k > 0`) or down.
    fn ulps(mut x: f64, k: i32) -> f64 {
        for _ in 0..k.unsigned_abs() {
            x = if k > 0 { x.next_up() } else { x.next_down() };
        }
        x
    }

    /// A random complete placement: hosts, guests and links plus each
    /// guest's host, assigned in guest order.
    struct Case {
        phys: PhysicalTopology,
        venv: VirtualEnvironment,
        hosts: Vec<usize>,
    }

    impl Case {
        /// Up to `max_guests` guests on 2 to 2 000 hosts with
        /// heterogeneous CPU (`±0.0` included) at scales up to 1e12,
        /// memory-blocked hosts, pile-ups, and empty hosts whose residual
        /// sits a few ulps from `r_o + c` for a guest on the most-loaded
        /// host. A `tight` case piles unlinked guests on one host and puts
        /// every empty host within ulps of the first move's break-even.
        fn random(rng: &mut SmallRng, max_guests: usize) -> Case {
            let tight = rng.gen_bool(0.3);
            let n = match rng.gen_range(0..10) {
                0..=3 => rng.gen_range(2..9),
                4..=6 => rng.gen_range(9..65),
                7..=8 => rng.gen_range(65..401),
                _ => rng.gen_range(401..2001),
            };
            let scale = [1.0, 1e3, 1e6, 1e9, 1e12][rng.gen_range(0..5usize)];
            let classes = [scale, 2.0 * scale, 3.0 * scale, 1.5 * scale, 0.0, -0.0];
            let zeros = rng.gen_bool(0.15);
            let mut cap: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    _ if zeros => classes[rng.gen_range(4..classes.len())],
                    0 => scale,
                    1 | 2 => classes[rng.gen_range(0..classes.len())],
                    _ => scale * rng.gen_range(0.5..2.0),
                })
                .collect();
            let mem: Vec<u64> = (0..n)
                .map(|_| if rng.gen_bool(0.2) { 10 } else { 4096 })
                .collect();

            let guests = rng.gen_range(0..=max_guests.min(3 * n));
            let piles = if tight {
                1
            } else if rng.gen_bool(0.5) {
                rng.gen_range(1..=n.min(3))
            } else {
                n
            };
            let mut venv = VirtualEnvironment::new();
            let (mut hosts, mut residual, mut free) = (Vec::new(), cap.clone(), mem.clone());
            for _ in 0..guests {
                let proc = match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => scale / 10.0,
                    3 => scale / 7.0,
                    4 => scale * 1e-9,
                    _ => scale * rng.gen_range(0.0..0.3),
                };
                let need = if rng.gen_bool(0.1) { 512 } else { 64 };
                let first = rng.gen_range(0..piles);
                let Some(h) = (0..n).map(|i| (first + i) % n).find(|&h| free[h] >= need) else {
                    continue;
                };
                free[h] -= need;
                residual[h] -= proc;
                hosts.push(h);
                venv.add_guest(GuestSpec::new(Mips(proc), MemMb(need), StorGb(1.0)));
            }
            for _ in 0..if tight {
                0
            } else {
                rng.gen_range(0..=hosts.len())
            } {
                let (a, b) = (rng.gen_range(0..hosts.len()), rng.gen_range(0..hosts.len()));
                let bw = [1.0, 10.0, 100.0][rng.gen_range(0..3usize)];
                venv.add_link(
                    GuestId::from_index(a),
                    GuestId::from_index(b),
                    VLinkSpec::new(Kbps(bw), Millis(60.0)),
                );
            }

            // Empty hosts just inside and just past the band of a guest on
            // the most-loaded occupied host.
            let origin = (0..n)
                .filter(|&h| hosts.contains(&h))
                .min_by(|&a, &b| residual[a].total_cmp(&residual[b]));
            if let (Some(o), true) = (origin, tight || rng.gen_bool(0.5)) {
                let on_origin: Vec<usize> = (0..hosts.len()).filter(|&g| hosts[g] == o).collect();
                for h in (0..n).filter(|h| !hosts.contains(h)) {
                    if tight || rng.gen_bool(0.5) {
                        // Unlinked, the lowest id is the guest that moves.
                        let g = if tight {
                            on_origin[0]
                        } else {
                            on_origin[rng.gen_range(0..on_origin.len())]
                        };
                        let c = venv.guest(GuestId::from_index(g)).proc.value();
                        cap[h] = ulps(residual[o] + c, rng.gen_range(-3..=3));
                    }
                }
            }

            let phys = PhysicalTopology::from_shape(
                &generators::ring(n),
                cap.iter()
                    .zip(&mem)
                    .map(|(&c, &m)| HostSpec::new(Mips(c), MemMb(m), StorGb(1000.0))),
                LinkSpec::new(Kbps(1000.0), Millis(5.0)),
                VmmOverhead::NONE,
            );
            Case { phys, venv, hosts }
        }

        fn state(&self) -> PlacementState<'_> {
            let mut st = PlacementState::new(&self.phys, &self.venv);
            for (g, &h) in self.hosts.iter().enumerate() {
                st.assign(GuestId::from_index(g), self.phys.hosts()[h])
                    .expect("generated placements fit");
            }
            st
        }
    }

    /// Runs `new` and `old` on fresh copies of one case and requires the
    /// same decisions, with no more proposals from `new`.
    fn check_same(
        case: &Case,
        new: fn(&mut PlacementState<'_>, HostOrder) -> MigrationStats,
        old: fn(&mut PlacementState<'_>) -> MigrationStats,
    ) -> Result<(), TestCaseError> {
        let (mut a, mut b) = (case.state(), case.state());
        let (sa, sb) = (run_fresh(new, &mut a), old(&mut b));
        prop_assert_eq!(a.into_placement(), b.into_placement());
        prop_assert_eq!(sa.objective_after.to_bits(), sb.objective_after.to_bits());
        prop_assert_eq!(sa.migrations, sb.migrations);
        prop_assert!(
            sa.proposals_evaluated <= sb.proposals_evaluated,
            "{sa:?} vs {sb:?}"
        );
        Ok(())
    }

    /// Case seeds whose first move is accepted by the float probe a few
    /// ulps past the exact break-even `r_d = r_o + c`: a band that ended
    /// at the exact break-even, without the rounding tolerance, would
    /// change their decisions.
    #[test]
    fn pinned_break_even_cases_match_the_references() {
        let case = |seed, max_guests| Case::random(&mut SmallRng::seed_from_u64(seed), max_guests);
        for seed in [641, 1023, 1324] {
            check_same(&case(seed, 200), migration_stage, reference_paper).unwrap();
        }
        for seed in [222, 536, 1208] {
            check_same(
                &case(seed, 24),
                migration_stage_exhaustive,
                reference_exhaustive,
            )
            .unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn paper_stage_matches_the_sorting_reference(seed in any::<u64>()) {
            let case = Case::random(&mut SmallRng::seed_from_u64(seed), 200);
            check_same(&case, migration_stage, reference_paper)?;
        }

        #[test]
        fn exhaustive_stage_matches_the_scanning_reference(seed in any::<u64>()) {
            let case = Case::random(&mut SmallRng::seed_from_u64(seed), 24);
            check_same(&case, migration_stage_exhaustive, reference_exhaustive)?;
        }
    }
}
