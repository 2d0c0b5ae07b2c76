//! Mutable placement state shared by the Hosting and Migration stages and
//! by the random baselines.

use crate::astar_prune::ord;
use emumap_graph::NodeId;
use emumap_model::{
    GuestId, Kbps, ObjectiveAccumulator, PhysicalTopology, PlaceError, ResidualState,
    VirtualEnvironment,
};
use std::cell::Cell;
use std::collections::BTreeSet;

/// A partial guest→host assignment with residual bookkeeping.
///
/// Wraps a [`ResidualState`] and keeps the inverse index (which guests sit
/// on each host) so the Migration stage can enumerate migration candidates
/// without scanning every guest.
///
/// Every CPU-residual mutation funnels through [`assign`](Self::assign) /
/// [`unassign`](Self::unassign), which keep an [`ObjectiveAccumulator`] in
/// sync — so [`objective`](Self::objective) is O(1) and
/// [`objective_if_migrated`](Self::objective_if_migrated) evaluates a
/// hypothetical move in O(1) without touching the state. (The Networking
/// stage's [`residual_mut`](Self::residual_mut) access only commits route
/// *bandwidth*, which the objective never reads.)
pub struct PlacementState<'a> {
    phys: &'a PhysicalTopology,
    venv: &'a VirtualEnvironment,
    residual: ResidualState,
    assignment: Vec<Option<NodeId>>,
    /// node index -> guests placed there (hosts only; switches stay empty).
    guests_on: Vec<Vec<GuestId>>,
    assigned: usize,
    /// Running Σ/Σ² over the host residual-CPU vector (Eq. 10 in O(1)).
    acc: ObjectiveAccumulator,
    /// Reused buffer for the accumulator's periodic exact refresh.
    refresh_scratch: Vec<f64>,
    /// Hypothetical O(1)/O(degree) evaluations served without a full
    /// recompute (trace counter; `Cell` because probes take `&self`).
    delta_evals: Cell<u64>,
}

impl<'a> PlacementState<'a> {
    /// An empty assignment over fresh residuals.
    pub fn new(phys: &'a PhysicalTopology, venv: &'a VirtualEnvironment) -> Self {
        let residual = ResidualState::new(phys);
        let mut refresh_scratch = Vec::with_capacity(phys.host_count());
        residual.host_proc_residuals_into(phys, &mut refresh_scratch);
        let acc = ObjectiveAccumulator::new(&refresh_scratch);
        PlacementState {
            phys,
            venv,
            residual,
            assignment: vec![None; venv.guest_count()],
            guests_on: vec![Vec::new(); phys.graph().node_count()],
            assigned: 0,
            acc,
            refresh_scratch,
            delta_evals: Cell::new(0),
        }
    }

    /// The physical topology this state maps onto.
    pub fn phys(&self) -> &'a PhysicalTopology {
        self.phys
    }

    /// The virtual environment being mapped.
    pub fn venv(&self) -> &'a VirtualEnvironment {
        self.venv
    }

    /// Residual capacities under the current assignment.
    pub fn residual(&self) -> &ResidualState {
        &self.residual
    }

    /// Mutable residuals — used by the Networking stage to commit routes
    /// after placement is frozen.
    pub fn residual_mut(&mut self) -> &mut ResidualState {
        &mut self.residual
    }

    /// Host of `guest`, if assigned.
    pub fn host_of(&self, guest: GuestId) -> Option<NodeId> {
        self.assignment[guest.index()]
    }

    /// `true` once every guest has a host.
    pub fn is_complete(&self) -> bool {
        self.assigned == self.venv.guest_count()
    }

    /// Number of guests currently assigned.
    pub fn assigned_count(&self) -> usize {
        self.assigned
    }

    /// Guests currently placed on `host`.
    pub fn guests_on(&self, host: NodeId) -> &[GuestId] {
        &self.guests_on[host.index()]
    }

    /// `true` if `guest` fits on `host` under the hard constraints
    /// (Eqs. 2–3).
    pub fn fits(&self, guest: GuestId, host: NodeId) -> bool {
        self.residual.fits(self.venv.guest(guest), host)
    }

    /// Assigns `guest` to `host`.
    ///
    /// # Panics
    /// Panics if the guest is already assigned (mapper logic error).
    pub fn assign(&mut self, guest: GuestId, host: NodeId) -> Result<(), PlaceError> {
        assert!(
            self.assignment[guest.index()].is_none(),
            "guest {guest} is already assigned"
        );
        let before = self.residual.proc(host).value();
        self.residual
            .place(self.phys, self.venv.guest(guest), host)?;
        self.track_proc_change(host, before);
        self.assignment[guest.index()] = Some(host);
        self.guests_on[host.index()].push(guest);
        self.assigned += 1;
        Ok(())
    }

    /// Removes `guest` from its current host.
    ///
    /// # Panics
    /// Panics if the guest is not assigned.
    pub fn unassign(&mut self, guest: GuestId) {
        let host = self.assignment[guest.index()]
            .take()
            .unwrap_or_else(|| panic!("guest {guest} is not assigned"));
        let before = self.residual.proc(host).value();
        self.residual.remove(self.venv.guest(guest), host);
        self.track_proc_change(host, before);
        let list = &mut self.guests_on[host.index()];
        let pos = list
            .iter()
            .position(|&g| g == guest)
            .expect("inverse index consistent");
        list.swap_remove(pos);
        self.assigned -= 1;
    }

    /// Moves `guest` from its current host to `to`. Fails (leaving the
    /// state unchanged) if it does not fit.
    pub fn migrate(&mut self, guest: GuestId, to: NodeId) -> Result<(), PlaceError> {
        let from = self.assignment[guest.index()]
            .unwrap_or_else(|| panic!("guest {guest} is not assigned"));
        if from == to {
            return Ok(());
        }
        // Probe before mutating so failure is side-effect free.
        self.residual.check_fit(self.venv.guest(guest), to)?;
        self.unassign(guest);
        self.assign(guest, to).expect("probed fit cannot fail");
        Ok(())
    }

    /// Reports a CPU-residual change on `host` to the accumulator and runs
    /// the periodic exact refresh when due (drift control; see
    /// [`ObjectiveAccumulator`]).
    #[inline]
    fn track_proc_change(&mut self, host: NodeId, before: f64) {
        self.acc.apply(before, self.residual.proc(host).value());
        if self.acc.needs_refresh() {
            self.residual
                .host_proc_residuals_into(self.phys, &mut self.refresh_scratch);
            self.acc.refresh(&self.refresh_scratch);
        }
    }

    /// The load-balance factor (Eq. 10) of the current assignment. O(1) —
    /// served from the running accumulator.
    pub fn objective(&self) -> f64 {
        self.acc.stddev()
    }

    /// The load-balance factor *if* `guest` were migrated from its current
    /// host to `to`, without performing the migration. O(1): only the two
    /// affected residuals enter the accumulator's hypothetical view.
    /// `to == from` is an exact no-op (returns [`objective`](Self::objective)
    /// untouched by any ±vproc float wash).
    pub fn objective_if_migrated(&self, guest: GuestId, to: NodeId) -> f64 {
        let from = self.assignment[guest.index()].expect("guest is assigned");
        if to == from {
            return self.objective();
        }
        self.delta_evals.set(self.delta_evals.get() + 1);
        let vproc = self.venv.guest(guest).proc.value();
        let r_from = self.residual.proc(from).value();
        let r_to = self.residual.proc(to).value();
        self.acc
            .stddev_after([(r_from, r_from + vproc), (r_to, r_to - vproc)])
    }

    /// [`ObjectiveAccumulator::move_tolerance`] of the current residuals:
    /// moving CPU `c > 0` from residual `r_o` to residual `r_d`, both in
    /// `[lo, hi]`, cannot pass `objective_if_migrated(..) < objective()`
    /// once the float margin `(r_o + c) − r_d` exceeds it.
    pub(crate) fn move_tolerance(&self, lo: f64, hi: f64, c: f64) -> f64 {
        self.acc.move_tolerance(lo, hi, c)
    }

    /// Hypothetical evaluations answered by the O(1)/O(degree) delta paths
    /// since construction
    /// ([`objective_if_migrated`](Self::objective_if_migrated) and
    /// [`inter_bandwidth_delta`](Self::inter_bandwidth_delta)).
    pub fn delta_evaluations(&self) -> u64 {
        self.delta_evals.get()
    }

    /// Full O(hosts) objective evaluations performed (the accumulator's
    /// initial build, periodic refreshes, and `reset` re-syncs).
    pub fn full_evaluations(&self) -> u64 {
        self.acc.rebuilds()
    }

    /// Total bandwidth of `guest`'s virtual links whose other endpoint is
    /// currently placed on the *same* host — the Migration stage picks the
    /// guest minimizing this, "in order to minimize utilization of physical
    /// links" (§4.2).
    ///
    /// Self-loop rule (shared with
    /// [`inter_host_bandwidth`](Self::inter_host_bandwidth)): a guest's link
    /// to itself is never routed and counts toward *neither* the co-located
    /// nor the inter-host total.
    pub fn co_located_bandwidth(&self, guest: GuestId) -> Kbps {
        let Some(host) = self.assignment[guest.index()] else {
            return Kbps::ZERO;
        };
        self.venv
            .links_of(guest)
            .iter()
            .filter(|nb| nb.node != guest) // ignore self-loops
            .filter(|nb| self.assignment[nb.node.index()] == Some(host))
            .map(|nb| self.venv.link(nb.edge).bw)
            .sum()
    }

    /// Total bandwidth of virtual links whose endpoints currently sit on
    /// different hosts — the communication cost the annealer's energy
    /// penalizes. O(links); the search loops keep it incrementally updated
    /// via [`inter_bandwidth_delta`](Self::inter_bandwidth_delta) instead
    /// of calling this per proposal. Links with an unassigned endpoint
    /// count as inter-host unless both endpoints are unassigned (matching
    /// `host_of(a) != host_of(b)`); self-loops never count.
    pub fn inter_host_bandwidth(&self) -> Kbps {
        let venv = self.venv;
        venv.link_ids()
            .filter_map(|l| {
                let (a, b) = venv.link_endpoints(l);
                (self.assignment[a.index()] != self.assignment[b.index()]).then(|| venv.link(l).bw)
            })
            .sum()
    }

    /// Change in [`inter_host_bandwidth`](Self::inter_host_bandwidth) *if*
    /// `guest` were migrated to `to`, without performing the migration.
    /// O(degree of `guest`) via the virtual environment's CSR adjacency.
    pub fn inter_bandwidth_delta(&self, guest: GuestId, to: NodeId) -> Kbps {
        let from = self.assignment[guest.index()].expect("guest is assigned");
        if to == from {
            return Kbps::ZERO;
        }
        self.delta_evals.set(self.delta_evals.get() + 1);
        let mut delta = 0.0;
        for nb in self.venv.links_of(guest) {
            if nb.node == guest {
                continue; // self-loops are never routed
            }
            let bw = self.venv.link(nb.edge).bw.value();
            let peer = self.assignment[nb.node.index()];
            if peer != Some(to) {
                delta += bw; // becomes (or stays) inter-host after the move
            }
            if peer != Some(from) {
                delta -= bw; // was inter-host before the move
            }
        }
        Kbps(delta)
    }

    /// Exchanges the hosts of two assigned guests, leaving the state
    /// unchanged if either direction violates the hard constraints. Both
    /// residual updates flow through the same assign/unassign pair as
    /// single moves, so the objective accumulator stays in sync.
    pub fn swap(&mut self, a: GuestId, b: GuestId) -> Result<(), PlaceError> {
        let host_a =
            self.assignment[a.index()].unwrap_or_else(|| panic!("guest {a} is not assigned"));
        let host_b =
            self.assignment[b.index()].unwrap_or_else(|| panic!("guest {b} is not assigned"));
        if a == b || host_a == host_b {
            return Ok(());
        }
        self.unassign(a);
        self.unassign(b);
        let restore = |state: &mut Self| {
            state.assign(a, host_a).expect("own slot still fits");
            state.assign(b, host_b).expect("own slot still fits");
        };
        if let Err(e) = self.assign(a, host_b) {
            restore(self);
            return Err(e);
        }
        if let Err(e) = self.assign(b, host_a) {
            self.unassign(a);
            restore(self);
            return Err(e);
        }
        Ok(())
    }

    /// Consumes the state, returning the dense placement table.
    ///
    /// # Panics
    /// Panics if any guest is unassigned.
    pub fn into_placement(self) -> Vec<NodeId> {
        self.assignment
            .into_iter()
            .enumerate()
            .map(|(i, h)| h.unwrap_or_else(|| panic!("guest n{i} left unassigned")))
            .collect()
    }

    /// Clears every assignment, restoring fresh residuals — used by the
    /// retrying baselines between attempts.
    pub fn reset(&mut self) {
        self.residual = ResidualState::new(self.phys);
        self.assignment.fill(None);
        for list in &mut self.guests_on {
            list.clear();
        }
        self.assigned = 0;
        self.residual
            .host_proc_residuals_into(self.phys, &mut self.refresh_scratch);
        self.acc.rebuild(&self.refresh_scratch);
    }
}

/// Order-preserving `u64` image of a residual: `key(a) < key(b)` iff
/// `a < b`. Adding `+0.0` turns `-0.0` into `+0.0`, which
/// [`f64::total_cmp`] would otherwise order apart.
pub(crate) fn key(residual: f64) -> u64 {
    assert!(!residual.is_nan(), "CPU residuals are comparable");
    ord(residual + 0.0)
}

/// Every host of a [`PlacementState`] by descending residual CPU, ties by
/// id: the "CPU-sorted host list" Hosting scans and re-sorts after every
/// assignment (§4.1), and the order Migration takes destinations in
/// (§4.2). Hosting builds it once per map and hands it to Migration.
///
/// Entries are `(!key(residual CPU), host slot)`, where `key` is an
/// order-preserving `u64` image of the residual with `-0.0` folded into
/// `+0.0`. Since slots run in host-id order, iteration meets
/// hosts exactly as a `partial_cmp`-descending sort with an id tie-break
/// does. Changes to the state go through [`assign`](Self::assign) and
/// [`migrate`](Self::migrate), which re-key the hosts they touch in
/// O(log n); the order then keeps describing the state it was built on.
pub struct HostOrder {
    by_room: BTreeSet<(u64, u32)>,
}

impl HostOrder {
    /// The order of `state`'s current residuals. O(n log n).
    pub fn new(state: &PlacementState<'_>) -> Self {
        let proc = state.residual().proc_column();
        HostOrder {
            by_room: (0..proc.len()).map(|s| (!key(proc[s]), s as u32)).collect(),
        }
    }

    /// Every host, from the largest residual CPU down.
    pub fn iter<'s>(&'s self, state: &'s PlacementState<'_>) -> impl Iterator<Item = NodeId> + 's {
        self.by_room
            .iter()
            .map(|&(_, slot)| state.residual().host_at(slot as usize))
    }

    /// `true` if the order holds every host of `state` at its current
    /// residual CPU.
    pub(crate) fn describes(&self, state: &PlacementState<'_>) -> bool {
        let proc = state.residual().proc_column();
        self.by_room.len() == proc.len()
            && self
                .by_room
                .iter()
                .all(|&(k, slot)| k == !key(proc[slot as usize]))
    }

    /// The smallest and the largest residual CPU of any host.
    pub(crate) fn bounds(&self, state: &PlacementState<'_>) -> (f64, f64) {
        let proc = |&(_, slot): &(u64, u32)| state.residual().proc_column()[slot as usize];
        let hi = self.by_room.first().map_or(0.0, proc);
        let lo = self.by_room.last().map_or(0.0, proc);
        (lo, hi)
    }

    /// [`PlacementState::assign`], re-keying `host`.
    pub fn assign(
        &mut self,
        state: &mut PlacementState<'_>,
        guest: GuestId,
        host: NodeId,
    ) -> Result<(), PlaceError> {
        self.rekey(state, [host], |state| state.assign(guest, host))
    }

    /// [`PlacementState::migrate`], re-keying the two hosts it changes.
    pub fn migrate(
        &mut self,
        state: &mut PlacementState<'_>,
        guest: GuestId,
        dest: NodeId,
    ) -> Result<(), PlaceError> {
        let origin = state.host_of(guest).expect("guest is assigned");
        self.rekey(state, [origin, dest], |state| state.migrate(guest, dest))
    }

    /// Runs `change`, which may alter the residual CPU of `hosts` only,
    /// and moves their entries to their new keys.
    fn rekey<const N: usize>(
        &mut self,
        state: &mut PlacementState<'_>,
        hosts: [NodeId; N],
        change: impl FnOnce(&mut PlacementState<'_>) -> Result<(), PlaceError>,
    ) -> Result<(), PlaceError> {
        let entry = |state: &PlacementState<'_>, h: NodeId| {
            let slot = state.residual().slot_of(h).expect("hosts have slots");
            (!key(state.residual().proc_column()[slot]), slot as u32)
        };
        let before = hosts.map(|h| entry(state, h));
        change(state)?;
        for (h, old) in hosts.into_iter().zip(before) {
            self.by_room.remove(&old);
            self.by_room.insert(entry(state, h));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{
        GuestSpec, HostSpec, LinkSpec, MemMb, Millis, Mips, StorGb, VLinkSpec, VmmOverhead,
    };

    fn setup() -> (PhysicalTopology, VirtualEnvironment) {
        let phys = PhysicalTopology::from_shape(
            &generators::line(3),
            [
                HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0)),
                HostSpec::new(Mips(2000.0), MemMb(1024), StorGb(100.0)),
                HostSpec::new(Mips(3000.0), MemMb(512), StorGb(100.0)),
            ]
            .into_iter(),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(600), StorGb(10.0)));
        let b = venv.add_guest(GuestSpec::new(Mips(200.0), MemMb(600), StorGb(10.0)));
        let c = venv.add_guest(GuestSpec::new(Mips(300.0), MemMb(300), StorGb(10.0)));
        venv.add_link(a, b, VLinkSpec::new(Kbps(500.0), Millis(30.0)));
        venv.add_link(b, c, VLinkSpec::new(Kbps(200.0), Millis(30.0)));
        (phys, venv)
    }

    #[test]
    fn assign_unassign_roundtrip() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let g = GuestId::from_index(0);
        let h = phys.hosts()[0];
        assert!(!st.is_complete());
        st.assign(g, h).unwrap();
        assert_eq!(st.host_of(g), Some(h));
        assert_eq!(st.guests_on(h), &[g]);
        assert_eq!(st.assigned_count(), 1);
        assert_eq!(st.residual().proc(h), Mips(900.0));
        st.unassign(g);
        assert_eq!(st.host_of(g), None);
        assert!(st.guests_on(h).is_empty());
        assert_eq!(st.residual().proc(h), Mips(1000.0));
    }

    #[test]
    fn assign_respects_hard_constraints() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let a = GuestId::from_index(0);
        let b = GuestId::from_index(1);
        let h0 = phys.hosts()[0]; // 1024 MB
        st.assign(a, h0).unwrap(); // 600 MB used
        assert!(!st.fits(b, h0)); // another 600 MB won't fit
        assert!(st.assign(b, h0).is_err());
        // Failed assign leaves no trace.
        assert_eq!(st.host_of(b), None);
        assert_eq!(st.assigned_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assign_panics() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let g = GuestId::from_index(0);
        st.assign(g, phys.hosts()[0]).unwrap();
        let _ = st.assign(g, phys.hosts()[1]);
    }

    #[test]
    fn migrate_moves_and_fails_cleanly() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let a = GuestId::from_index(0);
        let h = phys.hosts();
        st.assign(a, h[0]).unwrap();
        st.migrate(a, h[1]).unwrap();
        assert_eq!(st.host_of(a), Some(h[1]));
        assert_eq!(st.residual().proc(h[0]), Mips(1000.0));
        assert_eq!(st.residual().proc(h[1]), Mips(1900.0));
        // h[2] has only 512 MB; guest a needs 600 MB.
        assert!(st.migrate(a, h[2]).is_err());
        assert_eq!(
            st.host_of(a),
            Some(h[1]),
            "failed migration must not move the guest"
        );
    }

    #[test]
    fn migrate_to_same_host_is_noop() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let a = GuestId::from_index(0);
        st.assign(a, phys.hosts()[0]).unwrap();
        st.migrate(a, phys.hosts()[0]).unwrap();
        assert_eq!(st.host_of(a), Some(phys.hosts()[0]));
        assert_eq!(st.residual().proc(phys.hosts()[0]), Mips(900.0));
    }

    #[test]
    fn objective_if_migrated_matches_actual_migration() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        // Guest memories are 600/600/300 MB against 1024/1024/512 MB hosts.
        for (i, &host) in [h[0], h[1], h[1]].iter().enumerate() {
            st.assign(GuestId::from_index(i), host).unwrap();
        }
        let g = GuestId::from_index(2); // the 300 MB guest fits h[2]
        let predicted = st.objective_if_migrated(g, h[2]);
        st.migrate(g, h[2]).unwrap();
        let actual = st.objective();
        assert!((predicted - actual).abs() < 1e-9);
    }

    #[test]
    fn co_located_bandwidth_counts_same_host_neighbors_only() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        let (a, b, c) = (
            GuestId::from_index(0),
            GuestId::from_index(1),
            GuestId::from_index(2),
        );
        st.assign(a, h[0]).unwrap();
        st.assign(b, h[1]).unwrap();
        st.assign(c, h[1]).unwrap();
        // b links: a (500, different host) + c (200, same host).
        assert_eq!(st.co_located_bandwidth(b), Kbps(200.0));
        assert_eq!(st.co_located_bandwidth(a), Kbps::ZERO);
    }

    #[test]
    fn into_placement_and_reset() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        for (i, &host) in [h[0], h[1], h[2]].iter().enumerate() {
            st.assign(GuestId::from_index(i), host).unwrap();
        }
        assert!(st.is_complete());
        st.reset();
        assert_eq!(st.assigned_count(), 0);
        assert_eq!(st.residual().proc(h[0]), Mips(1000.0));
        for (i, &host) in [h[1], h[0], h[2]].iter().enumerate() {
            st.assign(GuestId::from_index(i), host).unwrap();
        }
        let placement = st.into_placement();
        assert_eq!(placement, vec![h[1], h[0], h[2]]);
    }

    #[test]
    #[should_panic(expected = "left unassigned")]
    fn into_placement_panics_when_incomplete() {
        let (phys, venv) = setup();
        let st = PlacementState::new(&phys, &venv);
        let _ = st.into_placement();
    }

    #[test]
    fn objective_matches_full_recompute_through_mutations() {
        use emumap_model::objective::population_stddev;
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        let check = |st: &PlacementState<'_>| {
            let exact = population_stddev(&st.residual().host_proc_residuals(&phys));
            assert!(
                (st.objective() - exact).abs() <= 1e-9 * (1.0 + exact),
                "{} vs {}",
                st.objective(),
                exact
            );
        };
        check(&st); // empty: uniform residuals
        for (i, &host) in [h[0], h[1], h[1]].iter().enumerate() {
            st.assign(GuestId::from_index(i), host).unwrap();
            check(&st);
        }
        st.migrate(GuestId::from_index(2), h[2]).unwrap();
        check(&st);
        st.unassign(GuestId::from_index(0));
        check(&st);
        st.reset();
        check(&st);
    }

    #[test]
    fn objective_if_migrated_to_same_host_is_exact_noop() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let g = GuestId::from_index(0);
        st.assign(g, phys.hosts()[0]).unwrap();
        // Bitwise equality, not tolerance: no ±vproc float round trip.
        assert_eq!(
            st.objective_if_migrated(g, phys.hosts()[0]).to_bits(),
            st.objective().to_bits()
        );
    }

    #[test]
    fn swap_exchanges_hosts() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        let (a, c) = (GuestId::from_index(0), GuestId::from_index(2));
        st.assign(a, h[0]).unwrap();
        st.assign(c, h[1]).unwrap();
        st.swap(a, c).unwrap();
        assert_eq!(st.host_of(a), Some(h[1]));
        assert_eq!(st.host_of(c), Some(h[0]));
        assert_eq!(st.residual().proc(h[0]), Mips(700.0)); // 1000 - 300
        assert_eq!(st.residual().proc(h[1]), Mips(1900.0)); // 2000 - 100
    }

    #[test]
    fn failed_swap_restores_both_guests() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        // Guest a needs 600 MB; host 2 has only 512 MB, so the swap with c
        // (on host 2) must fail and restore the original placement.
        let (a, c) = (GuestId::from_index(0), GuestId::from_index(2));
        st.assign(a, h[0]).unwrap();
        st.assign(c, h[2]).unwrap();
        assert!(st.swap(a, c).is_err());
        assert_eq!(st.host_of(a), Some(h[0]));
        assert_eq!(st.host_of(c), Some(h[2]));
        assert_eq!(st.residual().proc(h[0]), Mips(900.0));
        assert_eq!(st.residual().proc(h[2]), Mips(2700.0));
    }

    #[test]
    fn inter_host_bandwidth_counts_split_links() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        let (a, b, c) = (
            GuestId::from_index(0),
            GuestId::from_index(1),
            GuestId::from_index(2),
        );
        st.assign(a, h[0]).unwrap();
        st.assign(b, h[1]).unwrap();
        st.assign(c, h[1]).unwrap();
        // a-b (500) is split; b-c (200) is co-located.
        assert_eq!(st.inter_host_bandwidth(), Kbps(500.0));
    }

    #[test]
    fn inter_bandwidth_delta_matches_full_rescan() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        for (i, &host) in [h[0], h[1], h[1]].iter().enumerate() {
            st.assign(GuestId::from_index(i), host).unwrap();
        }
        let b = GuestId::from_index(1);
        for &dest in h {
            if !st.fits(b, dest) {
                continue;
            }
            let before = st.inter_host_bandwidth();
            let predicted = st.inter_bandwidth_delta(b, dest);
            let prev = st.host_of(b).unwrap();
            st.migrate(b, dest).unwrap();
            let actual = st.inter_host_bandwidth() - before;
            assert!(
                (predicted.value() - actual.value()).abs() < 1e-9,
                "dest {dest}: predicted {predicted:?}, actual {actual:?}"
            );
            st.migrate(b, prev).unwrap();
        }
        // Same-host "move" is an exact zero.
        assert_eq!(st.inter_bandwidth_delta(b, h[1]), Kbps::ZERO);
    }

    #[test]
    fn self_loops_count_toward_neither_bandwidth_total() {
        let (phys, mut venv) = setup();
        let a = GuestId::from_index(0);
        venv.add_link(a, a, VLinkSpec::new(Kbps(9999.0), Millis(1.0)));
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        for (i, &host) in [h[0], h[1], h[1]].iter().enumerate() {
            st.assign(GuestId::from_index(i), host).unwrap();
        }
        assert_eq!(st.co_located_bandwidth(a), Kbps::ZERO);
        assert_eq!(st.inter_host_bandwidth(), Kbps(500.0));
        // A move of the self-looped guest never changes the loop's term:
        // co-locating a with b only removes the 500 of the a-b link.
        assert_eq!(st.inter_bandwidth_delta(a, h[1]), Kbps(-500.0));
    }

    #[test]
    fn delta_and_full_evaluation_counters_advance() {
        let (phys, venv) = setup();
        let mut st = PlacementState::new(&phys, &venv);
        let h = phys.hosts();
        assert_eq!(st.full_evaluations(), 1, "initial accumulator build");
        assert_eq!(st.delta_evaluations(), 0);
        st.assign(GuestId::from_index(0), h[0]).unwrap();
        let _ = st.objective_if_migrated(GuestId::from_index(0), h[1]);
        let _ = st.inter_bandwidth_delta(GuestId::from_index(0), h[1]);
        assert_eq!(st.delta_evaluations(), 2);
        // The exact-no-op guard does not spend a delta evaluation.
        let _ = st.objective_if_migrated(GuestId::from_index(0), h[0]);
        assert_eq!(st.delta_evaluations(), 2);
        st.reset();
        assert_eq!(st.full_evaluations(), 2, "reset re-syncs exactly once");
    }
}
