//! Incremental residual-capacity bookkeeping.
//!
//! Every HMN stage mutates a tentative assignment thousands of times
//! (placements, migrations, route commitments), so recomputing capacities
//! from scratch per probe would be quadratic. [`ResidualState`] maintains
//! per-host residual CPU/memory/storage and per-link residual bandwidth
//! under O(1) place/remove and O(path) route commit/release, and is the
//! single source of truth the mappers consult for feasibility (Eqs. 2, 3, 9)
//! and for the objective's residual-CPU inputs (Eq. 11).

use crate::mapping::Mapping;
use crate::physical::PhysicalTopology;
use crate::resources::{Kbps, MemMb, Mips, StorGb};
use crate::virtualenv::{GuestId, GuestSpec, VLinkId, VirtualEnvironment};
use emumap_graph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// Mutable residual capacities over a fixed physical topology.
///
/// CPU residuals are allowed to go negative — CPU is the optimized
/// quantity, not a constraint (§3.2: "We are not considering CPU as a
/// constraint of our problem"). Memory and storage are hard constraints and
/// [`ResidualState::place`] refuses to violate them.
///
/// Host capacities live in structure-of-arrays columns indexed by *host
/// slot* (position in [`PhysicalTopology::hosts`] order), not node id, so
/// candidate filtering in Hosting/Greedy is a linear pass over contiguous
/// memory. [`ResidualState::fill_feasible`] compresses one such pass into
/// a [`FeasBitset`]. Switches hold no capacity and have no slot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResidualState {
    /// Host node ids in slot order (mirror of `phys.hosts()`).
    hosts: Vec<NodeId>,
    /// Node index → host slot; `u32::MAX` marks switches.
    host_slot: Vec<u32>,
    /// Residual CPU per host slot (may go negative).
    proc: Vec<f64>,
    /// Residual memory per host slot.
    mem: Vec<u64>,
    /// Residual storage per host slot.
    stor: Vec<f64>,
    /// Residual bandwidth per physical edge index.
    bw: Vec<f64>,
}

/// Scale-aware tolerance for the f64 hard-constraint re-checks in
/// [`ResidualState::rebuilt`]: partial sums of storage/bandwidth
/// deductions reassociate by ulps when tenants replay in a different
/// order, so an exact-boundary fit admitted once must not be refused on
/// rebuild. Memory needs no slack — it is integer arithmetic.
#[inline]
fn float_slack(demand: f64) -> f64 {
    1e-9 * (1.0 + demand.abs())
}

/// A set of host slots as a packed bit vector, filled by
/// [`ResidualState::fill_feasible`] in one branch-light column pass and
/// then scanned word-at-a-time by the placement stages.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FeasBitset {
    words: Vec<u64>,
    len: usize,
}

impl FeasBitset {
    /// An empty set; reusable across fills without reallocating.
    pub fn new() -> Self {
        FeasBitset::default()
    }

    /// Number of slots the set ranges over (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set ranges over zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears all bits and resizes to cover `len` slots.
    pub fn clear_resize(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Sets bit `slot`.
    #[inline]
    pub fn set(&mut self, slot: usize) {
        debug_assert!(slot < self.len);
        self.words[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Reads bit `slot`.
    #[inline]
    pub fn get(&self, slot: usize) -> bool {
        slot < self.len && self.words[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Lowest set slot, if any — O(words), skipping empty words.
    pub fn first_one(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|wi| wi * 64 + self.words[wi].trailing_zeros() as usize)
    }

    /// Iterates set slots in ascending order, skipping zero words.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// Why a guest cannot be placed on a host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlaceError {
    /// Target node is a switch.
    NotAHost,
    /// Eq. 2 would be violated.
    InsufficientMemory,
    /// Eq. 3 would be violated.
    InsufficientStorage,
    /// Eq. 9 would be violated on some edge of a committed route
    /// (reported by the whole-tenant-set [`ResidualState::rebuilt`], never
    /// by single-guest placement).
    InsufficientBandwidth,
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::NotAHost => write!(f, "target node is a switch, not a host"),
            PlaceError::InsufficientMemory => write!(f, "insufficient residual memory"),
            PlaceError::InsufficientStorage => write!(f, "insufficient residual storage"),
            PlaceError::InsufficientBandwidth => write!(f, "insufficient residual bandwidth"),
        }
    }
}

impl std::error::Error for PlaceError {}

impl ResidualState {
    /// Fresh residuals equal to the *effective* capacities of the topology
    /// (raw capacities minus VMM overhead, §3.1).
    pub fn new(phys: &PhysicalTopology) -> Self {
        let hosts: Vec<NodeId> = phys.hosts().to_vec();
        let mut host_slot = vec![u32::MAX; phys.graph().node_count()];
        for (slot, &h) in hosts.iter().enumerate() {
            host_slot[h.index()] = slot as u32;
        }
        let proc = hosts
            .iter()
            .map(|&h| phys.effective_proc(h).value())
            .collect();
        let mem = hosts
            .iter()
            .map(|&h| phys.effective_mem(h).value())
            .collect();
        let stor = hosts
            .iter()
            .map(|&h| phys.effective_stor(h).value())
            .collect();
        let bw = phys
            .graph()
            .edge_ids()
            .map(|e| phys.link(e).bw.value())
            .collect();
        ResidualState {
            hosts,
            host_slot,
            proc,
            mem,
            stor,
            bw,
        }
    }

    /// The host slot of a node, or `None` for switches.
    #[inline]
    pub fn slot_of(&self, node: NodeId) -> Option<usize> {
        match self.host_slot.get(node.index()) {
            Some(&s) if s != u32::MAX => Some(s as usize),
            _ => None,
        }
    }

    /// The node id occupying a host slot.
    #[inline]
    pub fn host_at(&self, slot: usize) -> NodeId {
        self.hosts[slot]
    }

    /// Host node ids in slot order (mirrors `phys.hosts()`).
    pub fn host_nodes(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Residual CPU column, one entry per host slot.
    pub fn proc_column(&self) -> &[f64] {
        &self.proc
    }

    /// Residual memory column, one entry per host slot.
    pub fn mem_column(&self) -> &[u64] {
        &self.mem
    }

    /// Residual storage column, one entry per host slot.
    pub fn stor_column(&self) -> &[f64] {
        &self.stor
    }

    /// Residual CPU of a node (negative = oversubscribed, which is legal).
    /// Switches report zero.
    #[inline]
    pub fn proc(&self, node: NodeId) -> Mips {
        Mips(self.slot_of(node).map_or(0.0, |s| self.proc[s]))
    }

    /// Residual memory of a node. Switches report zero.
    #[inline]
    pub fn mem(&self, node: NodeId) -> MemMb {
        MemMb(self.slot_of(node).map_or(0, |s| self.mem[s]))
    }

    /// Residual storage of a node. Switches report zero.
    #[inline]
    pub fn stor(&self, node: NodeId) -> StorGb {
        StorGb(self.slot_of(node).map_or(0.0, |s| self.stor[s]))
    }

    /// Residual bandwidth of a physical edge.
    #[inline]
    pub fn bw(&self, edge: EdgeId) -> Kbps {
        Kbps(self.bw[edge.index()])
    }

    /// `true` if `guest` would respect the hard constraints on `host`
    /// (Eqs. 2–3). CPU is deliberately not checked.
    pub fn fits(&self, guest: &GuestSpec, host: NodeId) -> bool {
        self.check_fit(guest, host).is_ok()
    }

    /// Like [`fits`](Self::fits) but says why not.
    pub fn check_fit(&self, guest: &GuestSpec, host: NodeId) -> Result<(), PlaceError> {
        // A switch has zero capacity, so this also rejects switches —
        // but distinguish the reason for callers/diagnostics.
        let (mem, stor) = match self.slot_of(host) {
            Some(s) => (self.mem[s], self.stor[s]),
            None => (0, 0.0),
        };
        if mem < guest.mem.value() {
            return Err(PlaceError::InsufficientMemory);
        }
        if stor < guest.stor.value() {
            return Err(PlaceError::InsufficientStorage);
        }
        Ok(())
    }

    /// Marks every host slot where `guest` respects the hard constraints
    /// (Eqs. 2–3) in one branch-light pass over the capacity columns.
    /// `out` is cleared and resized to the host count first.
    pub fn fill_feasible(&self, guest: &GuestSpec, out: &mut FeasBitset) {
        out.clear_resize(self.hosts.len());
        let gm = guest.mem.value();
        let gs = guest.stor.value();
        let mut word = 0u64;
        for (slot, (&m, &s)) in self.mem.iter().zip(&self.stor).enumerate() {
            word |= u64::from(m >= gm && s >= gs) << (slot % 64);
            if slot % 64 == 63 {
                out.words[slot / 64] = word;
                word = 0;
            }
        }
        if !self.hosts.len().is_multiple_of(64) {
            out.words[self.hosts.len() / 64] = word;
        }
    }

    /// Commits `guest` onto `host`, updating residuals.
    ///
    /// Fails (without mutating) if the hard constraints would be violated
    /// or `host` is not a host node of `phys`.
    pub fn place(
        &mut self,
        phys: &PhysicalTopology,
        guest: &GuestSpec,
        host: NodeId,
    ) -> Result<(), PlaceError> {
        if !phys.is_host(host) {
            return Err(PlaceError::NotAHost);
        }
        self.check_fit(guest, host)?;
        let s = self.slot_of(host).expect("hosts always have a slot");
        self.proc[s] -= guest.proc.value();
        self.mem[s] -= guest.mem.value();
        self.stor[s] -= guest.stor.value();
        Ok(())
    }

    /// Reverses a previous [`place`](Self::place) of `guest` on `host`.
    ///
    /// The caller is responsible for only removing guests it actually
    /// placed; this is debug-asserted via capacity overflow checks in the
    /// validation layer rather than tracked here (the mappers own the
    /// assignment tables).
    pub fn remove(&mut self, guest: &GuestSpec, host: NodeId) {
        let s = self
            .slot_of(host)
            .expect("remove targets a host that received a place");
        self.proc[s] += guest.proc.value();
        self.mem[s] += guest.mem.value();
        self.stor[s] += guest.stor.value();
    }

    /// Writes back a host slot's (proc, mem, stor) residuals as read from
    /// the columns before a [`place`](Self::place). Undoing the place this
    /// way is bit-exact where [`remove`](Self::remove) need not be: in
    /// floating point, `(r − g) + g` is not always `r`.
    pub fn restore_slot(&mut self, slot: usize, (proc, mem, stor): (f64, u64, f64)) {
        self.proc[slot] = proc;
        self.mem[slot] = mem;
        self.stor[slot] = stor;
    }

    /// `true` if every edge of `route` has at least `demand` residual
    /// bandwidth (Eq. 9 probe).
    pub fn route_feasible(&self, route: &[EdgeId], demand: Kbps) -> bool {
        route.iter().all(|e| self.bw[e.index()] >= demand.value())
    }

    /// Deducts `demand` from every edge of `route`.
    ///
    /// # Panics
    /// Panics in debug builds if any edge lacks capacity; callers must
    /// probe with [`route_feasible`](Self::route_feasible) first (the
    /// mappers do — A*Prune prunes infeasible edges during search).
    pub fn commit_route(&mut self, route: &[EdgeId], demand: Kbps) {
        for e in route {
            debug_assert!(
                self.bw[e.index()] >= demand.value() - 1e-9,
                "committing route over edge {e} without residual bandwidth"
            );
            self.bw[e.index()] -= demand.value();
        }
    }

    /// Returns `demand` to every edge of `route` (reversing a commit).
    pub fn release_route(&mut self, route: &[EdgeId], demand: Kbps) {
        for e in route {
            self.bw[e.index()] += demand.value();
        }
    }

    /// From-scratch canonical rebuild: fresh residuals over `phys` with
    /// every `(venv, mapping)` pair committed in iteration order, each
    /// guest in index order and then each routed link in index order.
    /// This is the only way the serve session's residuals change, so they
    /// are *bitwise* a pure function of its tenant set.
    ///
    /// The hard constraints are re-checked as the deductions happen:
    /// memory exactly (integer arithmetic), storage and bandwidth with a
    /// scale-aware float slack, so a tenant admitted against bit-equal
    /// residuals is never refused when replayed in a different tenant
    /// order (f64 partial sums reassociate by ulps). CPU is never checked
    /// (§3.2). If every demand is finite and non-negative, any subset of
    /// a tenant set that rebuilds also rebuilds: rounding to nearest is
    /// monotone, so no residual over the subset is smaller than over the
    /// whole set. Atomic: on `Err` nothing is returned and no existing
    /// state was touched.
    pub fn rebuilt<'t, I>(phys: &PhysicalTopology, tenants: I) -> Result<ResidualState, PlaceError>
    where
        I: IntoIterator<Item = (&'t VirtualEnvironment, &'t Mapping)>,
    {
        let mut state = ResidualState::new(phys);
        for (venv, mapping) in tenants {
            state.apply_mapping(venv, mapping)?;
        }
        Ok(state)
    }

    /// Commits one tenant of [`rebuilt`](Self::rebuilt); on `Err` the
    /// state is partially applied, which `rebuilt` discards.
    fn apply_mapping(
        &mut self,
        venv: &VirtualEnvironment,
        mapping: &Mapping,
    ) -> Result<(), PlaceError> {
        debug_assert_eq!(venv.guest_count(), mapping.guest_count());
        for (idx, &host) in mapping.placement().iter().enumerate() {
            let guest = venv.guest(GuestId::from_index(idx));
            let s = self.slot_of(host).ok_or(PlaceError::NotAHost)?;
            if self.mem[s] < guest.mem.value() {
                return Err(PlaceError::InsufficientMemory);
            }
            let gs = guest.stor.value();
            if self.stor[s] - gs < -float_slack(gs) {
                return Err(PlaceError::InsufficientStorage);
            }
            self.proc[s] -= guest.proc.value();
            self.mem[s] -= guest.mem.value();
            self.stor[s] -= gs;
        }
        for (idx, route) in mapping.routes().iter().enumerate() {
            let demand = venv.link(VLinkId::from_index(idx)).bw.value();
            for e in route.edges() {
                if self.bw[e.index()] - demand < -float_slack(demand) {
                    return Err(PlaceError::InsufficientBandwidth);
                }
                self.bw[e.index()] -= demand;
            }
        }
        Ok(())
    }

    /// Largest absolute per-entry difference between two residual states
    /// across all four columns (CPU, memory, storage, bandwidth) — the
    /// reconciliation metric. Zero iff the states agree on every finite
    /// entry; any leaked or double-counted capacity shows up as a positive
    /// value.
    ///
    /// # Panics
    /// Panics if the states cover different topologies (column lengths
    /// differ) — comparing residuals of different clusters is a bug.
    pub fn divergence(&self, other: &ResidualState) -> f64 {
        assert_eq!(self.hosts, other.hosts, "residuals of different clusters");
        assert_eq!(self.bw.len(), other.bw.len());
        let mut worst = 0.0f64;
        for (a, b) in self.proc.iter().zip(&other.proc) {
            worst = worst.max((a - b).abs());
        }
        for (a, b) in self.mem.iter().zip(&other.mem) {
            worst = worst.max(a.abs_diff(*b) as f64);
        }
        for (a, b) in self.stor.iter().zip(&other.stor) {
            worst = worst.max((a - b).abs());
        }
        for (a, b) in self.bw.iter().zip(&other.bw) {
            worst = worst.max((a - b).abs());
        }
        worst
    }

    /// Residual CPU of every *host* of `phys`, in host order — the
    /// `rproc(c_i)` vector the objective function consumes (Eq. 11).
    pub fn host_proc_residuals(&self, phys: &PhysicalTopology) -> Vec<f64> {
        debug_assert_eq!(phys.host_count(), self.hosts.len());
        self.proc.clone()
    }

    /// Allocation-free variant of
    /// [`host_proc_residuals`](Self::host_proc_residuals): fills `out`
    /// (cleared first) with the host-order residual CPU vector — now a
    /// single contiguous copy of the CPU column. The search loops refresh
    /// their objective accumulator through a reused scratch buffer via
    /// this.
    pub fn host_proc_residuals_into(&self, phys: &PhysicalTopology, out: &mut Vec<f64>) {
        debug_assert_eq!(phys.host_count(), self.hosts.len());
        out.clear();
        out.extend_from_slice(&self.proc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{HostSpec, LinkSpec, VmmOverhead};
    use crate::resources::Millis;
    use emumap_graph::generators;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn phys() -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::line(3),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(500.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    fn guest(proc: f64, mem: u64, stor: f64) -> GuestSpec {
        GuestSpec::new(Mips(proc), MemMb(mem), StorGb(stor))
    }

    #[test]
    fn fresh_residuals_match_effective_capacity() {
        let p = phys();
        let r = ResidualState::new(&p);
        let h = p.hosts()[0];
        assert_eq!(r.proc(h), Mips(1000.0));
        assert_eq!(r.mem(h), MemMb(1024));
        assert_eq!(r.stor(h), StorGb(100.0));
        for e in p.graph().edge_ids() {
            assert_eq!(r.bw(e), Kbps(500.0));
        }
    }

    #[test]
    fn place_and_remove_roundtrip() {
        let p = phys();
        let mut r = ResidualState::new(&p);
        let h = p.hosts()[1];
        let g = guest(100.0, 256, 10.0);
        r.place(&p, &g, h).unwrap();
        assert_eq!(r.proc(h), Mips(900.0));
        assert_eq!(r.mem(h), MemMb(768));
        assert_eq!(r.stor(h), StorGb(90.0));
        r.remove(&g, h);
        assert_eq!(r.proc(h), Mips(1000.0));
        assert_eq!(r.mem(h), MemMb(1024));
    }

    #[test]
    fn memory_is_a_hard_constraint() {
        let p = phys();
        let mut r = ResidualState::new(&p);
        let h = p.hosts()[0];
        let g = guest(0.0, 2048, 1.0);
        assert_eq!(r.place(&p, &g, h), Err(PlaceError::InsufficientMemory));
        assert!(!r.fits(&g, h));
        // State unchanged after failed placement.
        assert_eq!(r.mem(h), MemMb(1024));
    }

    #[test]
    fn storage_is_a_hard_constraint() {
        let p = phys();
        let mut r = ResidualState::new(&p);
        let h = p.hosts()[0];
        let g = guest(0.0, 1, 1000.0);
        assert_eq!(r.place(&p, &g, h), Err(PlaceError::InsufficientStorage));
    }

    #[test]
    fn cpu_may_be_oversubscribed() {
        let p = phys();
        let mut r = ResidualState::new(&p);
        let h = p.hosts()[0];
        let hungry = guest(800.0, 100, 1.0);
        r.place(&p, &hungry, h).unwrap();
        r.place(&p, &hungry, h).unwrap();
        assert_eq!(r.proc(h), Mips(-600.0));
    }

    #[test]
    fn exact_fit_is_allowed() {
        let p = phys();
        let mut r = ResidualState::new(&p);
        let h = p.hosts()[2];
        let g = guest(1.0, 1024, 100.0);
        assert!(r.fits(&g, h));
        r.place(&p, &g, h).unwrap();
        assert_eq!(r.mem(h), MemMb::ZERO);
        assert!(!r.fits(&guest(0.0, 1, 0.0), h));
    }

    #[test]
    fn route_commit_and_release() {
        let p = phys();
        let mut r = ResidualState::new(&p);
        let edges: Vec<_> = p.graph().edge_ids().collect();
        assert!(r.route_feasible(&edges, Kbps(500.0)));
        assert!(!r.route_feasible(&edges, Kbps(500.1)));
        r.commit_route(&edges, Kbps(300.0));
        assert_eq!(r.bw(edges[0]), Kbps(200.0));
        assert!(!r.route_feasible(&edges, Kbps(300.0)));
        r.release_route(&edges, Kbps(300.0));
        assert_eq!(r.bw(edges[0]), Kbps(500.0));
    }

    #[test]
    fn host_proc_residuals_in_host_order() {
        let p = phys();
        let mut r = ResidualState::new(&p);
        r.place(&p, &guest(250.0, 1, 1.0), p.hosts()[1]).unwrap();
        assert_eq!(r.host_proc_residuals(&p), vec![1000.0, 750.0, 1000.0]);
    }

    #[test]
    fn columns_track_place_and_remove_in_host_order() {
        let p = phys();
        let mut r = ResidualState::new(&p);
        let g = guest(100.0, 256, 10.0);
        r.place(&p, &g, p.hosts()[1]).unwrap();
        assert_eq!(r.proc_column(), &[1000.0, 900.0, 1000.0]);
        assert_eq!(r.mem_column(), &[1024, 768, 1024]);
        assert_eq!(r.stor_column(), &[100.0, 90.0, 100.0]);
        assert_eq!(r.host_nodes(), p.hosts());
        for (slot, &h) in p.hosts().iter().enumerate() {
            assert_eq!(r.slot_of(h), Some(slot));
            assert_eq!(r.host_at(slot), h);
        }
        r.remove(&g, p.hosts()[1]);
        assert_eq!(r.proc_column(), &[1000.0, 1000.0, 1000.0]);
    }

    #[test]
    fn fill_feasible_agrees_with_fits() {
        let p = phys();
        let mut r = ResidualState::new(&p);
        // Fill host 0's memory and host 2's storage so the bitset has
        // holes to find.
        r.place(&p, &guest(0.0, 1024, 1.0), p.hosts()[0]).unwrap();
        r.place(&p, &guest(0.0, 1, 100.0), p.hosts()[2]).unwrap();
        let g = guest(10.0, 512, 50.0);
        let mut bits = FeasBitset::new();
        r.fill_feasible(&g, &mut bits);
        assert_eq!(bits.len(), p.host_count());
        for (slot, &h) in p.hosts().iter().enumerate() {
            assert_eq!(bits.get(slot), r.fits(&g, h), "slot {slot}");
        }
        assert_eq!(bits.count(), 1);
        assert_eq!(bits.first_one(), Some(1));
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn bitset_handles_multi_word_ranges() {
        let mut bits = FeasBitset::new();
        bits.clear_resize(130);
        for slot in [0, 63, 64, 100, 129] {
            bits.set(slot);
        }
        assert_eq!(bits.count(), 5);
        assert_eq!(bits.first_one(), Some(0));
        assert_eq!(
            bits.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 100, 129]
        );
        assert!(!bits.get(65));
        assert!(!bits.get(500), "out-of-range reads are false, not panics");
        bits.clear_resize(10);
        assert_eq!(bits.count(), 0, "clear_resize zeroes previous bits");
    }

    #[test]
    fn switches_have_no_slot_and_zero_capacity() {
        let shape = generators::switched_cascade(2, 4);
        let p = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(500.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let switch = p
            .graph()
            .nodes()
            .find(|(_, n)| !n.is_host())
            .map(|(id, _)| id)
            .unwrap();
        let r = ResidualState::new(&p);
        assert_eq!(r.slot_of(switch), None);
        assert_eq!(r.proc(switch), Mips(0.0));
        assert_eq!(r.mem(switch), MemMb(0));
        assert_eq!(r.stor(switch), StorGb(0.0));
    }

    #[test]
    fn switches_are_rejected() {
        let shape = generators::switched_cascade(2, 4);
        let p = PhysicalTopology::from_shape(
            &shape,
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
            LinkSpec::new(Kbps(500.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let switch = p
            .graph()
            .nodes()
            .find(|(_, n)| !n.is_host())
            .map(|(id, _)| id)
            .unwrap();
        let mut r = ResidualState::new(&p);
        assert_eq!(
            r.place(&p, &guest(1.0, 1, 1.0), switch),
            Err(PlaceError::NotAHost)
        );
    }

    /// Two guests linked over bandwidth 200, mapped onto hosts 0 and 2 of
    /// the 3-host line (route spans both physical edges).
    fn tenant(p: &PhysicalTopology) -> (VirtualEnvironment, Mapping) {
        use crate::mapping::Route;
        use crate::virtualenv::VLinkSpec;
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest(100.0, 256, 10.0));
        let b = venv.add_guest(guest(50.0, 128, 5.0));
        venv.add_link(a, b, VLinkSpec::new(Kbps(200.0), Millis(30.0)));
        let edges: Vec<EdgeId> = p.graph().edge_ids().collect();
        let mapping = Mapping::new(
            vec![p.hosts()[0], p.hosts()[2]],
            vec![Route::new(edges.clone())],
        );
        (venv, mapping)
    }

    #[test]
    fn rebuilt_matches_incremental_apply() {
        let p = phys();
        let (venv, mapping) = tenant(&p);
        let mut incremental = ResidualState::new(&p);
        for (g, &host) in venv.guest_ids().zip(mapping.placement()) {
            incremental.place(&p, venv.guest(g), host).unwrap();
        }
        for (l, route) in venv.link_ids().zip(mapping.routes()) {
            incremental.commit_route(route.edges(), venv.link(l).bw);
        }
        let rebuilt = ResidualState::rebuilt(&p, [(&venv, &mapping)]).unwrap();
        assert_eq!(rebuilt, incremental);
        assert_eq!(incremental.divergence(&rebuilt), 0.0);
    }

    #[test]
    fn divergence_reports_the_largest_leak() {
        let p = phys();
        let base = ResidualState::new(&p);
        let mut leaked = base.clone();
        let g = guest(0.25, 3, 0.0);
        leaked.place(&p, &g, p.hosts()[1]).unwrap();
        // Memory leak (3) dominates the CPU leak (0.25).
        assert_eq!(base.divergence(&leaked), 3.0);
    }

    /// Two guests of `mem` MB each on host slots `hosts`, the first also
    /// demanding `stor` GB, joined by one link of `bw` routed over `route`.
    fn filler(
        p: &PhysicalTopology,
        hosts: [usize; 2],
        (mem, stor, bw): (u64, f64, f64),
        route: &[EdgeId],
    ) -> (VirtualEnvironment, Mapping) {
        use crate::mapping::Route;
        use crate::virtualenv::VLinkSpec;
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(guest(1.0, mem, stor));
        let b = venv.add_guest(guest(1.0, mem, 0.0));
        venv.add_link(a, b, VLinkSpec::new(Kbps(bw), Millis(30.0)));
        let placement = hosts.iter().map(|&h| p.hosts()[h]).collect();
        let mapping = Mapping::new(placement, vec![Route::new(route.to_vec())]);
        (venv, mapping)
    }

    #[test]
    fn apply_mapping_enforces_memory_and_bandwidth() {
        let p = phys();
        let (venv, mapping) = tenant(&p);
        let after = |(first, m): (VirtualEnvironment, Mapping)| {
            ResidualState::rebuilt(&p, [(&first, &m), (&venv, &mapping)])
        };
        // A tenant that already consumed all of host 0's memory forces the
        // strict integer check to fire.
        let hog = filler(&p, [0, 0], (512, 0.0, 0.0), &[]);
        assert_eq!(after(hog), Err(PlaceError::InsufficientMemory));
        // Draining an edge below the link demand trips the Eq. 9 re-check.
        let edges: Vec<EdgeId> = p.graph().edge_ids().collect();
        let drain = filler(&p, [0, 1], (0, 0.0, 400.0), &edges[..1]);
        assert_eq!(after(drain), Err(PlaceError::InsufficientBandwidth));
    }

    #[test]
    fn apply_mapping_tolerates_exact_boundary_fits() {
        let p = phys();
        // Earlier tenants leave exactly the tenant's demand in real
        // arithmetic; in f64 the partial sums land 5.7e-14 short of it.
        let edges: Vec<EdgeId> = p.graph().edge_ids().collect();
        let mut tenants: Vec<_> = [100.1, 100.1, 99.8]
            .map(|bw| filler(&p, [0, 2], (0, 0.0, bw), &edges))
            .into();
        tenants.push(tenant(&p));
        let r = ResidualState::rebuilt(&p, tenants.iter().map(|(v, m)| (v, m)))
            .expect("boundary fit must not be refused by float slack");
        for e in p.graph().edge_ids() {
            assert!(r.bw(e).value() < 0.0 && r.bw(e).value().abs() <= 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What lets the serve session `expect` a departure's rebuild: a
        /// set that rebuilds still rebuilds without any one tenant. Each
        /// of `n` tenants has a guest on host 0 and one on host 1, linked
        /// over the edge between them. Their storage demands fill host 0
        /// and their bandwidth demands fill the edge exactly in decimal
        /// arithmetic (not in f64); then one of each moves down, up or not
        /// at all by up to 1.5 `float_slack`s.
        #[test]
        fn every_subset_of_a_rebuilt_set_rebuilds(n in 1usize..8, seed in any::<u64>()) {
            let p = phys();
            let edge = p.graph().edge_ids().next().unwrap();
            let rng = &mut SmallRng::seed_from_u64(seed);
            let mut within_slack = true;
            let mut fill = |tenths: u64| {
                let mut cuts: Vec<u64> = (1..n).map(|_| rng.gen_range(0..=tenths)).collect();
                cuts.extend([0, tenths]);
                cuts.sort_unstable();
                let mut shares: Vec<f64> =
                    cuts.windows(2).map(|w| (w[1] - w[0]) as f64 / 10.0).collect();
                let k = rng.gen_range(-1i32..=1) as f64;
                within_slack &= k <= 0.0;
                let d = &mut shares[rng.gen_range(0..n)];
                let nudge = k * 1e-9 * (1.0 + *d) * rng.gen_range(0.5f64..1.5);
                *d = (*d + nudge).max(0.0);
                shares
            };
            let (stor, bw) = (fill(1000), fill(5000));
            let tenants: Vec<_> = (0..n)
                .map(|t| filler(&p, [0, 1], (1, stor[t], bw[t]), &[edge]))
                .collect();
            let without = |skip: usize| {
                let kept = tenants.iter().enumerate().filter(move |&(t, _)| t != skip);
                kept.map(|(_, (v, m))| (v, m))
            };
            let whole = ResidualState::rebuilt(&p, without(n));
            prop_assert!(whole.is_ok() || !within_slack, "a fit within the slack was refused");
            for skip in (0..n).filter(|_| whole.is_ok()) {
                prop_assert!(
                    ResidualState::rebuilt(&p, without(skip)).is_ok(),
                    "the set rebuilt but not without tenant {skip}"
                );
            }
        }
    }
}
