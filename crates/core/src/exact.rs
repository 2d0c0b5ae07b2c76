//! An **exact branch-and-bound oracle** for the mapping problem — the
//! certification counterpart to the heuristics.
//!
//! The paper evaluates HMN only against heuristic baselines; nothing can
//! say how far a mapping is from optimal. This module enumerates
//! guest→host assignments with depth-first branch-and-bound and certifies
//! the minimum Eq. 10 objective (population stddev of residual CPU,
//! Eq. 11) over all feasible mappings:
//!
//! * **Bounding** — the objective depends only on the *placement* (routes
//!   never consume CPU), so a continuous water-filling relaxation of the
//!   unassigned CPU demand pool yields an admissible lower bound at every
//!   partial assignment (see [`residual_stddev_lower_bound`]).
//! * **Constraint propagation** — memory/storage are hard (Eqs. 2–3):
//!   a branch dies when the remaining demand exceeds the remaining
//!   aggregate capacity or some unassigned guest no longer fits on any
//!   host. Latency bounds (Eq. 8) prune via the cached Dijkstra `ar[]`
//!   tables: placing a link's endpoints farther apart than its bound
//!   allows can never be routed.
//! * **Symmetry** — at each node the search branches once per class of
//!   hosts whose residual (proc, mem, stor) triples are bit-equal, and
//!   skips the rest ([`ExactStats::pruned_symmetry`]). It does so only
//!   under a [`SymmetryCertificate`] checked once per solve: the virtual
//!   links' total bandwidth is at most the smallest physical edge
//!   capacity, and no two hosts lie farther apart (the `ar[]` latency)
//!   than the smallest virtual latency bound. Then every link of every
//!   complete placement has a route on a fresh state — a latency-shortest
//!   path meets every bound, and every edge carries all the demand at
//!   once — and the latency prune never fires. Eq. 10 and Eqs. 2–3 read
//!   only the residual columns, so swapping the guests of two hosts with
//!   equal triples maps each completion of one branch onto a completion
//!   of the other with the same feasibility and objective: the skipped
//!   branch holds nothing the first one lacks. Backtracking writes each
//!   host's saved triple back instead of adding the guest back, so the
//!   residuals after a subtree are bit-equal to those before it and the
//!   classes survive the search.
//! * **Leaf routing** — complete placements are routed with the same
//!   A\*Prune Networking stage the heuristics use (with a Yen-KSP
//!   fallback), so oracle feasibility subsumes heuristic feasibility.
//! * **Budget** — a node budget degrades the search to *bound-only*
//!   ([`ExactStatus::Truncated`]) instead of hanging: the result is then
//!   a certified interval `[lower_bound, best]`, never a wrong claim.
//!
//! Routing is the one inexact step (A\*Prune and KSP are incomplete
//! searches): when a strictly-improving placement fails to route, its
//! objective is folded into the reported `lower_bound` instead of being
//! discarded, which keeps `lower_bound` sound. The oracle reports
//! [`ExactStatus::Optimal`] only when the search completed *and*
//! `lower_bound == best`.

use crate::astar_prune::AStarPruneConfig;
use crate::cache::{ArTables, MapCache};
use crate::hosting::links_by_descending_bw;
use crate::ksp_routing::YenKsp;
use crate::lagrangian::{lagrangian_bound, tightest_peer_bounds, NodeView};
use crate::networking::networking_stage;
use crate::recorder::Recorder;
use crate::state::PlacementState;
use emumap_graph::NodeId;
use emumap_model::objective::mapping_objective;
use emumap_model::{
    validate_mapping, GuestId, Mapping, PhysicalTopology, ResidualState, VirtualEnvironment,
};
use emumap_trace::{Phase, PhaseCounters};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Tolerance for objective comparisons: two values closer than this are
/// considered equal, so "optimal" means optimal up to `EPSILON`.
pub const EPSILON: f64 = 1e-9;

/// `k` for the Yen-KSP fallback router tried when A\*Prune fails at a
/// leaf.
const KSP_FALLBACK: usize = 4;

/// Which admissible lower bound the search prunes with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BoundKind {
    /// The water-filling relaxation alone ([`residual_stddev_lower_bound`]):
    /// cheap, but blind to memory/storage/bandwidth/latency.
    Waterfill,
    /// The Lagrangian decomposition of [`crate::lagrangian`] (default):
    /// priced per-guest assignment tables with exact fit/latency
    /// restrictions and subgradient ascent, floored at the water-filling
    /// bound — never weaker, usually much stronger under tight
    /// constraints.
    #[default]
    Lagrangian,
}

/// Configuration of the branch-and-bound oracle.
#[derive(Clone, Copy, Debug)]
pub struct ExactConfig {
    /// Search nodes expanded before the search gives up and reports
    /// [`ExactStatus::Truncated`] with the bounds gathered so far.
    pub max_nodes: u64,
    /// Which lower bound prunes the search.
    pub bound: BoundKind,
    /// Prune branches whose latency bounds (Eq. 8) are already violated
    /// by the partial placement, using the cached Dijkstra tables.
    pub use_latency_pruning: bool,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_nodes: 200_000,
            bound: BoundKind::Lagrangian,
            use_latency_pruning: true,
        }
    }
}

/// How a [`solve_exact_with`] run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExactStatus {
    /// The search completed and `lower_bound == best` (within
    /// [`EPSILON`]): the incumbent is the certified optimum.
    Optimal,
    /// The search completed, found no feasible mapping, and no pruning
    /// step was inexact: the instance is certified infeasible.
    Infeasible,
    /// The node budget ran out, or a strictly-improving placement could
    /// not be routed by the (incomplete) route searches. Only the
    /// interval `[lower_bound, best]` is certified.
    Truncated,
}

/// Search-effort counters. All deterministic: the branch order is a pure
/// function of the instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactStats {
    /// Search nodes expanded (partial assignments visited).
    pub nodes_expanded: u64,
    /// Subtrees pruned because the lower bound met the incumbent.
    pub pruned_bound: u64,
    /// Subtrees pruned by memory/storage constraint propagation.
    pub pruned_capacity: u64,
    /// Branches pruned by the Eq. 8 latency lower bound.
    pub pruned_latency: u64,
    /// Branches skipped because a host with a bit-equal residual triple
    /// was already branched on at the same node (only under a holding
    /// [`SymmetryCertificate`]).
    pub pruned_symmetry: u64,
    /// Complete placements handed to the Networking stage.
    pub leaf_routings: u64,
    /// Leaf placements the route searches could not route.
    pub routing_failures: u64,
    /// Witness mappings accepted as incumbents (see [`solve_exact_with`]).
    pub witnesses_accepted: u64,
    /// Lagrangian dual evaluations performed (0 under
    /// [`BoundKind::Waterfill`]; ≥ one per expanded node otherwise).
    pub subgradient_iters: u64,
    /// Nodes where the Lagrangian bound strictly exceeded the
    /// water-filling bound.
    pub bound_improvements: u64,
    /// Bound prunes that *only* the Lagrangian bound fired — the
    /// water-filling bound alone would have kept searching.
    pub pruned_lagrangian: u64,
}

impl ExactStats {
    /// Total subtrees pruned, over every pruning rule.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_bound + self.pruned_capacity + self.pruned_latency + self.pruned_symmetry
    }

    /// The trace-facing view of these counters.
    fn phase_counters(&self) -> PhaseCounters {
        PhaseCounters {
            exact_nodes_expanded: self.nodes_expanded,
            exact_nodes_pruned: self.pruned_total(),
            subgradient_iters: self.subgradient_iters,
            bound_improvements: self.bound_improvements,
            nodes_pruned_lagrangian: self.pruned_lagrangian,
            ..Default::default()
        }
    }
}

/// A feasible mapping found by the oracle, with its Eq. 10 objective.
#[derive(Clone, Debug)]
pub struct ExactSolution {
    /// The mapping (placement + committed routes); passes
    /// [`validate_mapping`].
    pub mapping: Mapping,
    /// Its load-balance objective (Eq. 10).
    pub objective: f64,
}

/// Whether routing can tell hosts apart, decided once per solve: when it
/// cannot, hosts with bit-equal residuals are interchangeable and the
/// search branches once per class of them (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymmetryCertificate {
    /// Both parts hold.
    Holds,
    /// The virtual links' total bandwidth exceeds the smallest physical
    /// edge capacity.
    BandwidthFails,
    /// Some two hosts lie farther apart (`ar[]` latency) than the
    /// smallest virtual latency bound. Checked only when the bandwidth
    /// part holds.
    LatencyFails,
}

impl SymmetryCertificate {
    /// Checks the two parts; `topo` must be prepared for `phys`.
    fn check(phys: &PhysicalTopology, venv: &VirtualEnvironment, topo: &mut ArTables) -> Self {
        let demand: f64 = venv.link_ids().map(|l| venv.link(l).bw.value()).sum();
        let capacity = phys
            .graph()
            .edge_ids()
            .map(|e| phys.link(e).bw.value())
            .fold(f64::INFINITY, f64::min);
        if demand > capacity {
            return SymmetryCertificate::BandwidthFails;
        }
        let bound = venv
            .link_ids()
            .map(|l| venv.link(l).lat.value())
            .fold(f64::INFINITY, f64::min);
        for &dest in phys.hosts() {
            let (ar, _) = topo.ar_and_csr(phys, dest);
            if phys.hosts().iter().any(|h| ar[h.index()] > bound) {
                return SymmetryCertificate::LatencyFails;
            }
        }
        SymmetryCertificate::Holds
    }
}

/// The oracle's verdict: a status, the best mapping found (if any), a
/// certified lower bound, and effort counters.
#[derive(Clone, Debug)]
pub struct ExactOutcome {
    /// How the search ended.
    pub status: ExactStatus,
    /// Whether the search branched once per class of interchangeable
    /// hosts, or which part of the certificate failed.
    pub symmetry: SymmetryCertificate,
    /// Best feasible mapping found (the certified optimum when `status`
    /// is [`ExactStatus::Optimal`]).
    pub best: Option<ExactSolution>,
    /// Certified lower bound on the objective of *every* feasible
    /// mapping. [`f64::INFINITY`] when the instance is certified
    /// infeasible.
    pub lower_bound: f64,
    /// Search-effort counters.
    pub stats: ExactStats,
}

impl ExactOutcome {
    /// `true` when the incumbent is the certified optimum.
    pub fn is_certified(&self) -> bool {
        self.status == ExactStatus::Optimal
    }

    /// Optimality gap of a heuristic objective against the incumbent
    /// (`heuristic − best`); `None` when no feasible mapping was found.
    pub fn gap_from(&self, heuristic_objective: f64) -> Option<f64> {
        self.best
            .as_ref()
            .map(|b| heuristic_objective - b.objective)
    }
}

/// Admissible lower bound on the final population stddev of residual CPU.
///
/// `residuals` are the current per-host residuals and `demand` the total
/// CPU demand still unassigned. Any completion subtracts exactly `demand`
/// across the hosts, so the final residual vector `x` satisfies
/// `x_i ≤ r_i` and `Σx = Σr − demand` — and the final *mean* is fixed at
/// `(Σr − demand)/n` regardless of where the guests land. Minimizing the
/// population stddev over that polytope therefore minimizes `Σx²`, whose
/// optimum is the water-filling point `x_i = min(r_i, L)` with the level
/// `L` chosen so the sum comes out right. Every real completion is a
/// point of the polytope, so this is a true (admissible) lower bound.
pub fn residual_stddev_lower_bound(residuals: &[f64], demand: f64) -> f64 {
    let n = residuals.len();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = residuals.iter().sum();
    let target = total - demand;
    let mut sorted = Vec::with_capacity(n);
    // Unreachable for finite inputs (k = n always admits a level), but
    // stay safe: zero is always admissible.
    let Some((k, level)) = waterfill_level(residuals, total, target, &mut sorted) else {
        return 0.0;
    };
    let mean = target / n as f64;
    let mut var = k as f64 * (level - mean) * (level - mean);
    for &r in &sorted[k..] {
        var += (r - mean) * (r - mean);
    }
    (var / n as f64).sqrt().max(0.0)
}

/// The level of the water-filling point `x_i = min(r_i, L)` of
/// `residuals` (which sum to `total`) whose entries sum to `target`.
/// Sorts the residuals descending into `sorted` and returns `(k, L)`:
/// the `k` largest are clamped to `L`, the rest stay untouched. `None`
/// only when no `k` admits a level, which finite inputs never cause.
pub(crate) fn waterfill_level(
    residuals: &[f64],
    total: f64,
    target: f64,
    sorted: &mut Vec<f64>,
) -> Option<(usize, f64)> {
    let n = residuals.len();
    sorted.clear();
    sorted.extend_from_slice(residuals);
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite residuals"));
    // k·L + Σ_{i≥k} r_i = target: find the k whose implied L lies between
    // sorted[k] and sorted[k-1].
    let mut prefix = 0.0;
    for k in 1..=n {
        prefix += sorted[k - 1];
        let suffix = total - prefix;
        let level = (target - suffix) / k as f64;
        let lo = if k < n { sorted[k] } else { f64::NEG_INFINITY };
        if level <= sorted[k - 1] + EPSILON && level >= lo - EPSILON {
            return Some((k, level));
        }
    }
    None
}

/// Runs the branch-and-bound oracle.
///
/// `witnesses` are candidate mappings from heuristic runs: each one that
/// passes [`validate_mapping`] is admitted as an incumbent before the
/// search starts. This both warm-starts the pruning and makes two
/// differential guarantees structural — the oracle never reports
/// [`ExactStatus::Infeasible`] when a heuristic succeeded, and its best
/// objective never exceeds a (valid) heuristic's.
///
/// Emits a `MapStart → PhaseStart(Exact) → … → PhaseEnd(Exact) → MapEnd`
/// span through `cache.trace`, with the branch-and-bound counters in the
/// phase's [`PhaseCounters`].
pub fn solve_exact_with(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    config: &ExactConfig,
    cache: &mut MapCache,
    witnesses: &[Mapping],
) -> ExactOutcome {
    // The bound kind is part of the trace contract `emumap_trace::check`
    // enforces: "EXACT" (Lagrangian, the default) runs must show
    // subgradient work, "EXACT-WF" runs must show none.
    let mapper = match config.bound {
        BoundKind::Lagrangian => "EXACT",
        BoundKind::Waterfill => "EXACT-WF",
    };
    let mut rec = Recorder::start(&mut cache.trace, mapper, venv);
    let outcome = rec.phase(cache, Phase::Exact, |cache| {
        let mut search = Search::new(phys, venv, *config, cache);
        for w in witnesses {
            search.offer_witness(w);
        }
        search.run(cache);
        let outcome = search.into_outcome();
        let counters = outcome.stats.phase_counters();
        (outcome, counters)
    });
    rec.end(&mut cache.trace, outcome.best.as_ref().map(|b| b.objective));
    outcome
}

/// The sequential depth-first branch-and-bound: per-solve precomputation
/// (branch order, suffix demands, peer latency bounds, the symmetry
/// certificate) plus the residuals
/// of the current partial assignment and the incumbent. The residuals are
/// a [`ResidualState`], the same bookkeeping a [`PlacementState`] keeps,
/// so a leaf re-assigned into a fresh state cannot diverge from them.
struct Search<'a> {
    phys: &'a PhysicalTopology,
    venv: &'a VirtualEnvironment,
    config: ExactConfig,
    /// Branch order: guests by descending (mem, stor, proc) — the most
    /// constrained guests first, so infeasibility surfaces high up.
    order: Vec<GuestId>,
    /// `suffix_demand[d]` = total CPU demand of `order[d..]`.
    suffix_demand: Vec<f64>,
    /// `suffix_mem[d]` / `suffix_stor[d]`: remaining hard-resource demand.
    suffix_mem: Vec<u64>,
    suffix_stor: Vec<f64>,
    /// Per guest: `(peer guest, tightest latency bound over their links)`.
    peers: Vec<Vec<(usize, f64)>>,
    /// Guest index → assigned host slot.
    slot_of: Vec<Option<usize>>,
    /// Residual capacities under the current partial assignment.
    residual: ResidualState,
    /// Per depth, that node's host slots in branch order: the slots of
    /// depth `d` are `slot_order[d * hosts..(d + 1) * hosts]`.
    slot_order: Vec<usize>,
    /// When it holds, the branch loop skips hosts with a bit-equal twin.
    symmetry: SymmetryCertificate,
    best: f64,
    best_mapping: Option<Mapping>,
    lb_floor: f64,
    truncated: bool,
    stats: ExactStats,
}

impl<'a> Search<'a> {
    fn new(
        phys: &'a PhysicalTopology,
        venv: &'a VirtualEnvironment,
        config: ExactConfig,
        cache: &mut MapCache,
    ) -> Self {
        let mut order: Vec<GuestId> = venv.guest_ids().collect();
        order.sort_by(|&a, &b| {
            let ga = venv.guest(a);
            let gb = venv.guest(b);
            (gb.mem.value(), gb.stor.value(), gb.proc.value())
                .partial_cmp(&(ga.mem.value(), ga.stor.value(), ga.proc.value()))
                .expect("finite guest specs")
                .then(a.index().cmp(&b.index()))
        });
        let n = order.len();
        let mut suffix_demand = vec![0.0; n + 1];
        let mut suffix_mem = vec![0u64; n + 1];
        let mut suffix_stor = vec![0.0; n + 1];
        for d in (0..n).rev() {
            let g = venv.guest(order[d]);
            suffix_demand[d] = suffix_demand[d + 1] + g.proc.value();
            suffix_mem[d] = suffix_mem[d + 1] + g.mem.value();
            suffix_stor[d] = suffix_stor[d + 1] + g.stor.value();
        }
        let peers = tightest_peer_bounds(venv);
        cache.topo.prepare(phys);
        Search {
            phys,
            venv,
            config,
            order,
            suffix_demand,
            suffix_mem,
            suffix_stor,
            peers,
            slot_of: vec![None; venv.guest_count()],
            residual: ResidualState::new(phys),
            slot_order: vec![0; n * phys.host_count()],
            symmetry: SymmetryCertificate::check(phys, venv, &mut cache.topo),
            best: f64::INFINITY,
            best_mapping: None,
            lb_floor: f64::INFINITY,
            truncated: false,
            stats: ExactStats::default(),
        }
    }

    /// Admits a heuristic mapping as an incumbent if it is valid and
    /// strictly better than the current best.
    fn offer_witness(&mut self, mapping: &Mapping) {
        if validate_mapping(self.phys, self.venv, mapping).is_err() {
            return;
        }
        let objective = mapping_objective(self.phys, self.venv, mapping);
        if objective < self.best {
            self.best = objective;
            self.best_mapping = Some(mapping.clone());
        }
        self.stats.witnesses_accepted += 1;
    }

    fn run(&mut self, cache: &mut MapCache) {
        if self.config.bound == BoundKind::Lagrangian {
            // Also resets the multipliers: the bound must be a pure
            // function of the instance, whatever the cache history.
            cache
                .lagrangian
                .prepare(self.phys, &self.residual, self.venv.guest_count());
        }
        self.dfs(0, cache);
    }

    fn dfs(&mut self, depth: usize, cache: &mut MapCache) {
        if self.stats.nodes_expanded >= self.config.max_nodes {
            self.truncated = true;
            if depth == 0 {
                // No frame bounded the root, so none floors the whole
                // tree: the root's water-filling bound does.
                self.lb_floor =
                    residual_stddev_lower_bound(self.residual.proc_column(), self.suffix_demand[0]);
            }
            return;
        }
        self.stats.nodes_expanded += 1;

        let (lb, lb_wf) = self.node_bound(depth, cache);
        if lb >= self.best - EPSILON {
            self.stats.pruned_bound += 1;
            if lb_wf < self.best - EPSILON {
                self.stats.pruned_lagrangian += 1;
            }
            return;
        }
        if depth == self.order.len() {
            // Strictly-improving complete placement: try to route it.
            self.stats.leaf_routings += 1;
            match self.route_leaf(cache) {
                Some((mapping, objective)) => {
                    self.best = objective;
                    self.best_mapping = Some(mapping);
                }
                None => {
                    // The placement may still be routable by an exhaustive
                    // router; keep the bound honest instead of excluding it.
                    self.stats.routing_failures += 1;
                    self.lb_floor = self.lb_floor.min(lb);
                }
            }
            return;
        }
        if !self.capacity_feasible(depth) {
            self.stats.pruned_capacity += 1;
            return;
        }

        let guest = self.order[depth];
        let spec = *self.venv.guest(guest);
        let branches = self.sort_slots(depth);
        // Fit and latency checks stay lazy (per slot, inside the loop) so
        // a truncation mid-loop skips the remaining siblings' checks.
        for i in branches.clone() {
            let slot = self.slot_order[i];
            if !self.residual.fits(&spec, self.residual.host_at(slot)) {
                continue;
            }
            if self.symmetry == SymmetryCertificate::Holds
                && self.has_twin_before(branches.start, i)
            {
                self.stats.pruned_symmetry += 1;
                continue;
            }
            if self.config.use_latency_pruning && !self.latency_admits(guest, slot, cache) {
                self.stats.pruned_latency += 1;
                continue;
            }
            let saved = self.triple(slot);
            self.place(depth, slot);
            self.dfs(depth + 1, cache);
            self.remove(depth, slot, saved);
            if self.truncated {
                // Unexplored siblings' subtrees all bound below by this
                // frame's entry lb (bounds only tighten down the tree).
                self.lb_floor = self.lb_floor.min(lb);
                return;
            }
        }
    }

    /// Assigns `order[depth]` to `slot`, which it fits, debiting the
    /// residuals.
    fn place(&mut self, depth: usize, slot: usize) {
        let guest = self.order[depth];
        let host = self.residual.host_at(slot);
        self.slot_of[guest.index()] = Some(slot);
        self.residual
            .place(self.phys, self.venv.guest(guest), host)
            .expect("the branch loop placed a guest that fits");
    }

    /// Inverse of [`place`](Self::place), bit for bit: writes back the
    /// triple `slot` had before it.
    fn remove(&mut self, depth: usize, slot: usize, saved: (f64, u64, f64)) {
        self.slot_of[self.order[depth].index()] = None;
        self.residual.restore_slot(slot, saved);
    }

    /// The residual (proc, mem, stor) triple of a host slot.
    fn triple(&self, slot: usize) -> (f64, u64, f64) {
        let r = &self.residual;
        (
            r.proc_column()[slot],
            r.mem_column()[slot],
            r.stor_column()[slot],
        )
    }

    /// `true` when the slot at branch position `i` has a bit-equal
    /// residual triple to a slot before it in this node's branch order,
    /// which was then branched on already (an equal triple fits equally,
    /// and the latency prune never fires under the certificate). The
    /// order sorts by residual CPU, so only the run of equal CPU before
    /// `i` can hold it.
    fn has_twin_before(&self, start: usize, i: usize) -> bool {
        let proc = self.residual.proc_column();
        let bits = |slot: usize| {
            let (p, m, s) = self.triple(slot);
            (p.to_bits(), m, s.to_bits())
        };
        let slot = self.slot_order[i];
        let key = bits(slot);
        self.slot_order[start..i]
            .iter()
            .rev()
            .take_while(|&&prev| proc[prev] == proc[slot])
            .any(|&prev| bits(prev) == key)
    }

    /// The admissible lower bound at the current node. Returns the bound
    /// together with the plain water-filling value (for the
    /// improvement/prune attribution counters). The Lagrangian ascent
    /// warm-starts from the previously bounded node's multipliers in
    /// `cache.lagrangian`.
    fn node_bound(&mut self, depth: usize, cache: &mut MapCache) -> (f64, f64) {
        let lb_wf =
            residual_stddev_lower_bound(self.residual.proc_column(), self.suffix_demand[depth]);
        if self.config.bound != BoundKind::Lagrangian {
            return (lb_wf, lb_wf);
        }
        let MapCache {
            topo, lagrangian, ..
        } = cache;
        let view = NodeView {
            residual: &self.residual,
            unassigned: &self.order[depth..],
            slot_of: &self.slot_of,
            peers: &self.peers,
            incumbent: self.best,
            at_root: depth == 0,
            use_latency: self.config.use_latency_pruning,
        };
        let out = lagrangian_bound(self.phys, self.venv, &view, topo, lagrangian);
        self.stats.subgradient_iters += out.evaluations;
        // Dominance is structural (the zero-price evaluation reproduces
        // the water-filling point); the max also absorbs float noise.
        let lb = out.bound.max(lb_wf);
        if lb > lb_wf + EPSILON {
            self.stats.bound_improvements += 1;
        }
        (lb, lb_wf)
    }

    /// Exact propagation of the hard constraints (Eqs. 2–3): aggregate
    /// remaining demand must fit the aggregate residuals, and every
    /// unassigned guest must still fit on *some* host individually.
    fn capacity_feasible(&self, depth: usize) -> bool {
        let (mem, stor) = (self.residual.mem_column(), self.residual.stor_column());
        if mem.iter().sum::<u64>() < self.suffix_mem[depth] {
            return false;
        }
        if stor.iter().sum::<f64>() < self.suffix_stor[depth] {
            return false;
        }
        self.order[depth..].iter().all(|&g| {
            let spec = self.venv.guest(g);
            mem.iter()
                .zip(stor)
                .any(|(&m, &s)| m >= spec.mem.value() && s >= spec.stor.value())
        })
    }

    /// Eq. 8 check against already-placed peers: even the latency-shortest
    /// path must respect each link's bound, so a placement violating it
    /// can never be routed — an exact prune.
    fn latency_admits(&self, guest: GuestId, slot: usize, cache: &mut MapCache) -> bool {
        let host = self.residual.host_at(slot);
        for &(peer, bound) in &self.peers[guest.index()] {
            let Some(peer_slot) = self.slot_of[peer] else {
                continue;
            };
            let peer_host = self.residual.host_at(peer_slot);
            if peer_host == host {
                continue; // intra-host: no route, no latency
            }
            let (ar, _) = cache.topo.ar_and_csr(self.phys, peer_host);
            if ar[host.index()] > bound + EPSILON {
                return false;
            }
        }
        true
    }

    /// Sorts the host slots into branch order for the node at `depth`, in
    /// that depth's part of `slot_order`, and returns the part's range:
    /// descending residual CPU (most-loaded-last spreads load early, so
    /// good incumbents arrive fast), ties broken on slot index for
    /// determinism.
    fn sort_slots(&mut self, depth: usize) -> Range<usize> {
        let proc = self.residual.proc_column();
        let range = depth * proc.len()..(depth + 1) * proc.len();
        let slots = &mut self.slot_order[range.clone()];
        for (slot, entry) in slots.iter_mut().enumerate() {
            *entry = slot;
        }
        slots.sort_unstable_by(|&a, &b| {
            proc[b]
                .partial_cmp(&proc[a])
                .expect("finite residuals")
                .then(a.cmp(&b))
        });
        range
    }

    /// Routes a complete placement on a fresh [`PlacementState`] (route
    /// commitments must not leak into the search residuals), trying
    /// A\*Prune first and Yen-KSP as a fallback.
    fn route_leaf(&self, cache: &mut MapCache) -> Option<(Mapping, f64)> {
        let links = links_by_descending_bw(self.venv);
        let astar = &AStarPruneConfig::default();
        let mut routes =
            self.with_fresh_state(|state| networking_stage(state, &links, astar, cache).0.ok())?;
        if routes.is_none() {
            let ksp = YenKsp::new(KSP_FALLBACK);
            routes =
                self.with_fresh_state(|state| networking_stage(state, &links, ksp, cache).0.ok())?;
        }
        let routes = routes?;
        let placement: Vec<NodeId> = self
            .slot_of
            .iter()
            .map(|s| {
                self.residual
                    .host_at(s.expect("leaf placement is complete"))
            })
            .collect();
        let mapping = Mapping::new(placement, routes);
        let objective = mapping_objective(self.phys, self.venv, &mapping);
        Some((mapping, objective))
    }

    /// Replays the current assignment into a fresh state and hands it to
    /// `f`. Returns `None` if the replay itself fails (possible only
    /// through float-rounding drift in storage residuals; treated as a
    /// routing failure by the caller).
    fn with_fresh_state<R>(&self, f: impl FnOnce(&mut PlacementState<'_>) -> R) -> Option<R> {
        let mut state = PlacementState::new(self.phys, self.venv);
        for (g, slot) in self.slot_of.iter().enumerate() {
            let host = self
                .residual
                .host_at(slot.expect("leaf placement is complete"));
            state.assign(GuestId::from_index(g), host).ok()?;
        }
        Some(f(&mut state))
    }

    /// The verdict: certifies optimality only when the search completed
    /// and the bound floor met the incumbent.
    fn into_outcome(self) -> ExactOutcome {
        let status = if self.truncated {
            ExactStatus::Truncated
        } else if self.best_mapping.is_none() {
            if self.stats.routing_failures == 0 {
                ExactStatus::Infeasible
            } else {
                ExactStatus::Truncated
            }
        } else if self.lb_floor >= self.best - EPSILON {
            ExactStatus::Optimal
        } else {
            ExactStatus::Truncated
        };
        let lower_bound = match status {
            ExactStatus::Infeasible => f64::INFINITY,
            _ => self.best.min(self.lb_floor),
        };
        let (phys, venv) = (self.phys, self.venv);
        ExactOutcome {
            status,
            symmetry: self.symmetry,
            best: self.best_mapping.map(|mapping| {
                let objective = mapping_objective(phys, venv, &mapping);
                ExactSolution { mapping, objective }
            }),
            lower_bound,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmn::Hmn;
    use crate::mapper::Mapper;
    use emumap_graph::generators;
    use emumap_model::objective::population_stddev;
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, StorGb, VLinkSpec, VmmOverhead,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The oracle on a fresh cache, with no witnesses.
    fn solve_cold(
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        config: &ExactConfig,
    ) -> ExactOutcome {
        solve_exact_with(phys, venv, config, &mut MapCache::new(), &[])
    }

    fn phys_line(n: usize, mips: &[f64]) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::line(n),
            mips.iter()
                .map(|&m| HostSpec::new(Mips(m), MemMb(2048), StorGb(1000.0))),
            LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    #[test]
    fn water_filling_bound_is_exact_at_leaves() {
        // demand 0: the bound is just the stddev of the residuals.
        let r = [3.0, 1.0, 2.0];
        let expected = population_stddev(&r);
        assert!((residual_stddev_lower_bound(&r, 0.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn water_filling_bound_levels_when_demand_allows() {
        // Residuals (10, 2), demand 8: water-filling leaves (2, 2) —
        // perfectly balanced, bound 0.
        assert!(residual_stddev_lower_bound(&[10.0, 2.0], 8.0) < 1e-12);
        // Demand 4: level L with 2L = 8 → (4, 4)? No: only r0 can be
        // lowered past r1=2... L=4 ≥ 2 keeps r1 at 2, so x=(6,2)? The
        // solver clamps the largest first: k=1, L=(8-2)/1=6 → x=(6,2),
        // stddev 2.
        let lb = residual_stddev_lower_bound(&[10.0, 2.0], 4.0);
        assert!((lb - 2.0).abs() < 1e-9, "lb={lb}");
    }

    #[test]
    fn water_filling_bound_never_exceeds_any_completion() {
        // Brute-force check on a tiny pool: every way of splitting two
        // demands (30, 20) over residuals (100, 80, 60) must be ≥ lb.
        let r = [100.0, 80.0, 60.0];
        let demands = [30.0, 20.0];
        let lb = residual_stddev_lower_bound(&r, demands.iter().sum());
        let mut min_actual = f64::INFINITY;
        for a in 0..3 {
            for b in 0..3 {
                let mut x = r;
                x[a] -= demands[0];
                x[b] -= demands[1];
                min_actual = min_actual.min(population_stddev(&x));
            }
        }
        assert!(lb <= min_actual + 1e-9, "lb={lb} > min={min_actual}");
    }

    fn chain_venv(specs: &[(f64, u64)], bw: f64, lat: f64) -> VirtualEnvironment {
        let mut venv = VirtualEnvironment::new();
        let ids: Vec<_> = specs
            .iter()
            .map(|&(proc, mem)| {
                venv.add_guest(GuestSpec::new(Mips(proc), MemMb(mem), StorGb(10.0)))
            })
            .collect();
        for pair in ids.windows(2) {
            venv.add_link(pair[0], pair[1], VLinkSpec::new(Kbps(bw), Millis(lat)));
        }
        venv
    }

    #[test]
    fn oracle_certifies_a_balanced_optimum() {
        // Two identical hosts, two identical guests: optimum splits them,
        // residuals equal, objective 0.
        let phys = phys_line(2, &[1000.0, 1000.0]);
        let venv = chain_venv(&[(100.0, 64), (100.0, 64)], 10.0, 60.0);
        let out = solve_cold(&phys, &venv, &ExactConfig::default());
        assert_eq!(out.status, ExactStatus::Optimal);
        let best = out.best.expect("feasible");
        assert!(best.objective < 1e-9, "objective={}", best.objective);
        assert_eq!(validate_mapping(&phys, &venv, &best.mapping), Ok(()));
        assert!((out.lower_bound - best.objective).abs() <= EPSILON);
    }

    #[test]
    fn oracle_certifies_infeasible_when_memory_cannot_fit() {
        let phys = phys_line(2, &[1000.0, 1000.0]);
        // Three guests of 1500 MB against two 2048 MB hosts: no host takes
        // two, and there are only two hosts.
        let venv = chain_venv(&[(10.0, 1500), (10.0, 1500), (10.0, 1500)], 10.0, 60.0);
        let out = solve_cold(&phys, &venv, &ExactConfig::default());
        assert_eq!(out.status, ExactStatus::Infeasible);
        assert!(out.best.is_none());
        assert!(out.lower_bound.is_infinite());
    }

    #[test]
    fn oracle_beats_or_matches_hmn_and_validates() {
        // Heterogeneous hosts so balancing is non-trivial.
        let phys = phys_line(3, &[3000.0, 2000.0, 1000.0]);
        let venv = chain_venv(
            &[
                (400.0, 64),
                (300.0, 64),
                (200.0, 64),
                (100.0, 64),
                (500.0, 64),
            ],
            50.0,
            80.0,
        );
        let mut rng = SmallRng::seed_from_u64(7);
        let hmn = Hmn::new().map(&phys, &venv, &mut rng).expect("HMN maps");
        let out = solve_cold(&phys, &venv, &ExactConfig::default());
        let best = out.best.clone().expect("oracle finds a mapping");
        assert_eq!(validate_mapping(&phys, &venv, &best.mapping), Ok(()));
        assert!(
            best.objective <= hmn.objective + EPSILON,
            "oracle {} worse than HMN {}",
            best.objective,
            hmn.objective
        );
        assert!(out.gap_from(hmn.objective).expect("has best") >= -EPSILON);
    }

    #[test]
    fn witness_seeds_the_incumbent() {
        let phys = phys_line(3, &[3000.0, 2000.0, 1000.0]);
        let venv = chain_venv(&[(400.0, 64), (300.0, 64), (200.0, 64)], 50.0, 80.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let hmn = Hmn::new().map(&phys, &venv, &mut rng).expect("HMN maps");
        let mut cache = MapCache::new();
        let out = solve_exact_with(
            &phys,
            &venv,
            &ExactConfig::default(),
            &mut cache,
            std::slice::from_ref(&hmn.mapping),
        );
        assert_eq!(out.stats.witnesses_accepted, 1);
        let best = out.best.expect("at least the witness");
        assert!(best.objective <= hmn.objective + EPSILON);
    }

    #[test]
    fn node_budget_degrades_to_bounds() {
        let phys = phys_line(4, &[2000.0, 2000.0, 2000.0, 2000.0]);
        let venv = chain_venv(
            &[
                (100.0, 64),
                (90.0, 64),
                (80.0, 64),
                (70.0, 64),
                (60.0, 64),
                (50.0, 64),
            ],
            10.0,
            80.0,
        );
        let out = solve_cold(
            &phys,
            &venv,
            &ExactConfig {
                max_nodes: 3,
                ..Default::default()
            },
        );
        assert_eq!(out.status, ExactStatus::Truncated);
        assert!(out.lower_bound.is_finite());
        // The truncated bound must still under-cut the true optimum.
        let full = solve_cold(&phys, &venv, &ExactConfig::default());
        if let Some(best) = full.best {
            assert!(out.lower_bound <= best.objective + EPSILON);
        }
    }

    #[test]
    fn latency_pruning_does_not_change_the_answer() {
        let phys = phys_line(4, &[2000.0, 1500.0, 1000.0, 500.0]);
        // 12 ms bound rules out 3-hop placements (15 ms), so the prune has
        // actual work to do here.
        let venv = chain_venv(&[(300.0, 900), (200.0, 900), (100.0, 900)], 50.0, 12.0);
        let with = solve_cold(&phys, &venv, &ExactConfig::default());
        let without = solve_cold(
            &phys,
            &venv,
            &ExactConfig {
                use_latency_pruning: false,
                ..Default::default()
            },
        );
        assert_eq!(with.status, without.status);
        match (&with.best, &without.best) {
            (Some(a), Some(b)) => assert!((a.objective - b.objective).abs() <= EPSILON),
            (None, None) => {}
            _ => panic!("pruning changed feasibility"),
        }
    }

    #[test]
    fn oracle_emits_a_well_formed_trace_span() {
        use emumap_trace::{check, SharedSink, TraceEvent, Tracer};

        let phys = phys_line(2, &[1000.0, 1000.0]);
        let venv = chain_venv(&[(100.0, 64), (100.0, 64)], 10.0, 60.0);
        let sink = SharedSink::default();
        let mut cache = MapCache::new();
        cache.trace = Tracer::new(Box::new(sink.clone()));
        let out = solve_exact_with(&phys, &venv, &ExactConfig::default(), &mut cache, &[]);
        let events = sink.events();
        assert_eq!(check(&events), vec![]);
        assert!(matches!(
            events.first(),
            Some(TraceEvent::MapStart { mapper, .. }) if mapper == "EXACT"
        ));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::MapEnd { ok: true, .. })
        ));
        let (_, _, phase_end) = events
            .iter()
            .find_map(TraceEvent::phase_end)
            .expect("an Exact PhaseEnd is emitted");
        assert_eq!(phase_end.exact_nodes_expanded, out.stats.nodes_expanded);
        assert_eq!(phase_end.exact_nodes_pruned, out.stats.pruned_total());
        assert!(out.stats.nodes_expanded > 0);
    }

    #[test]
    fn both_bounds_certify_the_same_answer() {
        // The bound kind changes pruning power, never the verdict: same
        // status, same certified objective, and the Lagrangian search
        // visits no more nodes than the water-filling one (its bound is
        // pointwise >= with an identical branch order).
        let phys = phys_line(3, &[3000.0, 2000.0, 1000.0]);
        let venv = chain_venv(
            &[(400.0, 900), (300.0, 900), (200.0, 900), (100.0, 64)],
            50.0,
            80.0,
        );
        let lag = solve_cold(&phys, &venv, &ExactConfig::default());
        let wf = solve_cold(
            &phys,
            &venv,
            &ExactConfig {
                bound: BoundKind::Waterfill,
                ..Default::default()
            },
        );
        assert_eq!(lag.status, ExactStatus::Optimal);
        assert_eq!(wf.status, ExactStatus::Optimal);
        let (a, b) = (lag.best.unwrap(), wf.best.unwrap());
        assert!((a.objective - b.objective).abs() <= EPSILON);
        assert!(
            lag.stats.nodes_expanded <= wf.stats.nodes_expanded,
            "lagrangian expanded {} > waterfill {}",
            lag.stats.nodes_expanded,
            wf.stats.nodes_expanded
        );
        assert!(lag.stats.subgradient_iters >= lag.stats.nodes_expanded);
    }

    #[test]
    fn waterfill_bound_reports_no_lagrangian_work() {
        use emumap_trace::{check, SharedSink, TraceEvent, Tracer};

        let phys = phys_line(2, &[1000.0, 1000.0]);
        let venv = chain_venv(&[(100.0, 64), (100.0, 64)], 10.0, 60.0);
        let sink = SharedSink::default();
        let mut cache = MapCache::new();
        cache.trace = Tracer::new(Box::new(sink.clone()));
        let config = ExactConfig {
            bound: BoundKind::Waterfill,
            ..Default::default()
        };
        let out = solve_exact_with(&phys, &venv, &config, &mut cache, &[]);
        assert_eq!(out.stats.subgradient_iters, 0);
        assert_eq!(out.stats.bound_improvements, 0);
        assert_eq!(out.stats.pruned_lagrangian, 0);
        let events = sink.events();
        assert_eq!(check(&events), vec![]);
        assert!(matches!(
            events.first(),
            Some(TraceEvent::MapStart { mapper, .. }) if mapper == "EXACT-WF"
        ));
    }

    #[test]
    fn lagrangian_prunes_what_waterfill_cannot() {
        // Memory-tight: each 1024 MB host takes exactly one 900 MB guest,
        // so CPU cannot be water-filled onto the big host. The Lagrangian
        // bound sees that and must both improve on the water-filling bound
        // and fire prunes of its own.
        let phys = PhysicalTopology::from_shape(
            &generators::line(4),
            [4000.0, 1000.0, 1000.0, 1000.0]
                .iter()
                .map(|&m| HostSpec::new(Mips(m), MemMb(1024), StorGb(1000.0))),
            LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let venv = chain_venv(
            &[(500.0, 900), (400.0, 900), (300.0, 900), (200.0, 900)],
            10.0,
            80.0,
        );
        let out = solve_cold(&phys, &venv, &ExactConfig::default());
        assert_eq!(out.status, ExactStatus::Optimal);
        assert!(
            out.stats.bound_improvements > 0,
            "no bound improvements recorded: {:?}",
            out.stats
        );
        assert!(
            out.stats.pruned_lagrangian > 0,
            "no lagrangian-only prunes recorded: {:?}",
            out.stats
        );
        assert!(out.stats.pruned_lagrangian <= out.stats.pruned_bound);
    }

    #[test]
    fn empty_virtual_environment_is_trivially_optimal() {
        let phys = phys_line(2, &[1000.0, 800.0]);
        let venv = VirtualEnvironment::new();
        let out = solve_cold(&phys, &venv, &ExactConfig::default());
        assert_eq!(out.status, ExactStatus::Optimal);
        let best = out.best.expect("empty mapping is feasible");
        // Residuals untouched: objective = stddev of (1000, 800) = 100.
        assert!((best.objective - 100.0).abs() < 1e-9);
    }

    /// Six identical 2000-MIPS hosts on a ring of 5 ms links (latency
    /// diameter 15 ms, smallest capacity 10 000 kbps).
    fn identical_ring() -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::ring(6),
            std::iter::repeat(HostSpec::new(Mips(2000.0), MemMb(2048), StorGb(1000.0))),
            LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    const FIVE_GUESTS: [(f64, u64); 5] = [
        (90.0, 256),
        (70.0, 200),
        (50.0, 128),
        (40.0, 100),
        (30.0, 64),
    ];

    #[test]
    fn symmetry_skips_identical_hosts_when_routing_cannot_tell_them_apart() {
        let phys = identical_ring();
        let venv = chain_venv(&FIVE_GUESTS, 500.0, 20.0);
        let out = solve_cold(&phys, &venv, &ExactConfig::default());
        assert_eq!(out.symmetry, SymmetryCertificate::Holds);
        assert!(out.stats.pruned_symmetry > 0, "{:?}", out.stats);
        assert_eq!(out.status, ExactStatus::Optimal);
    }

    #[test]
    fn symmetry_certificate_fails_on_a_latency_bound_below_the_diameter() {
        let phys = identical_ring();
        let mut venv = chain_venv(&FIVE_GUESTS, 500.0, 20.0);
        // One link's 12 ms bound is below the ring's 15 ms diameter.
        let (a, b) = (GuestId::from_index(0), GuestId::from_index(4));
        venv.add_link(a, b, VLinkSpec::new(Kbps(10.0), Millis(12.0)));
        let out = solve_cold(&phys, &venv, &ExactConfig::default());
        assert_eq!(out.symmetry, SymmetryCertificate::LatencyFails);
        assert_eq!(out.stats.pruned_symmetry, 0);
        assert_eq!(out.status, ExactStatus::Optimal);
    }

    #[test]
    fn symmetry_certificate_fails_on_bandwidth_above_the_smallest_capacity() {
        let phys = identical_ring();
        // Four links of 3000 kbps: 12 000 in total against 10 000 per edge.
        let venv = chain_venv(&FIVE_GUESTS, 3000.0, 20.0);
        let out = solve_cold(&phys, &venv, &ExactConfig::default());
        assert_eq!(out.symmetry, SymmetryCertificate::BandwidthFails);
        assert_eq!(out.stats.pruned_symmetry, 0);
        assert_eq!(out.status, ExactStatus::Optimal);
    }

    #[test]
    fn backtracking_restores_bit_exact_residuals() {
        // 3-MIPS hosts under 45–92 MIPS guests: CPU oversubscribes, and
        // adding a guest back does not undo its subtraction exactly.
        let phys = PhysicalTopology::from_shape(
            &generators::ring(3),
            std::iter::repeat(HostSpec::new(Mips(3.0), MemMb(2048), StorGb(1000.0))),
            LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let venv = chain_venv(&[(77.5, 64), (91.2, 64), (45.2, 64)], 10.0, 60.0);
        let fresh = ResidualState::new(&phys);
        let (host, a, b) = (
            phys.hosts()[0],
            GuestId::from_index(0),
            GuestId::from_index(1),
        );
        let mut drifted = fresh.clone();
        for g in [a, b] {
            drifted.place(&phys, venv.guest(g), host).unwrap();
        }
        for g in [b, a] {
            drifted.remove(venv.guest(g), host);
        }
        assert_ne!(drifted, fresh, "the instance must make add-back inexact");

        let mut cache = MapCache::new();
        let mut search = Search::new(&phys, &venv, ExactConfig::default(), &mut cache);
        search.run(&mut cache);
        assert!(search.stats.nodes_expanded > 1);
        assert_eq!(search.residual, fresh);
        assert_eq!(search.into_outcome().status, ExactStatus::Optimal);
    }
}
