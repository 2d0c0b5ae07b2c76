//! **Lagrangian-decomposition lower bound** for the exact oracle.
//!
//! The water-filling bound of [`crate::exact`] relaxes *everything* except
//! the fixed total CPU demand: it lets demand split fractionally across
//! hosts and ignores memory, storage, bandwidth and latency entirely. That
//! is why it stalls around ten guests — on any instance where the hard
//! constraints (Eqs. 2–8) force imbalance, the bound stays far below the
//! incumbent and nothing prunes.
//!
//! This module dualizes those coupling constraints instead, in the spirit
//! of Lagrange-decomposition branch-and-bound for VM mapping (Wang,
//! Ben-Ameur & Ouorou): with per-host prices on memory (Eq. 2), storage
//! (Eq. 3) and the bandwidth *cut* around each host (implied by Eqs. 4–7),
//! the relaxation decomposes into **independent per-guest assignment
//! subproblems** — each unassigned guest picks its cheapest priced host
//! from a table built once per search node. Latency bounds (Eq. 8) enter
//! exactly, not dually: a host whose cached Dijkstra `ar[]` distance to an
//! already-placed peer exceeds the link's bound is simply removed from
//! that guest's table (the same "priced table lookup" the search's own
//! latency prune uses).
//!
//! **Objective linearization.** The Eq. 10 objective is the population
//! stddev of final residual CPU `x`, with `x_i = r_i − Σ_g d_g y_{gi}` and
//! a *fixed* final mean `μ = (Σr − D)/n`. Variance is convex in `x`, so
//! its tangent at any point `x̂` under-estimates it:
//!
//! ```text
//! Var(x) = (1/n) Σ x_i² − μ²  ≥  (1/n) Σ (2 x̂_i x_i − x̂_i²) − μ²
//! ```
//!
//! which is **linear in the assignment `y`** and therefore decomposes.
//! Taking `x̂` = the water-filling point makes the relaxation *at zero
//! multipliers and unrestricted tables* collapse exactly to the
//! water-filling bound — so the Lagrangian bound dominates it by
//! construction, and every restriction (latency-pruned tables) or positive
//! price can only tighten it further (see `DESIGN.md` §5.6 for the
//! admissibility argument).
//!
//! **Demand-density floors.** At high demand the water-filling point is
//! *flat* — the level sits below every residual — and a flat tangent is
//! placement-indifferent: no price can lift the dual above it. The cure
//! is a second, structural restriction folded into the tangent point:
//! every unassigned guest satisfies `d_g ≤ ρ_mem·mem_g` with
//! `ρ_mem = max_g d_g/mem_g` (resp. `ρ_stor`), so host `i` can absorb at
//! most `min(ρ_mem·m_i, ρ_stor·s_i)` CPU and its final residual is
//! floored at `r_i` minus that cap. Re-solving the completion over the
//! floored polytope (`floored_waterfill`) yields a bound that is never
//! weaker than plain water-filling, strictly stronger whenever
//! memory/storage pressure forces CPU imbalance, an *infeasibility
//! certificate* when the caps cannot absorb the demand — and a non-flat
//! tangent the ascent can actually price.
//!
//! **Tangent refresh.** The tangent inequality holds for *any* `x̂`, so
//! each ascent iteration re-linearizes at (a damped average towards) the
//! relaxed solution's residual point. Every `(x̂, λ, ν, β)` evaluation is
//! admissible; the reported bound is the max over all of them.
//!
//! **Multiplier warm-start.** Prices live in [`LagrangianScratch`] inside
//! `MapCache` and are *warm-started down the search tree*: each node
//! starts its subgradient ascent from the prices of the node the
//! depth-first search bounded just before it (its parent, for a first
//! child), which are usually near-optimal one level deeper. They are
//! reset at the start of every solve, so results are bit-identical for
//! any cache history — the `MapCache` purity invariant.

use crate::cache::ArTables;
use crate::exact::EPSILON;
use emumap_graph::NodeId;
use emumap_model::{GuestId, PhysicalTopology, VirtualEnvironment};

/// Knobs of the subgradient ascent. All defaults are deliberately small:
/// every dual evaluation is a valid bound on its own, so a handful of
/// ascent steps per node (more at the root, where the bound is reused by
/// the whole tree) buys most of the tightening.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LagrangianConfig {
    /// Subgradient ascent steps at the root node (depth 0).
    pub root_iters: u32,
    /// Subgradient ascent steps at every deeper node (warm-started from
    /// the previously bounded node's multipliers).
    pub tree_iters: u32,
    /// Step-size scale `θ` of the Polyak rule
    /// `t = θ·(UB − dual)/‖subgradient‖²`, applied per price family.
    pub step: f64,
    /// Tangent-refresh mixing weight: each ascent iteration re-linearizes
    /// at `x̂ ← γ·(x̂ + x*)` where `x*` is the relaxed solution's residual
    /// point. The default `γ = 0.5` is the damped midpoint; any value
    /// keeps the bound admissible (the tangent inequality holds at every
    /// `x̂`), so the bench can sweep it without re-tuning correctness
    /// gates.
    pub tangent_damping: f64,
}

impl Default for LagrangianConfig {
    fn default() -> Self {
        LagrangianConfig {
            root_iters: 24,
            tree_iters: 4,
            step: 1.0,
            tangent_damping: 0.5,
        }
    }
}

/// Result of one bound computation at a search node.
#[derive(Clone, Copy, Debug)]
pub struct LagrangianBound {
    /// Admissible lower bound on the final Eq. 10 objective (stddev
    /// units). [`f64::INFINITY`] when some unassigned guest has no
    /// admissible host at all (an *exact* infeasibility certificate).
    pub bound: f64,
    /// Dual evaluations performed (≥ 1; surfaced as `subgradient_iters`).
    pub evaluations: u64,
}

/// A borrowed view of one branch-and-bound node: everything the bound
/// needs from the search state, with no ownership transferred.
pub struct NodeView<'a> {
    /// Host slots in `phys.hosts()` order.
    pub hosts: &'a [NodeId],
    /// Residual CPU per host slot.
    pub r_proc: &'a [f64],
    /// Residual memory per host slot.
    pub r_mem: &'a [u64],
    /// Residual storage per host slot.
    pub r_stor: &'a [f64],
    /// Guests not yet assigned at this node.
    pub unassigned: &'a [GuestId],
    /// Guest index → assigned host slot (placed guests only).
    pub slot_of: &'a [Option<usize>],
    /// Per guest index: `(peer guest index, tightest latency bound)`,
    /// as built by [`tightest_peer_bounds`].
    pub peers: &'a [Vec<(usize, f64)>],
    /// Current incumbent objective (stddev; `INFINITY` when none). Only
    /// steers the ascent step size — any value keeps the bound admissible.
    pub incumbent: f64,
    /// `true` at the search root (uses `root_iters` instead of
    /// `tree_iters`).
    pub at_root: bool,
    /// Apply the exact Eq. 8 latency restriction to the per-guest tables.
    pub use_latency: bool,
}

/// Scratch state of the Lagrangian bound, owned by `MapCache`.
///
/// The multiplier vectors double as the warm-start state *within* one
/// solve; [`prepare`](Self::prepare) resets them so nothing leaks across
/// solves. All other buffers are per-node work areas that keep their
/// capacity, so the steady-state bound computation allocates nothing.
#[derive(Debug, Default)]
pub struct LagrangianScratch {
    /// Memory prices `λ_i ≥ 0` (per host slot), warm-started down the tree.
    lambda_mem: Vec<f64>,
    /// Storage prices `ν_i ≥ 0`.
    nu_stor: Vec<f64>,
    /// Bandwidth-cut prices `β_i ≥ 0`.
    beta_bw: Vec<f64>,
    /// Static per-solve: total physical bandwidth incident to each host
    /// slot — the capacity of the cut isolating that host.
    cut_static: Vec<f64>,
    /// Static per-solve: graph node index → host slot (or `usize::MAX`).
    slot_of_node: Vec<usize>,
    /// Guest index → position in the node's unassigned list (sparse,
    /// reset after each node).
    uidx_of: Vec<usize>,
    /// Water-filling work buffer (descending residuals).
    sorted: Vec<f64>,
    /// The tangent point `x̂` (water-filling completion of `r_proc`).
    xhat: Vec<f64>,
    /// Per-node residual cut capacity: `cut_static − placed-placed usage`.
    cut_slack: Vec<f64>,
    /// Residual memory as `f64` (the dual's penalty term needs it).
    rmem_f: Vec<f64>,
    /// Priced tables: `unassigned × hosts` tangent costs, `INFINITY` on
    /// hosts excluded by the exact fit/latency restrictions.
    cost: Vec<f64>,
    /// Per unassigned guest: CPU demand, memory, storage, and total
    /// bandwidth to already-placed peers.
    gdem: Vec<f64>,
    gmem: Vec<f64>,
    gstor: Vec<f64>,
    peer_bw_sum: Vec<f64>,
    /// `(unassigned idx, placed peer's slot, link bw)` triples, sorted.
    peer_edges: Vec<(usize, usize, f64)>,
    /// CSR offsets into `peer_edges` per unassigned guest.
    peer_off: Vec<usize>,
    /// Argmin host per unassigned guest (subgradient support).
    choice: Vec<usize>,
    /// The relaxed solution's residual point (tangent-refresh support).
    xstar: Vec<f64>,
    /// Per-host residual floors from the demand-density caps.
    floors: Vec<f64>,
    grad_mem: Vec<f64>,
    grad_stor: Vec<f64>,
    grad_bw: Vec<f64>,
    warm: bool,
    reuses: usize,
}

impl LagrangianScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        LagrangianScratch::default()
    }

    /// Bound computations that started on already-warm buffers (every
    /// solve after the first).
    pub fn reuses(&self) -> usize {
        self.reuses
    }

    /// Binds the scratch to one solve: sizes the buffers, computes the
    /// static cut capacities, and — crucially — **resets the multipliers**
    /// so the bound is a pure function of the instance, independent of
    /// cache history (warm-start only happens *within* a solve).
    pub fn prepare(&mut self, phys: &PhysicalTopology, hosts: &[NodeId], guest_count: usize) {
        if self.warm {
            self.reuses += 1;
        }
        self.warm = true;
        let n = hosts.len();
        self.lambda_mem.clear();
        self.lambda_mem.resize(n, 0.0);
        self.nu_stor.clear();
        self.nu_stor.resize(n, 0.0);
        self.beta_bw.clear();
        self.beta_bw.resize(n, 0.0);
        self.slot_of_node.clear();
        self.slot_of_node
            .resize(phys.graph().node_count(), usize::MAX);
        for (slot, &h) in hosts.iter().enumerate() {
            self.slot_of_node[h.index()] = slot;
        }
        self.cut_static.clear();
        self.cut_static.resize(n, 0.0);
        for e in phys.graph().edge_ids() {
            let (a, b) = phys.graph().endpoints(e);
            let bw = phys.link(e).bw.value();
            for node in [a, b] {
                let slot = self.slot_of_node[node.index()];
                if slot != usize::MAX {
                    self.cut_static[slot] += bw;
                }
            }
        }
        self.uidx_of.clear();
        self.uidx_of.resize(guest_count, usize::MAX);
    }
}

/// Per guest index: `(peer guest index, tightest latency bound over all
/// links between the pair)`. Self-loops are skipped (always intra-host).
/// Shared by the oracle's latency prune and the bound's table restriction.
pub fn tightest_peer_bounds(venv: &VirtualEnvironment) -> Vec<Vec<(usize, f64)>> {
    let peers_of = |g: GuestId| {
        let mut list: Vec<(usize, f64)> = Vec::new();
        for nb in venv.links_of(g).iter().filter(|nb| nb.node != g) {
            let lat = venv.link(nb.edge).lat.value();
            match list.iter_mut().find(|(p, _)| *p == nb.node.index()) {
                Some(entry) => entry.1 = entry.1.min(lat),
                None => list.push((nb.node.index(), lat)),
            }
        }
        list
    };
    venv.guest_ids().map(peers_of).collect()
}

/// Water-filling completion of `residuals` under total `demand`: the
/// point `x̂_i = min(r_i, L)` with the level `L` chosen so
/// `Σ x̂ = Σ r − demand`. Mirrors
/// [`residual_stddev_lower_bound`](crate::exact::residual_stddev_lower_bound)
/// but materializes the minimizer instead of only its stddev.
fn waterfill_point(residuals: &[f64], demand: f64, sorted: &mut Vec<f64>, xhat: &mut Vec<f64>) {
    let n = residuals.len();
    sorted.clear();
    sorted.extend_from_slice(residuals);
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite residuals"));
    let total: f64 = residuals.iter().sum();
    let target = total - demand;
    let mut level = f64::INFINITY;
    let mut prefix = 0.0;
    for k in 1..=n {
        prefix += sorted[k - 1];
        let suffix = total - prefix;
        let l = (target - suffix) / k as f64;
        let lo = if k < n { sorted[k] } else { f64::NEG_INFINITY };
        if l <= sorted[k - 1] + EPSILON && l >= lo - EPSILON {
            level = l;
            break;
        }
    }
    xhat.clear();
    xhat.extend(residuals.iter().map(|&r| r.min(level)));
}

/// Water-filling with per-host floors: minimizes `Σ x²` over
/// `{floor_i ≤ x_i ≤ r_i, Σ x = Σ r − demand}` via bisection on the
/// common level (`x_i = clamp(L, floor_i, r_i)`). Returns `false` when
/// the floors alone exceed the target — the per-host absorption caps
/// cannot swallow the remaining demand, so no completion exists.
///
/// The floors come from demand-density caps: every unassigned guest
/// satisfies `d_g ≤ ρ·mem_g` with `ρ = max_g d_g/mem_g`, so host `i`'s
/// CPU load is at most `ρ·m_i` and its final residual at least
/// `r_i − ρ·m_i` (and likewise for storage). The restricted polytope is
/// a subset of the plain water-filling polytope, so this bound is never
/// weaker than [`waterfill_point`]'s — and strictly stronger whenever a
/// floor is active, which is exactly when memory or storage pressure
/// forces CPU imbalance the plain bound cannot see.
fn floored_waterfill(residuals: &[f64], floors: &[f64], demand: f64, xhat: &mut Vec<f64>) -> bool {
    let total: f64 = residuals.iter().sum();
    let target = total - demand;
    let floor_sum: f64 = residuals
        .iter()
        .zip(floors)
        .map(|(&r, &f)| f.min(r).max(-1e18))
        .sum();
    if floor_sum > target + 1e-6 {
        return false;
    }
    let sum_at = |level: f64| -> f64 {
        residuals
            .iter()
            .zip(floors)
            .map(|(&r, &f)| level.max(f).min(r))
            .sum()
    };
    let mut lo = residuals.iter().cloned().fold(f64::INFINITY, f64::min) - demand.abs() - 1.0;
    let mut hi = residuals.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 1.0;
    for _ in 0..128 {
        let mid = 0.5 * (lo + hi);
        if sum_at(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let level = 0.5 * (lo + hi);
    xhat.clear();
    xhat.extend(
        residuals
            .iter()
            .zip(floors)
            .map(|(&r, &f)| level.max(f).min(r)),
    );
    true
}

/// One dual evaluation: the relaxation's value at the given prices, with
/// each unassigned guest's argmin host recorded in `choice` (the
/// subgradient support). Returns the dual value in *variance* units.
#[allow(clippy::too_many_arguments)]
fn evaluate_dual(
    n: usize,
    c0: f64,
    cost: &[f64],
    gmem: &[f64],
    gstor: &[f64],
    peer_bw_sum: &[f64],
    peer_off: &[usize],
    peer_edges: &[(usize, usize, f64)],
    rmem_f: &[f64],
    r_stor: &[f64],
    cut_slack: &[f64],
    lambda: &[f64],
    nu: &[f64],
    beta: &[f64],
    choice: &mut Vec<usize>,
) -> f64 {
    choice.clear();
    let mut value = c0;
    for i in 0..n {
        value -= lambda[i] * rmem_f[i] + nu[i] * r_stor[i] + beta[i] * cut_slack[i];
    }
    let guests = gmem.len();
    for k in 0..guests {
        let row = &cost[k * n..(k + 1) * n];
        let bsum = peer_bw_sum[k];
        // Pass 1: the common priced cost over every admissible host. The
        // ascending scan with a strict `<` keeps the lowest-index argmin,
        // so ties break deterministically.
        let mut min = f64::INFINITY;
        let mut arg = usize::MAX;
        for (i, &c) in row.iter().enumerate() {
            if c.is_finite() {
                let v = c + lambda[i] * gmem[k] + nu[i] * gstor[k] + beta[i] * bsum;
                if v < min {
                    min = v;
                    arg = i;
                }
            }
        }
        // Pass 2: hosts holding a placed peer get a discount — co-locating
        // with the peer removes that link from *both* sides of the cut
        // (−2·β_j·w), and the peer-side surcharge S_g = Σ β_{j_p}·bw_p is
        // host-independent, so it is added once below.
        let mut s_g = 0.0;
        let mut idx = peer_off[k];
        while idx < peer_off[k + 1] {
            let j = peer_edges[idx].1;
            let mut w = 0.0;
            while idx < peer_off[k + 1] && peer_edges[idx].1 == j {
                w += peer_edges[idx].2;
                s_g += beta[j] * peer_edges[idx].2;
                idx += 1;
            }
            if row[j].is_finite() {
                let v = row[j] + lambda[j] * gmem[k] + nu[j] * gstor[k] + beta[j] * bsum
                    - 2.0 * beta[j] * w;
                if v < min {
                    min = v;
                    arg = j;
                }
            }
        }
        if !min.is_finite() {
            return f64::INFINITY;
        }
        value += min + s_g;
        choice.push(arg);
    }
    value
}

/// Computes the Lagrangian lower bound at one search node.
///
/// Runs one evaluation at zero prices (which reproduces the water-filling
/// bound, tightened by the exact per-guest host restrictions) and then —
/// when an incumbent exists to steer the step size — a short projected
/// subgradient ascent warm-started from the prices of the previously
/// bounded node. The returned bound is the **max over all evaluations**:
/// every dual value is admissible, so the ascent can only help.
pub fn lagrangian_bound(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    view: &NodeView<'_>,
    topo: &mut ArTables,
    scratch: &mut LagrangianScratch,
    config: &LagrangianConfig,
) -> LagrangianBound {
    let n = view.hosts.len();
    if n == 0 {
        return LagrangianBound {
            bound: 0.0,
            evaluations: 1,
        };
    }
    let un = view.unassigned.len();
    if un == 0 {
        // Leaf: the residuals are final and the "bound" is exact.
        let mean = view.r_proc.iter().sum::<f64>() / n as f64;
        let var = view
            .r_proc
            .iter()
            .map(|&r| (r - mean) * (r - mean))
            .sum::<f64>()
            / n as f64;
        return LagrangianBound {
            bound: var.sqrt().max(0.0),
            evaluations: 1,
        };
    }

    // Tangent point and the constant part of the linearized objective:
    // C0 = (1/n)(2 Σ x̂_i r_i − Σ x̂_i²) − μ².
    let demand: f64 = view
        .unassigned
        .iter()
        .map(|&g| venv.guest(g).proc.value())
        .sum();
    waterfill_point(view.r_proc, demand, &mut scratch.sorted, &mut scratch.xhat);

    // Demand-density floors: every unassigned guest's CPU is at most
    // `ρ_mem` per MB of memory (resp. `ρ_stor` per GB of storage), so a
    // host's CPU load cannot exceed `min(ρ_mem·m_i, ρ_stor·s_i)` and its
    // final residual cannot drop below `r_i` minus that cap. When a floor
    // cuts above the plain water-filling level (memory/storage pressure
    // forcing CPU imbalance), re-solve the completion on the restricted
    // polytope — never weaker, often strictly stronger, and it de-flattens
    // the tangent so the subgradient ascent has something to price.
    let (mut rho_mem, mut rho_stor) = (0.0f64, 0.0f64);
    for &g in view.unassigned {
        let spec = venv.guest(g);
        let d = spec.proc.value();
        if d <= 0.0 {
            continue;
        }
        let m = spec.mem.value() as f64;
        rho_mem = rho_mem.max(if m > 0.0 { d / m } else { f64::INFINITY });
        let s = spec.stor.value();
        rho_stor = rho_stor.max(if s > 0.0 { d / s } else { f64::INFINITY });
    }
    scratch.floors.clear();
    let mut any_floor = false;
    for i in 0..n {
        let cap_mem = if rho_mem.is_finite() {
            rho_mem * view.r_mem[i] as f64
        } else {
            f64::INFINITY
        };
        let cap_stor = if rho_stor.is_finite() {
            rho_stor * view.r_stor[i]
        } else {
            f64::INFINITY
        };
        let cap = cap_mem.min(cap_stor);
        let floor = if cap.is_finite() {
            view.r_proc[i] - cap
        } else {
            f64::NEG_INFINITY
        };
        any_floor |= floor > scratch.xhat[i] + EPSILON;
        scratch.floors.push(floor);
    }
    if any_floor && !floored_waterfill(view.r_proc, &scratch.floors, demand, &mut scratch.xhat) {
        // The per-host absorption caps cannot swallow the remaining
        // demand: no completion satisfies the memory/storage constraints.
        return LagrangianBound {
            bound: f64::INFINITY,
            evaluations: 1,
        };
    }

    let mean = (view.r_proc.iter().sum::<f64>() - demand) / n as f64;
    let mut c0 = -mean * mean;
    let mut tangent_var = 0.0;
    for i in 0..n {
        c0 +=
            (2.0 * scratch.xhat[i] * view.r_proc[i] - scratch.xhat[i] * scratch.xhat[i]) / n as f64;
        tangent_var += (scratch.xhat[i] - mean) * (scratch.xhat[i] - mean) / n as f64;
    }

    scratch.rmem_f.clear();
    scratch.rmem_f.extend(view.r_mem.iter().map(|&m| m as f64));

    // Residual cut capacities: static incident bandwidth minus what the
    // already-placed cross-host links consume, and the partial (placed ↔
    // unassigned) link list for the per-guest bandwidth terms.
    scratch.cut_slack.clear();
    scratch.cut_slack.extend_from_slice(&scratch.cut_static);
    for (k, &g) in view.unassigned.iter().enumerate() {
        scratch.uidx_of[g.index()] = k;
    }
    scratch.peer_edges.clear();
    for l in venv.link_ids() {
        let (a, b) = venv.link_endpoints(l);
        if a == b {
            continue;
        }
        let bw = venv.link(l).bw.value();
        let (sa, sb) = (view.slot_of[a.index()], view.slot_of[b.index()]);
        match (sa, sb) {
            (Some(i), Some(j)) => {
                if i != j {
                    scratch.cut_slack[i] -= bw;
                    scratch.cut_slack[j] -= bw;
                }
            }
            (Some(j), None) => {
                let k = scratch.uidx_of[b.index()];
                if k != usize::MAX {
                    scratch.peer_edges.push((k, j, bw));
                }
            }
            (None, Some(j)) => {
                let k = scratch.uidx_of[a.index()];
                if k != usize::MAX {
                    scratch.peer_edges.push((k, j, bw));
                }
            }
            (None, None) => {}
        }
    }
    scratch.peer_edges.sort_unstable_by_key(|&(k, j, _)| (k, j));
    scratch.peer_off.clear();
    scratch.peer_off.resize(un + 1, 0);
    for &(k, _, _) in &scratch.peer_edges {
        scratch.peer_off[k + 1] += 1;
    }
    for k in 0..un {
        scratch.peer_off[k + 1] += scratch.peer_off[k];
    }

    // Per-guest demand columns and the priced tables (the tangent cost,
    // with the exact fit/latency restrictions baked in as +∞).
    scratch.gdem.clear();
    scratch.gmem.clear();
    scratch.gstor.clear();
    scratch.peer_bw_sum.clear();
    scratch.cost.clear();
    scratch.cost.resize(un * n, 0.0);
    let mut infeasible = false;
    for (k, &g) in view.unassigned.iter().enumerate() {
        let spec = venv.guest(g);
        scratch.gdem.push(spec.proc.value());
        scratch.gmem.push(spec.mem.value() as f64);
        scratch.gstor.push(spec.stor.value());
        let row = &mut scratch.cost[k * n..(k + 1) * n];
        for (i, slot) in row.iter_mut().enumerate() {
            *slot = if view.r_mem[i] < spec.mem.value() || view.r_stor[i] < spec.stor.value() {
                f64::INFINITY
            } else {
                -(2.0 / n as f64) * spec.proc.value() * scratch.xhat[i]
            };
        }
        if view.use_latency {
            for &(peer, bound) in &view.peers[g.index()] {
                let Some(peer_slot) = view.slot_of[peer] else {
                    continue;
                };
                let peer_host = view.hosts[peer_slot];
                let (ar, _) = topo.ar_and_csr(phys, peer_host);
                for i in 0..n {
                    if view.hosts[i] != peer_host && ar[view.hosts[i].index()] > bound + EPSILON {
                        row[i] = f64::INFINITY;
                    }
                }
            }
        }
        if row.iter().all(|c| !c.is_finite()) {
            infeasible = true;
            break;
        }
        let slice = &scratch.peer_edges[scratch.peer_off[k]..scratch.peer_off[k + 1]];
        scratch
            .peer_bw_sum
            .push(slice.iter().map(|&(_, _, bw)| bw).sum());
    }
    // Sparse reset of the guest → unassigned-index map before any return.
    for &g in view.unassigned {
        scratch.uidx_of[g.index()] = usize::MAX;
    }
    if infeasible {
        // Some guest fits nowhere under the *exact* restrictions: no
        // completion of this node is feasible.
        return LagrangianBound {
            bound: f64::INFINITY,
            evaluations: 1,
        };
    }

    // Evaluation at zero prices: exactly the water-filling bound, plus
    // whatever the table restrictions add. The gradient buffers double as
    // the zero-price vectors here — they are rebuilt before every step.
    scratch.grad_mem.clear();
    scratch.grad_mem.resize(n, 0.0);
    scratch.grad_stor.clear();
    scratch.grad_stor.resize(n, 0.0);
    scratch.grad_bw.clear();
    scratch.grad_bw.resize(n, 0.0);
    let mut best = evaluate_dual(
        n,
        c0,
        &scratch.cost,
        &scratch.gmem,
        &scratch.gstor,
        &scratch.peer_bw_sum,
        &scratch.peer_off,
        &scratch.peer_edges,
        &scratch.rmem_f,
        view.r_stor,
        &scratch.cut_slack,
        &scratch.grad_mem,  // all-zero at this point
        &scratch.grad_stor, // all-zero
        &scratch.grad_bw,   // all-zero
        &mut scratch.choice,
    );
    let mut evaluations = 1u64;
    // The tangent point itself is the restricted polytope's minimizer, so
    // its variance is an admissible bound — and the strongest one here
    // whenever the zero-price relaxation underestimates it.
    if tangent_var > best {
        best = tangent_var;
    }

    // Subgradient ascent, warm-started from the previous node's prices.
    // Without an incumbent there is no Polyak step size — and the prices
    // are still at zero anyway — so the single evaluation above stands.
    if view.incumbent.is_finite() {
        let ub_var = view.incumbent * view.incumbent;
        let iters = if view.at_root {
            config.root_iters
        } else {
            config.tree_iters
        };
        for _ in 0..iters {
            let value = evaluate_dual(
                n,
                c0,
                &scratch.cost,
                &scratch.gmem,
                &scratch.gstor,
                &scratch.peer_bw_sum,
                &scratch.peer_off,
                &scratch.peer_edges,
                &scratch.rmem_f,
                view.r_stor,
                &scratch.cut_slack,
                &scratch.lambda_mem,
                &scratch.nu_stor,
                &scratch.beta_bw,
                &mut scratch.choice,
            );
            evaluations += 1;
            if value > best {
                best = value;
            }
            if value >= ub_var - 1e-12 {
                break; // the node will be pruned; no point tightening more
            }
            // Subgradients: per-slot usage under the argmin choices minus
            // the residual capacities.
            scratch.grad_mem.clear();
            scratch.grad_mem.resize(n, 0.0);
            scratch.grad_stor.clear();
            scratch.grad_stor.resize(n, 0.0);
            scratch.grad_bw.clear();
            scratch.grad_bw.resize(n, 0.0);
            for (k, &c) in scratch.choice.iter().enumerate() {
                scratch.grad_mem[c] += scratch.gmem[k];
                scratch.grad_stor[c] += scratch.gstor[k];
                for &(_, j, bw) in &scratch.peer_edges[scratch.peer_off[k]..scratch.peer_off[k + 1]]
                {
                    if j != c {
                        scratch.grad_bw[c] += bw;
                        scratch.grad_bw[j] += bw;
                    }
                }
            }
            for i in 0..n {
                scratch.grad_mem[i] -= scratch.rmem_f[i];
                scratch.grad_stor[i] -= view.r_stor[i];
                scratch.grad_bw[i] -= scratch.cut_slack[i];
            }
            // Tangent refresh: `x² ≥ 2x̂x − x̂²` holds for *any* x̂, so
            // re-linearize at the relaxed solution's residual point
            // (damped halfway). At high demand the water-filling point is
            // flat — the level sits below every residual, the linearized
            // objective is placement-indifferent, and no price can lift
            // the dual above it. The refreshed tangent reflects where the
            // priced relaxation actually concentrates load, which is what
            // lets the memory/storage/cut prices buy bound.
            scratch.xstar.clear();
            scratch.xstar.extend_from_slice(view.r_proc);
            for (k, &c) in scratch.choice.iter().enumerate() {
                scratch.xstar[c] -= scratch.gdem[k];
            }
            c0 = -mean * mean;
            for i in 0..n {
                scratch.xhat[i] = config.tangent_damping * (scratch.xhat[i] + scratch.xstar[i]);
                c0 += (2.0 * scratch.xhat[i] * view.r_proc[i] - scratch.xhat[i] * scratch.xhat[i])
                    / n as f64;
            }
            for (k, &d) in scratch.gdem.iter().enumerate() {
                let row = &mut scratch.cost[k * n..(k + 1) * n];
                for (i, slot) in row.iter_mut().enumerate() {
                    if slot.is_finite() {
                        *slot = -(2.0 / n as f64) * d * scratch.xhat[i];
                    }
                }
            }
            // Per-family Polyak steps: the three families mix units (MB,
            // GB, kbps), so a shared norm would drown the small ones.
            let gap = ub_var - value;
            for (grad, mult) in [
                (&scratch.grad_mem, &mut scratch.lambda_mem),
                (&scratch.grad_stor, &mut scratch.nu_stor),
                (&scratch.grad_bw, &mut scratch.beta_bw),
            ] {
                let norm2: f64 = grad.iter().map(|g| g * g).sum();
                if norm2 > 1e-18 {
                    let t = config.step * gap / norm2;
                    for i in 0..n {
                        mult[i] = (mult[i] + t * grad[i]).max(0.0);
                    }
                }
            }
        }
    }

    LagrangianBound {
        bound: best.max(0.0).sqrt(),
        evaluations,
    }
}

/// Standalone convenience for tests and the differential harness:
/// computes the bound at an arbitrary partial placement (guest index →
/// host slot), with multipliers reset first (no warm-start across calls),
/// so repeated calls on any shared scratch are bit-identical to fresh
/// ones.
pub fn lagrangian_bound_for_partial(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    placement: &[Option<usize>],
    incumbent: f64,
    config: &LagrangianConfig,
    topo: &mut ArTables,
    scratch: &mut LagrangianScratch,
) -> LagrangianBound {
    assert_eq!(placement.len(), venv.guest_count(), "one slot per guest");
    let hosts: Vec<NodeId> = phys.hosts().to_vec();
    let mut r_proc: Vec<f64> = hosts
        .iter()
        .map(|&h| phys.effective_proc(h).value())
        .collect();
    let mut r_mem: Vec<u64> = hosts
        .iter()
        .map(|&h| phys.effective_mem(h).value())
        .collect();
    let mut r_stor: Vec<f64> = hosts
        .iter()
        .map(|&h| phys.effective_stor(h).value())
        .collect();
    let mut unassigned = Vec::new();
    for (g, slot) in placement.iter().enumerate() {
        let spec = venv.guest(GuestId::from_index(g));
        match slot {
            Some(s) => {
                r_proc[*s] -= spec.proc.value();
                r_mem[*s] -= spec.mem.value();
                r_stor[*s] -= spec.stor.value();
            }
            None => unassigned.push(GuestId::from_index(g)),
        }
    }
    let peers = tightest_peer_bounds(venv);
    topo.prepare(phys);
    scratch.prepare(phys, &hosts, venv.guest_count());
    let view = NodeView {
        hosts: &hosts,
        r_proc: &r_proc,
        r_mem: &r_mem,
        r_stor: &r_stor,
        unassigned: &unassigned,
        slot_of: placement,
        peers: &peers,
        incumbent,
        at_root: true,
        use_latency: true,
    };
    lagrangian_bound(phys, venv, &view, topo, scratch, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::residual_stddev_lower_bound;
    use emumap_graph::generators;
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, StorGb, VLinkSpec, VmmOverhead,
    };

    fn phys_line(n: usize, mips: &[f64], mem: u64) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::line(n),
            mips.iter()
                .map(|&m| HostSpec::new(Mips(m), MemMb(mem), StorGb(1000.0))),
            LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
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
    fn zero_price_evaluation_matches_waterfill_on_unrestricted_instances() {
        // Plenty of memory/storage, generous latency: the tables are
        // unrestricted, so the λ=0 evaluation must reproduce the
        // water-filling bound exactly (the dominance anchor).
        let phys = phys_line(3, &[3000.0, 2000.0, 1000.0], 4096);
        let venv = chain_venv(&[(400.0, 64), (300.0, 64), (200.0, 64)], 10.0, 1000.0);
        let placement = vec![None; 3];
        let wf = residual_stddev_lower_bound(&[3000.0, 2000.0, 1000.0], 900.0);
        let out = lagrangian_bound_for_partial(
            &phys,
            &venv,
            &placement,
            f64::INFINITY, // no incumbent: single zero-price evaluation
            &LagrangianConfig::default(),
            &mut ArTables::new(),
            &mut LagrangianScratch::new(),
        );
        assert!(
            (out.bound - wf).abs() < 1e-9,
            "lagrangian {} != waterfill {wf}",
            out.bound
        );
        assert_eq!(out.evaluations, 1);
    }

    #[test]
    fn density_floors_lift_a_flat_tangent_without_any_incumbent() {
        // High demand flattens the plain water-filling point (the level
        // sits at or below every residual), which blinds the tangent to
        // memory. The demand-density floors see it even in the single
        // zero-price evaluation: host 0 has nearly all the CPU but almost
        // no memory, so it can absorb at most ρ·128 = 256 MIPS of the
        // demand and keeps a residual of at least 4000 − 256 = 3744 —
        // far above the flat level of 1000 (where plain water-filling
        // reports a bound of zero).
        let phys = PhysicalTopology::from_shape(
            &generators::line(3),
            [
                HostSpec::new(Mips(4000.0), MemMb(128), StorGb(1000.0)),
                HostSpec::new(Mips(1000.0), MemMb(2048), StorGb(1000.0)),
                HostSpec::new(Mips(1000.0), MemMb(2048), StorGb(1000.0)),
            ]
            .into_iter(),
            LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        // ρ = 500/250 = 2 MIPS/MB; 6 guests, 3000 MIPS total demand.
        let venv = chain_venv(
            &[
                (500.0, 250),
                (500.0, 250),
                (500.0, 250),
                (500.0, 250),
                (500.0, 250),
                (500.0, 250),
            ],
            10.0,
            1000.0,
        );
        let placement = vec![None; 6];
        let wf = residual_stddev_lower_bound(&[4000.0, 1000.0, 1000.0], 3000.0);
        let out = lagrangian_bound_for_partial(
            &phys,
            &venv,
            &placement,
            f64::INFINITY, // no incumbent: floors alone must do the work
            &LagrangianConfig::default(),
            &mut ArTables::new(),
            &mut LagrangianScratch::new(),
        );
        assert!(
            out.bound >= wf - 1e-9,
            "floored bound {} must dominate waterfill {wf}",
            out.bound
        );
        // Host 0's floor forces x̂ = [3744, −372, −372] against the flat
        // plain point [1000, 1000, 1000]: the bound jumps from 0 to well
        // over a thousand MIPS of stddev.
        assert!(
            out.bound > wf + 1000.0,
            "floors inactive: lagrangian {} vs waterfill {wf}",
            out.bound
        );
    }

    #[test]
    fn absorption_caps_certify_infeasibility_before_any_search() {
        // Two hosts with 150 MB of memory each; four 500-MIPS/100-MB
        // guests. Each guest fits either host individually (no all-∞
        // table row), but ρ = 5 MIPS/MB caps each host's CPU load at 750,
        // and 2 · 750 < 2000 of total demand: the density floors certify
        // that no completion exists.
        let phys = phys_line(2, &[3000.0, 3000.0], 150);
        let venv = chain_venv(
            &[(500.0, 100), (500.0, 100), (500.0, 100), (500.0, 100)],
            10.0,
            1000.0,
        );
        let placement = vec![None; 4];
        let out = lagrangian_bound_for_partial(
            &phys,
            &venv,
            &placement,
            f64::INFINITY,
            &LagrangianConfig::default(),
            &mut ArTables::new(),
            &mut LagrangianScratch::new(),
        );
        assert!(
            out.bound.is_infinite(),
            "absorption caps must certify infeasibility, got {}",
            out.bound
        );
    }

    #[test]
    fn memory_pressure_lifts_the_bound_above_waterfill() {
        // Host 0 has all the CPU but guests cannot all fit there: memory
        // admits exactly one 900 MB guest per 1024 MB host, so the true
        // optimum spreads one guest per host — far from the water-filling
        // fantasy of piling everything on host 0.
        let phys = phys_line(3, &[3000.0, 500.0, 500.0], 1024);
        let venv = chain_venv(&[(300.0, 900), (300.0, 900), (300.0, 900)], 10.0, 1000.0);
        let placement = vec![None; 3];
        let wf = residual_stddev_lower_bound(&[3000.0, 500.0, 500.0], 900.0);
        // Give the ascent a realistic incumbent: one guest per host.
        let incumbent = {
            let x = [2700.0_f64, 200.0, 200.0];
            let m = x.iter().sum::<f64>() / 3.0;
            (x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / 3.0).sqrt()
        };
        let out = lagrangian_bound_for_partial(
            &phys,
            &venv,
            &placement,
            incumbent,
            &LagrangianConfig::default(),
            &mut ArTables::new(),
            &mut LagrangianScratch::new(),
        );
        assert!(
            out.bound > wf + 1.0,
            "expected a real improvement: lagrangian {} vs waterfill {wf}",
            out.bound
        );
        assert!(
            out.bound <= incumbent + 1e-9,
            "bound {} must stay admissible vs feasible incumbent {incumbent}",
            out.bound
        );
        assert!(out.evaluations > 1);
    }

    #[test]
    fn empty_allowed_table_certifies_infeasibility() {
        // A 3000 MB guest fits no 1024 MB host: the bound must blow up to
        // +∞ (an exact infeasibility certificate), not report a number.
        let phys = phys_line(2, &[1000.0, 1000.0], 1024);
        let venv = chain_venv(&[(100.0, 3000)], 10.0, 1000.0);
        let out = lagrangian_bound_for_partial(
            &phys,
            &venv,
            &[None],
            f64::INFINITY,
            &LagrangianConfig::default(),
            &mut ArTables::new(),
            &mut LagrangianScratch::new(),
        );
        assert!(out.bound.is_infinite());
    }

    #[test]
    fn shared_scratch_is_bit_identical_to_fresh_scratch() {
        // The multiplier reset in prepare() makes the bound a pure
        // function of the instance: a scratch warmed by a *different*
        // instance must produce bit-identical results.
        let phys_a = phys_line(3, &[3000.0, 500.0, 500.0], 1024);
        let venv_a = chain_venv(&[(300.0, 900), (300.0, 900), (300.0, 900)], 10.0, 40.0);
        let phys_b = phys_line(4, &[2000.0, 1500.0, 1000.0, 500.0], 2048);
        let venv_b = chain_venv(&[(400.0, 128), (200.0, 128)], 50.0, 12.0);
        let config = LagrangianConfig::default();

        let mut fresh_topo = ArTables::new();
        let mut fresh = LagrangianScratch::new();
        let expect = lagrangian_bound_for_partial(
            &phys_b,
            &venv_b,
            &[None, None],
            30.0,
            &config,
            &mut fresh_topo,
            &mut fresh,
        );

        let mut warm_topo = ArTables::new();
        let mut warm = LagrangianScratch::new();
        let _ = lagrangian_bound_for_partial(
            &phys_a,
            &venv_a,
            &[Some(0), None, None],
            100.0,
            &config,
            &mut warm_topo,
            &mut warm,
        );
        let got = lagrangian_bound_for_partial(
            &phys_b,
            &venv_b,
            &[None, None],
            30.0,
            &config,
            &mut warm_topo,
            &mut warm,
        );
        assert_eq!(expect.bound.to_bits(), got.bound.to_bits());
        assert_eq!(expect.evaluations, got.evaluations);
        assert!(warm.reuses() >= 1);
    }
}
