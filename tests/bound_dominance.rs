//! Dominance and admissibility properties of the oracle's two lower
//! bounds, checked at arbitrary branch-and-bound nodes (random partial
//! placements of random instances):
//!
//! 1. **Dominance** — the Lagrangian bound is never weaker than the
//!    water-filling bound at the same node. This is structural (the
//!    zero-price dual evaluation on a restricted polytope already
//!    contains the water-filling relaxation), so any violation is a bug,
//!    not noise.
//! 2. **Admissibility** — neither bound ever exceeds the brute-forced
//!    optimum over all completions satisfying the necessary feasibility
//!    conditions the bounds price (memory/storage caps, pairwise
//!    shortest-path latency, per-host bandwidth cuts). An inadmissible
//!    bound would let the oracle prune the true optimum and certify a
//!    wrong answer.
//! 3. **Infeasibility certificates are exact** — when the Lagrangian
//!    bound returns `INFINITY` (a no-completion certificate), the brute
//!    force must confirm no completion exists.
//! 4. **Scratch independence** — the bound is a pure function of the
//!    node: a fresh scratch and a scratch warmed on a different instance
//!    produce bit-identical results (the determinism contract that lets
//!    `MapCache` be shared across solves and threads).
//!
//! The brute force enforces *necessary* conditions only (it does not
//! route), so its optimum lower-bounds the fully-routed optimum and the
//! admissibility direction is sound: `bound ≤ necessary-opt ≤ routed-opt`.

use emumap::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod pinned;

const EPS: f64 = 1e-9;

type Case = (PhysicalTopology, VirtualEnvironment, Vec<Option<usize>>);

/// A random heterogeneous instance plus a random resource-feasible
/// partial placement, mimicking an interior search node. Heterogeneous
/// host CPUs matter: on uniform hosts many placements share one residual
/// multiset and the bounds cannot separate anything.
fn build_case(hosts: usize, topo: usize, guests: usize, density: f64, seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = match topo {
        0 => generators::ring(hosts),
        1 => generators::line(hosts),
        _ => generators::switched_cascade(hosts, 8),
    };
    let specs: Vec<HostSpec> = (0..hosts)
        .map(|_| {
            HostSpec::new(
                Mips(rng.gen_range(500.0..3000.0)),
                MemMb(rng.gen_range(512..2048)),
                StorGb(rng.gen_range(100.0..1000.0)),
            )
        })
        .collect();
    let phys = PhysicalTopology::from_shape(
        &shape,
        specs.into_iter(),
        LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
        VmmOverhead::NONE,
    );
    let spec = VirtualEnvSpec {
        guests,
        density,
        mem_mb: Range::new(64.0, 900.0),
        stor_gb: Range::new(10.0, 120.0),
        cpu_mips: Range::new(50.0, 800.0),
        bw_kbps: Range::new(50.0, 500.0),
        lat_ms: Range::new(10.0, 60.0),
        distribution: Distribution::Uniform,
    };
    let venv = spec.generate(&mut rng);

    // Assign roughly half the guests to random hosts, respecting the
    // memory/storage caps (the same invariant the search maintains).
    let n = phys.hosts().len();
    let mut r_mem: Vec<u64> = phys
        .hosts()
        .iter()
        .map(|&h| phys.effective_mem(h).value())
        .collect();
    let mut r_stor: Vec<f64> = phys
        .hosts()
        .iter()
        .map(|&h| phys.effective_stor(h).value())
        .collect();
    let mut placement = vec![None; venv.guest_count()];
    for (g, assigned) in placement.iter_mut().enumerate() {
        if rng.gen_range(0.0..1.0) < 0.5 {
            continue;
        }
        let spec = venv.guest(GuestId::from_index(g));
        for _ in 0..3 {
            let slot = rng.gen_range(0..n);
            if r_mem[slot] >= spec.mem.value() && r_stor[slot] >= spec.stor.value() {
                r_mem[slot] -= spec.mem.value();
                r_stor[slot] -= spec.stor.value();
                *assigned = Some(slot);
                break;
            }
        }
    }
    (phys, venv, placement)
}

/// Sized so the brute force stays ≤ 5⁶ completions per case.
fn arb_case() -> impl Strategy<Value = Case> {
    (
        2usize..=5,   // hosts
        0usize..3,    // topology selector
        1usize..=6,   // guests
        0.0f64..0.6,  // density
        any::<u64>(), // seed
    )
        .prop_map(|(hosts, topo, guests, density, seed)| {
            build_case(hosts, topo, guests, density, seed)
        })
}

/// Exhaustive minimum of the residual-CPU stddev over every completion of
/// `placement` that satisfies the necessary conditions the bounds price:
/// cumulative memory/storage caps, the Eq. 8 pairwise latency bound along
/// shortest physical paths, and per-host bandwidth cuts. `None` when no
/// completion qualifies.
fn brute_force_optimum(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    placement: &[Option<usize>],
    topo: &mut ArTables,
) -> Option<f64> {
    let hosts: Vec<NodeId> = phys.hosts().to_vec();
    let n = hosts.len();
    topo.prepare(phys);

    // All-pairs host latency along shortest paths (the ar[] tables).
    let mut lat = vec![0.0; n * n];
    for (j, &hj) in hosts.iter().enumerate() {
        let (ar, _) = topo.ar_and_csr(phys, hj);
        for (i, &hi) in hosts.iter().enumerate() {
            lat[i * n + j] = ar[hi.index()];
        }
    }
    // Static cut capacity: total physical bandwidth incident to each host.
    let mut cut_static = vec![0.0; n];
    for e in phys.graph().edge_ids() {
        let (a, b) = phys.graph().endpoints(e);
        let bw = phys.link(e).bw.value();
        for node in [a, b] {
            if let Some(slot) = hosts.iter().position(|&h| h == node) {
                cut_static[slot] += bw;
            }
        }
    }
    let links: Vec<(usize, usize, f64, f64)> = venv
        .link_ids()
        .filter_map(|l| {
            let (a, b) = venv.link_endpoints(l);
            if a == b {
                return None;
            }
            let spec = venv.link(l);
            Some((a.index(), b.index(), spec.bw.value(), spec.lat.value()))
        })
        .collect();

    let base_proc: Vec<f64> = hosts
        .iter()
        .map(|&h| phys.effective_proc(h).value())
        .collect();
    let base_mem: Vec<u64> = hosts
        .iter()
        .map(|&h| phys.effective_mem(h).value())
        .collect();
    let base_stor: Vec<f64> = hosts
        .iter()
        .map(|&h| phys.effective_stor(h).value())
        .collect();
    let unassigned: Vec<usize> = placement
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(g, _)| g)
        .collect();
    let total: u64 = (n as u64).pow(unassigned.len() as u32);

    let mut slot_of = vec![usize::MAX; venv.guest_count()];
    let mut best: Option<f64> = None;
    'next: for code in 0..total {
        for (g, s) in placement.iter().enumerate() {
            slot_of[g] = s.unwrap_or(usize::MAX);
        }
        let mut c = code;
        for &g in &unassigned {
            slot_of[g] = (c % n as u64) as usize;
            c /= n as u64;
        }
        let mut r_proc = base_proc.clone();
        let mut r_mem = base_mem.clone();
        let mut r_stor = base_stor.clone();
        for (g, &slot) in slot_of.iter().enumerate() {
            let spec = venv.guest(GuestId::from_index(g));
            if r_mem[slot] < spec.mem.value() || r_stor[slot] < spec.stor.value() {
                continue 'next;
            }
            r_proc[slot] -= spec.proc.value();
            r_mem[slot] -= spec.mem.value();
            r_stor[slot] -= spec.stor.value();
        }
        let mut cut_usage = vec![0.0; n];
        for &(a, b, bw, bound) in &links {
            let (i, j) = (slot_of[a], slot_of[b]);
            if i == j {
                continue; // intra-host links are free (Eq. 6 slack)
            }
            if lat[i * n + j] > bound + EPS {
                continue 'next;
            }
            cut_usage[i] += bw;
            cut_usage[j] += bw;
        }
        for i in 0..n {
            if cut_usage[i] > cut_static[i] + 1e-6 {
                continue 'next;
            }
        }
        let mean = r_proc.iter().sum::<f64>() / n as f64;
        let var = r_proc.iter().map(|&r| (r - mean) * (r - mean)).sum::<f64>() / n as f64;
        let stddev = var.sqrt();
        best = Some(best.map_or(stddev, |b: f64| b.min(stddev)));
    }
    best
}

/// The water-filling bound exactly as the oracle computes it at a node:
/// residual CPUs after the partial placement, total unassigned demand.
fn waterfill_at(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    placement: &[Option<usize>],
) -> f64 {
    let mut r_proc: Vec<f64> = phys
        .hosts()
        .iter()
        .map(|&h| phys.effective_proc(h).value())
        .collect();
    let mut demand = 0.0;
    for (g, slot) in placement.iter().enumerate() {
        let d = venv.guest(GuestId::from_index(g)).proc.value();
        match slot {
            Some(s) => r_proc[*s] -= d,
            None => demand += d,
        }
    }
    residual_stddev_lower_bound(&r_proc, demand)
}

/// Properties 1–3: dominance over the water-filling bound, admissibility
/// against the brute force, and exact infeasibility certificates — each
/// checked both without an incumbent (single zero-price evaluation) and
/// with the optimum as incumbent (full subgradient ascent).
fn dominance_check(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    placement: &[Option<usize>],
) {
    let wf = waterfill_at(phys, venv, placement);
    let mut topo = ArTables::new();
    let optimum = brute_force_optimum(phys, venv, placement, &mut topo);

    for incumbent in [f64::INFINITY, optimum.unwrap_or(f64::INFINITY)] {
        let out = lagrangian_bound_for_partial(
            phys,
            venv,
            placement,
            incumbent,
            &mut topo,
            &mut LagrangianScratch::new(),
        );
        assert!(
            out.bound >= wf - EPS,
            "lagrangian {} < waterfill {wf} (incumbent {incumbent})",
            out.bound
        );
        assert!(out.evaluations >= 1, "bound reported no dual evaluations");
        match optimum {
            Some(opt) => {
                assert!(
                    wf <= opt + EPS,
                    "waterfill {wf} exceeds the brute-forced optimum {opt}"
                );
                assert!(
                    out.bound <= opt + EPS,
                    "lagrangian {} exceeds the brute-forced optimum {opt} \
                     (incumbent {incumbent})",
                    out.bound
                );
            }
            None => {
                // No feasible completion: any bound (including INFINITY)
                // is admissible; nothing to compare against.
            }
        }
        if out.bound.is_infinite() {
            assert!(
                optimum.is_none(),
                "lagrangian certified infeasible but a completion with \
                 objective {:?} exists",
                optimum
            );
        }
    }
}

/// Property 4: bit-identical bounds from a fresh scratch and a scratch
/// previously warmed on a *different* instance and placement.
fn scratch_independence_check(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    placement: &[Option<usize>],
) {
    let incumbent = 1_000.0; // finite: forces the ascent to actually run
    let mut topo = ArTables::new();
    let fresh = lagrangian_bound_for_partial(
        phys,
        venv,
        placement,
        incumbent,
        &mut topo,
        &mut LagrangianScratch::new(),
    );

    // Warm a scratch (and a topology cache) on an unrelated instance…
    let (other_phys, other_venv, other_placement) = build_case(4, 1, 4, 0.3, 0xd15_ea5e);
    let mut warmed = LagrangianScratch::new();
    let mut other_topo = ArTables::new();
    let _ = lagrangian_bound_for_partial(
        &other_phys,
        &other_venv,
        &other_placement,
        incumbent,
        &mut other_topo,
        &mut warmed,
    );
    // …then reuse it: the result must be bit-identical.
    let reused =
        lagrangian_bound_for_partial(phys, venv, placement, incumbent, &mut topo, &mut warmed);
    assert_eq!(
        fresh.bound.to_bits(),
        reused.bound.to_bits(),
        "scratch history changed the bound: fresh {} vs reused {}",
        fresh.bound,
        reused.bound
    );
    assert_eq!(fresh.evaluations, reused.evaluations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lagrangian_dominates_waterfill_and_both_are_admissible(
        (phys, venv, placement) in arb_case()
    ) {
        dominance_check(&phys, &venv, &placement);
    }

    #[test]
    fn lagrangian_bound_is_scratch_independent((phys, venv, placement) in arb_case()) {
        scratch_independence_check(&phys, &venv, &placement);
    }
}

/// Replays every seed pinned in
/// `proptest-regressions/bound_dominance.txt`, mirroring the replay
/// harness of `property_mappings.rs` (the shim has no automatic
/// persistence, so this file is the regression memory).
#[test]
fn regression_seeds_replay() {
    let pinned = include_str!("../proptest-regressions/bound_dominance.txt");
    for (name, mut rng) in pinned::pinned_cases(pinned) {
        match name {
            "lagrangian_dominates_waterfill_and_both_are_admissible" => {
                let (phys, venv, placement) = arb_case().generate(&mut rng);
                dominance_check(&phys, &venv, &placement);
            }
            "lagrangian_bound_is_scratch_independent" => {
                let (phys, venv, placement) = arb_case().generate(&mut rng);
                scratch_independence_check(&phys, &venv, &placement);
            }
            other => panic!("regression file pins unknown test '{other}'"),
        }
    }
}
