//! Exactness of the branch-and-bound oracle on random instances, checked
//! against itself:
//!
//! 1. **Bound agreement** — the Lagrangian and water-filling bounds
//!    prune differently (so their effort counters differ) but drive the
//!    same exact search: same status, and certified objectives equal up
//!    to `EPSILON`.
//! 2. **Truncation is admissible** — a run cut short by a node budget
//!    (zero included, where no node is bounded at all) reports a
//!    `lower_bound` no higher than any feasible mapping the full search
//!    finds, so a Truncated interval always contains the optimum.
//!
//! The vendored proptest shim has no automatic failure persistence;
//! `regression_seeds_replay` replays the seeds pinned in
//! `proptest-regressions/exact_agreement.txt` on every `cargo test`,
//! mirroring the harness of `bound_dominance.rs`.

use emumap::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod pinned;

const EPS: f64 = 1e-9;

type Case = (PhysicalTopology, VirtualEnvironment);

/// A random heterogeneous instance small enough for the full search to
/// finish in milliseconds but large enough (up to 4 hosts × 6 guests)
/// for real pruning and truncation.
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
    (phys, venv)
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        2usize..=4,   // hosts
        0usize..3,    // topology selector
        2usize..=6,   // guests
        0.0f64..0.6,  // density
        any::<u64>(), // seed
    )
        .prop_map(|(hosts, topo, guests, density, seed)| {
            build_case(hosts, topo, guests, density, seed)
        })
}

fn solve_at(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    config: ExactConfig,
) -> ExactOutcome {
    solve_exact_with(phys, venv, &config, &mut MapCache::new(), &[])
}

fn with_bound(bound: BoundKind) -> ExactConfig {
    ExactConfig {
        bound,
        ..Default::default()
    }
}

fn bound_agreement_check(phys: &PhysicalTopology, venv: &VirtualEnvironment) {
    let lag = solve_at(phys, venv, with_bound(BoundKind::Lagrangian));
    let wf = solve_at(phys, venv, with_bound(BoundKind::Waterfill));
    assert_eq!(
        lag.status, wf.status,
        "bounds disagree on the verdict: {:?} vs {:?}",
        lag.status, wf.status
    );
    if lag.status == ExactStatus::Optimal {
        let (a, b) = (lag.best.unwrap(), wf.best.unwrap());
        assert!(
            (a.objective - b.objective).abs() <= EPS,
            "certified objectives diverged: {} vs {}",
            a.objective,
            b.objective
        );
    }
}

fn truncation_check(phys: &PhysicalTopology, venv: &VirtualEnvironment) {
    for bound in [BoundKind::Lagrangian, BoundKind::Waterfill] {
        let full = solve_at(phys, venv, with_bound(bound));
        let Some(best) = full.best else { continue };
        for max_nodes in [0, 1, 4, 9] {
            let cut = solve_at(
                phys,
                venv,
                ExactConfig {
                    max_nodes,
                    ..with_bound(bound)
                },
            );
            assert!(
                cut.lower_bound <= best.objective + EPS,
                "{bound:?} at {max_nodes} nodes: lower bound {} above a feasible {}",
                cut.lower_bound,
                best.objective
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lagrangian_and_waterfill_searches_agree((phys, venv) in arb_case()) {
        bound_agreement_check(&phys, &venv);
    }

    #[test]
    fn truncated_lower_bound_is_admissible((phys, venv) in arb_case()) {
        truncation_check(&phys, &venv);
    }
}

/// Replays every seed pinned in
/// `proptest-regressions/exact_agreement.txt` (the shim has no automatic
/// persistence, so this file is the regression memory).
#[test]
fn regression_seeds_replay() {
    let pinned = include_str!("../proptest-regressions/exact_agreement.txt");
    for (name, mut rng) in pinned::pinned_cases(pinned) {
        match name {
            "lagrangian_and_waterfill_searches_agree" => {
                let (phys, venv) = arb_case().generate(&mut rng);
                bound_agreement_check(&phys, &venv);
            }
            "truncated_lower_bound_is_admissible" => {
                let (phys, venv) = arb_case().generate(&mut rng);
                truncation_check(&phys, &venv);
            }
            other => panic!("regression file pins unknown test '{other}'"),
        }
    }
}
