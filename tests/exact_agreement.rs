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
//! 3. **The symmetry skip loses nothing** — on instances where the
//!    symmetry certificate holds (hosts drawn from one or two repeated
//!    specs, so many share residuals), the oracle's verdict and certified
//!    optimum equal an exhaustive enumeration of every placement.
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

/// An instance on which routing cannot tell hosts apart: up to six hosts
/// drawn from one or two repeated specs (half the time of equal CPU) on a
/// ring or a star of 5 ms,
/// 10 000 kbps links (latency diameter at most 15 ms), and up to six
/// guests whose links carry at most 500 kbps each (at most 15 links, so
/// 7 500 kbps in total) under bounds of at least 20 ms. Storage comes in
/// whole GB, so every fit test is exact and the enumeration and the
/// search agree on which placements fit.
fn build_symmetric_case(
    hosts: usize,
    star: bool,
    two_specs: bool,
    guests: usize,
    seed: u64,
) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let draw_spec = |rng: &mut SmallRng| {
        HostSpec::new(
            Mips(rng.gen_range(500.0..3000.0)),
            MemMb(rng.gen_range(512..=2048)),
            StorGb(f64::from(rng.gen_range(100u32..=600))),
        )
    };
    let first = draw_spec(&mut rng);
    // Half the time the specs share their CPU, so hosts of one residual
    // CPU can still differ in memory and storage.
    let second = match rng.gen_bool(0.5) {
        true => HostSpec {
            proc: first.proc,
            ..draw_spec(&mut rng)
        },
        false => draw_spec(&mut rng),
    };
    let specs = [first, second];
    let host_specs: Vec<HostSpec> = (0..hosts)
        .map(|_| specs[usize::from(two_specs && rng.gen_bool(0.5))])
        .collect();
    let shape = if star {
        generators::star(hosts)
    } else {
        generators::ring(hosts)
    };
    let phys = PhysicalTopology::from_shape(
        &shape,
        host_specs.into_iter(),
        LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
        VmmOverhead::NONE,
    );
    let mut venv = VirtualEnvironment::new();
    let ids: Vec<GuestId> = (0..guests)
        .map(|_| {
            venv.add_guest(GuestSpec::new(
                Mips(rng.gen_range(20.0..400.0)),
                MemMb(rng.gen_range(64..=768)),
                StorGb(f64::from(rng.gen_range(10u32..=200))),
            ))
        })
        .collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            if rng.gen_bool(0.4) {
                let spec = VLinkSpec::new(
                    Kbps(rng.gen_range(50.0..500.0)),
                    Millis(rng.gen_range(20.0..60.0)),
                );
                venv.add_link(a, b, spec);
            }
        }
    }
    (phys, venv)
}

fn arb_symmetric_case() -> impl Strategy<Value = Case> {
    (
        1usize..=6,    // hosts
        any::<bool>(), // star instead of ring
        any::<bool>(), // two host specs instead of one
        1usize..=6,    // guests
        any::<u64>(),  // seed
    )
        .prop_map(|(hosts, star, two_specs, guests, seed)| {
            build_symmetric_case(hosts, star, two_specs, guests, seed)
        })
}

/// The least Eq. 10 objective over every placement that respects
/// Eqs. 2–3, scored by `mapping_objective`; `None` when none fits.
fn enumerated_optimum(phys: &PhysicalTopology, venv: &VirtualEnvironment) -> Option<f64> {
    let fresh = ResidualState::new(phys);
    let (hosts, guests) = (phys.hosts(), venv.guest_count());
    let mut digits = vec![0usize; guests];
    let mut best: Option<f64> = None;
    loop {
        let mut mem = fresh.mem_column().to_vec();
        let mut stor = fresh.stor_column().to_vec();
        let fits = digits.iter().enumerate().all(|(g, &h)| {
            let spec = venv.guest(GuestId::from_index(g));
            let fit = mem[h] >= spec.mem.value() && stor[h] >= spec.stor.value();
            mem[h] = mem[h].saturating_sub(spec.mem.value());
            stor[h] -= spec.stor.value();
            fit
        });
        if fits {
            let placement = digits.iter().map(|&h| hosts[h]).collect();
            let objective =
                objective::mapping_objective(phys, venv, &Mapping::new(placement, Vec::new()));
            best = Some(best.map_or(objective, |b: f64| b.min(objective)));
        }
        // Next placement in odometer order; done after the last.
        let Some(g) = digits.iter().position(|&h| h + 1 < hosts.len()) else {
            return best;
        };
        digits[g] += 1;
        digits[..g].iter_mut().for_each(|h| *h = 0);
    }
}

fn symmetry_check(phys: &PhysicalTopology, venv: &VirtualEnvironment) {
    let optimum = enumerated_optimum(phys, venv);
    for bound in [BoundKind::Lagrangian, BoundKind::Waterfill] {
        let out = solve_at(phys, venv, with_bound(bound));
        assert_eq!(out.symmetry, SymmetryCertificate::Holds, "{bound:?}");
        match optimum {
            None => assert_eq!(out.status, ExactStatus::Infeasible, "{bound:?}"),
            Some(optimum) => {
                assert_eq!(out.status, ExactStatus::Optimal, "{bound:?}");
                let best = out.best.expect("an Optimal verdict carries its mapping");
                assert!(
                    (best.objective - optimum).abs() <= EPS,
                    "{bound:?}: certified {} but enumeration finds {optimum}",
                    best.objective
                );
            }
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

    #[test]
    fn symmetric_search_matches_enumeration((phys, venv) in arb_symmetric_case()) {
        symmetry_check(&phys, &venv);
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
            "symmetric_search_matches_enumeration" => {
                let (phys, venv) = arb_symmetric_case().generate(&mut rng);
                symmetry_check(&phys, &venv);
            }
            other => panic!("regression file pins unknown test '{other}'"),
        }
    }
}
