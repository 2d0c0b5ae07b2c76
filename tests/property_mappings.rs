//! Property-based integration tests: for arbitrary (feasible-ish) random
//! instances, every mapping any mapper returns must satisfy the paper's
//! formal model, and the stage-level invariants must hold.

use emumap::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod instances;
mod pinned;

use instances::{arb_instance, build_instance};

/// Oracle-sized instances: the exact search is exponential in the guest
/// count, so the differential suite stays at ≤ 8 hosts and ≤ 10 guests.
fn arb_small_instance() -> impl Strategy<Value = (PhysicalTopology, VirtualEnvironment, u64)> {
    (
        2usize..=8,   // hosts
        0usize..3,    // topology selector
        1usize..=10,  // guests
        0.0f64..0.4,  // density
        any::<u64>(), // seed
    )
        .prop_map(|(hosts, topo, guests, density, seed)| {
            build_instance(hosts, topo, guests, density, seed)
        })
}

const EPS: f64 = 1e-9;

/// Node budget for oracle calls inside the property suite: enough to
/// certify most oracle-sized instances, small enough that 256 cases stay
/// fast. Truncated outcomes are tolerated (the bound is still sound).
fn oracle_config() -> ExactConfig {
    ExactConfig {
        max_nodes: 20_000,
        ..Default::default()
    }
}

/// The differential invariants between the heuristics and the exact
/// oracle, as plain asserts so the pinned-seed replay test can reuse it
/// (the proptest harness reports the failing seed either way):
///
/// 1. every successful mapping validates against Eqs. 1–9;
/// 2. the oracle never reports infeasible when any mapper succeeded;
/// 3. no heuristic beats the oracle's incumbent (structural — successes
///    are seeded as witnesses — so a failure implicates the objective or
///    the validator, not just the search);
/// 4. no heuristic objective undercuts the certified lower bound.
///
/// Every mapper in the registry runs — the coverage is `MAPPERS` itself,
/// so a newly registered mapper is differentially tested against the
/// oracle without touching this file.
fn differential_check(phys: &PhysicalTopology, venv: &VirtualEnvironment, seed: u64) {
    let config = MapperConfig { max_attempts: 20 };
    let mappers: Vec<Box<dyn Mapper>> = MAPPERS.iter().map(|e| (e.build)(&config)).collect();
    let mut witnesses = Vec::new();
    let mut objectives = Vec::new();
    for mapper in &mappers {
        let mut rng = SmallRng::seed_from_u64(seed);
        if let Ok(out) = mapper.map(phys, venv, &mut rng) {
            assert_eq!(
                validate_mapping(phys, venv, &out.mapping),
                Ok(()),
                "{} produced an invalid mapping",
                mapper.name()
            );
            witnesses.push(out.mapping);
            objectives.push((mapper.name().to_string(), out.objective));
        }
    }

    let mut cache = MapCache::new();
    let outcome = solve_exact_with(phys, venv, &oracle_config(), &mut cache, &witnesses);

    if !witnesses.is_empty() {
        assert_ne!(
            outcome.status,
            ExactStatus::Infeasible,
            "oracle certifies infeasible but {} mapper(s) succeeded",
            witnesses.len()
        );
    }
    if let Some(best) = &outcome.best {
        assert_eq!(
            validate_mapping(phys, venv, &best.mapping),
            Ok(()),
            "the oracle's own mapping is invalid"
        );
        for (name, obj) in &objectives {
            assert!(
                *obj >= best.objective - EPS,
                "{name} objective {obj} beats the oracle incumbent {}",
                best.objective
            );
        }
    }
    if outcome.lower_bound.is_finite() {
        for (name, obj) in &objectives {
            assert!(
                *obj >= outcome.lower_bound - EPS,
                "{name} objective {obj} undercuts the certified lower bound {}",
                outcome.lower_bound
            );
        }
    }
}

/// Cold oracle (no heuristic incumbents) vs HMN: a certified optimum is
/// a floor under HMN, and certified infeasibility means HMN must have
/// failed too. Truncated runs assert nothing — their bound is exercised
/// by [`differential_check`].
fn admissibility_check(phys: &PhysicalTopology, venv: &VirtualEnvironment, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let hmn = Hmn::new().map(phys, venv, &mut rng);
    let outcome = solve_exact_with(phys, venv, &oracle_config(), &mut MapCache::new(), &[]);
    match outcome.status {
        ExactStatus::Optimal => {
            let best = outcome.best.as_ref().expect("Optimal implies an incumbent");
            if let Ok(out) = &hmn {
                assert!(
                    out.objective >= best.objective - EPS,
                    "HMN objective {} beats the certified optimum {}",
                    out.objective,
                    best.objective
                );
            }
        }
        ExactStatus::Infeasible => {
            assert!(
                hmn.is_err(),
                "oracle certifies infeasible but HMN mapped the instance"
            );
        }
        ExactStatus::Truncated => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hmn_mappings_always_validate((phys, venv, seed) in arb_instance()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        if let Ok(out) = Hmn::new().map(&phys, &venv, &mut rng) {
            prop_assert_eq!(validate_mapping(&phys, &venv, &out.mapping), Ok(()));
            prop_assert!(out.objective.is_finite());
            prop_assert_eq!(
                out.stats.routed_links + out.stats.intra_host_links,
                venv.link_count()
            );
        }
    }

    #[test]
    fn baseline_mappings_always_validate((phys, venv, seed) in arb_instance()) {
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(RandomDfs { max_attempts: 20 }),
            Box::new(RandomAStar { max_attempts: 20 }),
            Box::new(HostingDfs { max_attempts: 20 }),
            Box::new(RandomizedRounding::with_config(RoundingConfig {
                max_attempts: 20,
                ..Default::default()
            })),
        ];
        for mapper in &mappers {
            let mut rng = SmallRng::seed_from_u64(seed);
            if let Ok(out) = mapper.map(&phys, &venv, &mut rng) {
                prop_assert_eq!(
                    validate_mapping(&phys, &venv, &out.mapping),
                    Ok(()),
                    "{} produced an invalid mapping", mapper.name()
                );
            }
        }
    }

    #[test]
    fn migration_never_worsens_the_objective((phys, venv, seed) in arb_instance()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let with = Hmn::new().map(&phys, &venv, &mut rng);
        let mut rng = SmallRng::seed_from_u64(seed);
        let without = Hmn::with_config(HmnConfig { migration: MigrationPolicy::Off, ..Default::default() })
            .map(&phys, &venv, &mut rng);
        if let (Ok(a), Ok(b)) = (with, without) {
            prop_assert!(a.objective <= b.objective + 1e-9);
        }
    }

    #[test]
    fn consolidation_never_uses_more_hosts((phys, venv, seed) in arb_instance()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plain = Hmn::new().map(&phys, &venv, &mut rng);
        let mut rng = SmallRng::seed_from_u64(seed);
        let packed = ConsolidatingHmn.map(&phys, &venv, &mut rng);
        if let (Ok(a), Ok(b)) = (plain, packed) {
            prop_assert!(b.mapping.hosts_used() <= a.mapping.hosts_used());
            prop_assert_eq!(validate_mapping(&phys, &venv, &b.mapping), Ok(()));
        }
    }

    #[test]
    fn hmn_is_seed_independent((phys, venv, seed) in arb_instance()) {
        let a = Hmn::new().map(&phys, &venv, &mut SmallRng::seed_from_u64(seed));
        let b = Hmn::new().map(&phys, &venv, &mut SmallRng::seed_from_u64(seed ^ 0xdead_beef));
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.mapping, y.mapping);
            }
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(
                false,
                "HMN determinism broken: {:?} vs {:?}",
                x.map(|o| o.objective),
                y.map(|o| o.objective)
            ),
        }
    }

    #[test]
    fn experiment_runtime_is_positive_and_scales_with_rounds(
        (phys, venv, seed) in arb_instance()
    ) {
        prop_assume!(venv.guest_count() > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        if let Ok(out) = Hmn::new().map(&phys, &venv, &mut rng) {
            let one = run_experiment(
                &phys, &venv, &out.mapping,
                &ExperimentSpec { rounds: 1, ..Default::default() },
            );
            let three = run_experiment(
                &phys, &venv, &out.mapping,
                &ExperimentSpec { rounds: 3, ..Default::default() },
            );
            prop_assert!(one.total_s > 0.0);
            prop_assert!((three.total_s - 3.0 * one.total_s).abs() < 1e-6);
        }
    }

    #[test]
    fn heuristics_agree_with_the_exact_oracle((phys, venv, seed) in arb_small_instance()) {
        differential_check(&phys, &venv, seed);
    }

    #[test]
    fn oracle_bound_is_admissible_without_witnesses((phys, venv, seed) in arb_small_instance()) {
        admissibility_check(&phys, &venv, seed);
    }

    #[test]
    fn hosting_cannot_fail_at_low_utilization((phys, venv, seed) in arb_instance()) {
        // At <= 60% aggregate memory utilization a first-fit fallback can
        // never strand a guest: if every host had less free memory than
        // the largest guest (256 MB), total free would be under
        // hosts x 256 MB, contradicting the 40% (~819 MB/host) slack.
        // (No such guarantee holds near 100% — greedy hosting can fail on
        // packable-but-tight instances; see the feasibility module.)
        let hosts: Vec<HostSpec> = phys
            .hosts()
            .iter()
            .map(|&h| *phys.host_spec(h))
            .collect();
        prop_assume!(emumap::workloads::memory_utilization(&hosts, &venv) <= 0.6);
        let mut rng = SmallRng::seed_from_u64(seed);
        match Hmn::new().map(&phys, &venv, &mut rng) {
            Ok(_) => {}
            Err(MapError::NetworkingFailed { .. }) => {} // routing may be tight
            Err(e) => prop_assert!(false, "hosting failed at low utilization: {e}"),
        }
    }
}

/// Replays every seed pinned in `proptest-regressions/property_mappings.txt`
/// through the property it once failed (or was pinned to guard). The shim
/// has no automatic persistence, so this test is the regression memory:
/// once a seed is in the file, the case runs on every `cargo test`.
#[test]
fn regression_seeds_replay() {
    let pinned = include_str!("../proptest-regressions/property_mappings.txt");
    for (name, mut rng) in pinned::pinned_cases(pinned) {
        match name {
            "heuristics_agree_with_the_exact_oracle" => {
                let (phys, venv, s) = arb_small_instance().generate(&mut rng);
                differential_check(&phys, &venv, s);
            }
            "oracle_bound_is_admissible_without_witnesses" => {
                let (phys, venv, s) = arb_small_instance().generate(&mut rng);
                admissibility_check(&phys, &venv, s);
            }
            "hmn_mappings_always_validate" => {
                let (phys, venv, s) = arb_instance().generate(&mut rng);
                let mut r = SmallRng::seed_from_u64(s);
                if let Ok(out) = Hmn::new().map(&phys, &venv, &mut r) {
                    assert_eq!(validate_mapping(&phys, &venv, &out.mapping), Ok(()));
                }
            }
            other => panic!("regression file pins unknown test '{other}'"),
        }
    }
}
