//! End-to-end coverage of the §6-style extensions: K-shortest-paths
//! routing, exhaustive migration, and the classical greedy placements —
//! all on paper-shaped instances, all validated against the formal model.

use emumap::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn paper_instance(ratio: f64, rep: u32) -> Instance {
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };
    instantiate(&cluster, ClusterSpec::paper_torus(), &scenario, rep, 77)
}

#[test]
fn all_extension_mappers_validate_on_a_paper_scenario() {
    let inst = paper_instance(5.0, 0);
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(HmnKsp::default()),
        Box::new(Hmn::with_config(HmnConfig {
            migration: MigrationPolicy::Exhaustive,
            ..Default::default()
        })),
        Box::new(FirstFitDecreasing),
        Box::new(BestFit),
        Box::new(WorstFit),
        Box::new(ConsolidatingHmn),
    ];
    for mapper in mappers {
        let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
        let out = mapper
            .map(&inst.phys, &inst.venv, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed on 5:1: {e}", mapper.name()));
        assert_eq!(
            validate_mapping(&inst.phys, &inst.venv, &out.mapping),
            Ok(()),
            "{} produced an invalid mapping",
            mapper.name()
        );
    }
}

#[test]
fn annealing_is_never_worse_than_hmn_on_balance() {
    // SA seeds from the HMN fixpoint and keeps the best placement visited,
    // so with a pure Eq. 10 energy its objective is bounded by HMN's.
    for rep in 0..2 {
        let inst = paper_instance(5.0, rep);
        let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
        let hmn = Hmn::new()
            .map(&inst.phys, &inst.venv, &mut rng)
            .expect("maps");
        let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
        let sa = Annealing {
            config: AnnealingConfig {
                iterations: 5_000,
                bandwidth_weight: 0.0,
                ..Default::default()
            },
        }
        .map(&inst.phys, &inst.venv, &mut rng)
        .expect("maps");
        assert!(
            sa.objective <= hmn.objective + 1e-9,
            "rep {rep}: SA {} vs HMN {}",
            sa.objective,
            hmn.objective
        );
        assert_eq!(
            validate_mapping(&inst.phys, &inst.venv, &sa.mapping),
            Ok(())
        );
    }
}

#[test]
fn exhaustive_migration_is_at_least_as_balanced_as_paper_rule() {
    for rep in 0..3 {
        let inst = paper_instance(2.5, rep);
        let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
        let paper = Hmn::new()
            .map(&inst.phys, &inst.venv, &mut rng)
            .expect("maps");
        let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
        let exhaustive = Hmn::with_config(HmnConfig {
            migration: MigrationPolicy::Exhaustive,
            ..Default::default()
        })
        .map(&inst.phys, &inst.venv, &mut rng)
        .expect("maps");
        assert!(
            exhaustive.objective <= paper.objective + 1e-9,
            "rep {rep}: exhaustive {} vs paper {}",
            exhaustive.objective,
            paper.objective
        );
    }
}

#[test]
fn hmn_beats_every_classical_placement_on_balance() {
    // The point of the paper's placement pipeline: against textbook
    // bin-packing placements (which ignore CPU balance or ignore affinity),
    // HMN's objective is at least as good on paper-shaped instances.
    let inst = paper_instance(5.0, 1);
    let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
    let hmn = Hmn::new()
        .map(&inst.phys, &inst.venv, &mut rng)
        .expect("maps");
    for mapper in [
        Box::new(FirstFitDecreasing) as Box<dyn Mapper>,
        Box::new(BestFit),
    ] {
        let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
        if let Ok(out) = mapper.map(&inst.phys, &inst.venv, &mut rng) {
            assert!(
                hmn.objective <= out.objective + 1e-9,
                "{}: {} vs HMN {}",
                mapper.name(),
                out.objective,
                hmn.objective
            );
        }
    }
}

#[test]
fn ksp_routing_matches_astar_success_on_loose_instances() {
    // With generous k the KSP router should map the easy scenarios too.
    let inst = paper_instance(2.5, 2);
    let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
    let out = HmnKsp { k: 8 }
        .map(&inst.phys, &inst.venv, &mut rng)
        .expect("loose scenario maps under KSP routing");
    assert_eq!(
        validate_mapping(&inst.phys, &inst.venv, &out.mapping),
        Ok(())
    );
    // Same placement as HMN (routing strategy does not affect placement).
    let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
    let hmn = Hmn::new()
        .map(&inst.phys, &inst.venv, &mut rng)
        .expect("maps");
    assert_eq!(out.mapping.placement(), hmn.mapping.placement());
}

#[test]
fn diagnostics_prove_infeasibility_where_mappers_fail() {
    // A latency-impossible instance: every mapper fails, and diagnose_route
    // proves WHY for the failing link.
    let phys = PhysicalTopology::from_shape(
        &generators::line(4),
        std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(200), StorGb(100.0))),
        LinkSpec::new(Kbps(1000.0), Millis(20.0)),
        VmmOverhead::NONE,
    );
    let mut venv = VirtualEnvironment::new();
    // Four guests, one per host forced by memory; chain of links with a
    // 25 ms bound (one hop is 20 ms, two hops 40 ms: only adjacent hosts
    // can talk).
    let g: Vec<_> = (0..4)
        .map(|_| venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(150), StorGb(1.0))))
        .collect();
    venv.add_link(g[0], g[1], VLinkSpec::new(Kbps(10.0), Millis(25.0)));
    venv.add_link(g[0], g[2], VLinkSpec::new(Kbps(10.0), Millis(25.0)));
    venv.add_link(g[0], g[3], VLinkSpec::new(Kbps(10.0), Millis(25.0)));

    let mut rng = SmallRng::seed_from_u64(1);
    let err = Hmn::new().map(&phys, &venv, &mut rng);
    assert!(
        err.is_err(),
        "one guest per host makes some link span >= 2 hops"
    );

    // The worst pair (ends of the line) is provably latency-infeasible;
    // an adjacent pair is routable.
    let residual = ResidualState::new(&phys);
    let spec = VLinkSpec::new(Kbps(10.0), Millis(25.0));
    let verdict = |from: usize, to: usize| {
        diagnose_route(
            &phys,
            &residual,
            phys.hosts()[from],
            phys.hosts()[to],
            &spec,
        )
    };
    assert_eq!(
        verdict(0, 3),
        LinkVerdict::LatencyInfeasible {
            best_possible_ms: 60.0,
            bound_ms: 25.0
        }
    );
    assert_eq!(
        verdict(2, 3),
        LinkVerdict::Routable {
            best_possible_ms: 20.0,
            bound_ms: 25.0
        }
    );
}
