//! `oracle-smoke`: the exact branch-and-bound oracle with its default
//! configuration (Lagrangian bound, sequential search) at one fixed node
//! budget, on the memory-tight 6-host ring family plus
//! `emumap_workloads::oracle_smoke`.

use crate::measure::{timed, Digest, Layers, Run};
use emumap_core::{
    solve_exact_with, ExactConfig, ExactOutcome, ExactStatus, Hmn, MapCache, Mapper,
};
use emumap_graph::generators;
use emumap_model::{
    validate_mapping, GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology,
    StorGb, VLinkSpec, VirtualEnvironment, VmmOverhead,
};
use emumap_workloads::oracle_smoke;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Instances of each family per pass. A run pools the solves of all its
/// passes, so its latency tail rests on thousands of samples.
const TIGHT_INSTANCES: u64 = 500;
const SMOKE_INSTANCES: u64 = 500;
/// The node budget every solve gets.
const NODE_BUDGET: u64 = 500;
const EPSILON: f64 = 1e-9;

struct Instance {
    hosts: Vec<HostSpec>,
    phys: PhysicalTopology,
    venv: VirtualEnvironment,
    /// HMN's objective on the same instance, when HMN maps it.
    hmn_objective: Option<f64>,
}

pub struct OracleWorkload {
    instances: Vec<Instance>,
    config: ExactConfig,
}

/// A ring over `hosts` with the links both oracle families use.
fn ring(hosts: &[HostSpec]) -> PhysicalTopology {
    PhysicalTopology::from_shape(
        &generators::ring(hosts.len()),
        hosts.iter().copied(),
        LinkSpec::new(Kbps(10_000.0), Millis(5.0)),
        VmmOverhead::NONE,
    )
}

/// A 6-host ring of 1 GB hosts and six ~900 MB guests, so each host takes
/// exactly one guest and the search runs over perfect matchings.
/// Heterogeneous CPUs make the matchings' objectives differ; a virtual
/// chain adds bandwidth and latency coupling.
fn tight_smoke(seed: u64) -> (Vec<HostSpec>, VirtualEnvironment) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6f72_6163_6c65);
    let hosts: Vec<HostSpec> = (0..6)
        .map(|_| {
            HostSpec::new(
                Mips(rng.gen_range(1000.0..4000.0)),
                MemMb(1024),
                StorGb(2000.0),
            )
        })
        .collect();
    let mut venv = VirtualEnvironment::new();
    let guests: Vec<_> = (0..6)
        .map(|_| {
            venv.add_guest(GuestSpec::new(
                Mips(rng.gen_range(100.0..1200.0)),
                MemMb(rng.gen_range(850..=950)),
                StorGb(rng.gen_range(10.0..50.0)),
            ))
        })
        .collect();
    for pair in guests.windows(2) {
        venv.add_link(
            pair[0],
            pair[1],
            VLinkSpec::new(
                Kbps(rng.gen_range(200.0..800.0)),
                Millis(rng.gen_range(20.0..40.0)),
            ),
        );
    }
    (hosts, venv)
}

pub fn oracle(seed: u64) -> OracleWorkload {
    let base = seed.wrapping_mul(1000);
    let mut drawn: Vec<(Vec<HostSpec>, VirtualEnvironment)> = (0..TIGHT_INSTANCES)
        .map(|i| tight_smoke(base + i))
        .collect();
    for i in 0..SMOKE_INSTANCES {
        let (phys, venv) = oracle_smoke(base + i);
        let hosts = phys.hosts().iter().map(|&h| *phys.host_spec(h)).collect();
        drawn.push((hosts, venv));
    }
    let instances = drawn
        .into_iter()
        .map(|(hosts, venv)| {
            let phys = ring(&hosts);
            let hmn_objective = Hmn::new()
                .map(&phys, &venv, &mut SmallRng::seed_from_u64(seed))
                .ok()
                .map(|o| o.objective);
            Instance {
                hosts,
                phys,
                venv,
                hmn_objective,
            }
        })
        .collect();
    OracleWorkload {
        instances,
        config: ExactConfig {
            max_nodes: NODE_BUDGET,
            ..ExactConfig::default()
        },
    }
}

impl OracleWorkload {
    /// Times the set-up a pass depends on: building every instance's
    /// cluster.
    pub fn setup(&self, run: &mut Run) {
        run.time_setup(|| {
            self.instances
                .iter()
                .map(|inst| ring(&inst.hosts))
                .collect::<Vec<_>>()
        });
    }

    /// One pass: every instance solved once, each solve timed. Traced
    /// passes also fold each solve's returned stats into the layers.
    pub fn pass(&self, run: &mut Run, cache: &mut MapCache, traced: bool) {
        let mut pass_s = 0.0;
        if !traced {
            run.begin_pass(self.instances.len());
        }
        let outcomes: Vec<ExactOutcome> = self
            .instances
            .iter()
            .map(|inst| {
                let solve = || solve_exact_with(&inst.phys, &inst.venv, &self.config, cache, &[]);
                if traced {
                    let (outcome, ms) = timed(solve);
                    pass_s += ms / 1e3;
                    fold_stats(&outcome, ms / 1e3, &mut run.layers);
                    outcome
                } else {
                    run.op(solve).0
                }
            })
            .collect();
        if traced {
            run.layers.traced_pass_s.push(pass_s);
            run.layers.passes += 1;
            return;
        }
        run.end_pass();

        let mut digest = Digest::default();
        for (inst, outcome) in self.instances.iter().zip(&outcomes) {
            run.attempted += 1;
            run.completed += 1;
            // Success is a certified verdict, so a weaker bound that
            // certifies fewer instances within the budget shows end to end.
            if matches!(
                outcome.status,
                ExactStatus::Optimal | ExactStatus::Infeasible
            ) {
                run.succeeded += 1;
            }
            digest.str(&format!("{:?}", outcome.status));
            digest.f64(outcome.lower_bound);
            digest.u64(outcome.stats.nodes_expanded);
            if let Some(best) = &outcome.best {
                run.objectives.push(best.objective);
                digest.mapping(&best.mapping);
                digest.f64(best.objective);
                let valid = validate_mapping(&inst.phys, &inst.venv, &best.mapping);
                run.check(valid.is_ok(), || {
                    format!("oracle mapping violates Eqs. 1-9: {valid:?}")
                });
            }
            if let (ExactStatus::Optimal, Some(best), Some(hmn)) =
                (outcome.status, &outcome.best, inst.hmn_objective)
            {
                run.check(best.objective <= hmn + EPSILON, || {
                    format!("certified optimum {} above HMN's {hmn}", best.objective)
                });
            }
        }
        run.pass_digest(digest);
    }
}

fn fold_stats(outcome: &ExactOutcome, seconds: f64, layers: &mut Layers) {
    let s = &outcome.stats;
    layers.add("exact.time_s", seconds);
    layers.add("exact.nodes_expanded", s.nodes_expanded as f64);
    layers.add("exact.pruned", s.pruned_total() as f64);
    layers.add("exact.leaf_routings", s.leaf_routings as f64);
    layers.add("exact.routing_failures", s.routing_failures as f64);
    layers.add("lagrangian.subgradient_iters", s.subgradient_iters as f64);
    layers.add("lagrangian.pruned", s.pruned_lagrangian as f64);
    layers.add("lagrangian.bound_improvements", s.bound_improvements as f64);
}
