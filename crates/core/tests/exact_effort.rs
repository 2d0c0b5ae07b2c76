//! Pins the exact oracle's verdicts and search effort on fixed smoke
//! instances: status, the bit patterns of the certified lower bound and
//! the best objective, and every `ExactStats` counter. Any change to the
//! branch order, the bounds, the pruning rules or the truncation point
//! shows here, even where the verdict survives it.

use emumap_core::{solve_exact_with, BoundKind, ExactConfig, ExactOutcome, Hmn, MapCache, Mapper};
use emumap_model::{Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_workloads::oracle_smoke;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn describe(label: &str, out: &ExactOutcome) -> String {
    let s = &out.stats;
    format!(
        "{label} {:?} lb={:#x} best={} nodes={} pb={} pc={} pl={} ps={} leaves={} rfail={} wit={} sg={} bi={} plag={}",
        out.status,
        out.lower_bound.to_bits(),
        out.best
            .as_ref()
            .map_or("none".to_string(), |b| format!("{:#x}", b.objective.to_bits())),
        s.nodes_expanded,
        s.pruned_bound,
        s.pruned_capacity,
        s.pruned_latency,
        s.pruned_symmetry,
        s.leaf_routings,
        s.routing_failures,
        s.witnesses_accepted,
        s.subgradient_iters,
        s.bound_improvements,
        s.pruned_lagrangian,
    )
}

fn solve(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    bound: BoundKind,
    max_nodes: u64,
    witnesses: &[Mapping],
) -> ExactOutcome {
    let config = ExactConfig {
        bound,
        max_nodes,
        ..Default::default()
    };
    solve_exact_with(phys, venv, &config, &mut MapCache::new(), witnesses)
}

/// Seeds 0..16 cold at the benchmark's 500-node budget under both
/// bounds and at the default budget under the Lagrangian one, then
/// `emumap exact --smoke 2009`'s instance seeded with HMN's mapping, as
/// the CLI runs it.
fn golden_batch() -> Vec<String> {
    let full = ExactConfig::default().max_nodes;
    let mut out = Vec::new();
    for seed in 0..16 {
        let (phys, venv) = oracle_smoke(seed);
        for (label, bound, budget) in [
            ("lag/500", BoundKind::Lagrangian, 500),
            ("lag", BoundKind::Lagrangian, full),
            ("wf/500", BoundKind::Waterfill, 500),
        ] {
            let o = solve(&phys, &venv, bound, budget, &[]);
            out.push(describe(&format!("seed {seed} {label}"), &o));
        }
    }
    let (phys, venv) = oracle_smoke(2009);
    let hmn = Hmn::new()
        .map(&phys, &venv, &mut SmallRng::seed_from_u64(2009))
        .expect("HMN maps the smoke instance");
    for (label, bound) in [("lag", BoundKind::Lagrangian), ("wf", BoundKind::Waterfill)] {
        let o = solve(
            &phys,
            &venv,
            bound,
            full,
            std::slice::from_ref(&hmn.mapping),
        );
        out.push(describe(&format!("smoke 2009 {label}"), &o));
    }
    out
}

#[test]
fn exact_search_effort_is_pinned() {
    let actual = golden_batch();
    let table: String = actual.iter().map(|l| format!("    {l:?},\n")).collect();
    assert_eq!(actual, GOLDEN_EFFORT, "actual table:\n{table}");
}

const GOLDEN_EFFORT: &[&str] = &[
    "seed 0 lag/500 Optimal lb=0x401aecf37faaf3ae best=0x401aecf37faaf3ae nodes=117 pb=91 pc=0 pl=0 ps=16 leaves=4 rfail=0 wit=0 sg=202 bi=0 plag=0",
    "seed 0 lag Optimal lb=0x401aecf37faaf3ae best=0x401aecf37faaf3ae nodes=117 pb=91 pc=0 pl=0 ps=16 leaves=4 rfail=0 wit=0 sg=202 bi=0 plag=0",
    "seed 0 wf/500 Optimal lb=0x401aecf37faaf3ae best=0x401aecf37faaf3ae nodes=117 pb=91 pc=0 pl=0 ps=16 leaves=4 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 1 lag/500 Optimal lb=0x40235ab8aa6c1775 best=0x40235ab8aa6c1775 nodes=70 pb=52 pc=0 pl=0 ps=21 leaves=3 rfail=0 wit=0 sg=129 bi=2 plag=0",
    "seed 1 lag Optimal lb=0x40235ab8aa6c1775 best=0x40235ab8aa6c1775 nodes=70 pb=52 pc=0 pl=0 ps=21 leaves=3 rfail=0 wit=0 sg=129 bi=2 plag=0",
    "seed 1 wf/500 Optimal lb=0x40235ab8aa6c1775 best=0x40235ab8aa6c1775 nodes=70 pb=52 pc=0 pl=0 ps=21 leaves=3 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 2 lag/500 Optimal lb=0x401e1f300deb59f8 best=0x401e1f300deb59f8 nodes=70 pb=52 pc=0 pl=0 ps=21 leaves=3 rfail=0 wit=0 sg=135 bi=0 plag=0",
    "seed 2 lag Optimal lb=0x401e1f300deb59f8 best=0x401e1f300deb59f8 nodes=70 pb=52 pc=0 pl=0 ps=21 leaves=3 rfail=0 wit=0 sg=135 bi=0 plag=0",
    "seed 2 wf/500 Optimal lb=0x401e1f300deb59f8 best=0x401e1f300deb59f8 nodes=70 pb=52 pc=0 pl=0 ps=21 leaves=3 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 3 lag/500 Optimal lb=0x40314d0cce2f4ff0 best=0x40314d0cce2f4ff0 nodes=91 pb=68 pc=0 pl=0 ps=30 leaves=3 rfail=0 wit=0 sg=186 bi=0 plag=0",
    "seed 3 lag Optimal lb=0x40314d0cce2f4ff0 best=0x40314d0cce2f4ff0 nodes=91 pb=68 pc=0 pl=0 ps=30 leaves=3 rfail=0 wit=0 sg=186 bi=0 plag=0",
    "seed 3 wf/500 Optimal lb=0x40314d0cce2f4ff0 best=0x40314d0cce2f4ff0 nodes=91 pb=68 pc=0 pl=0 ps=30 leaves=3 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 4 lag/500 Optimal lb=0x4028bf9b5d1db05f best=0x4028bf9b5d1db05f nodes=99 pb=76 pc=0 pl=0 ps=28 leaves=2 rfail=0 wit=0 sg=205 bi=0 plag=0",
    "seed 4 lag Optimal lb=0x4028bf9b5d1db05f best=0x4028bf9b5d1db05f nodes=99 pb=76 pc=0 pl=0 ps=28 leaves=2 rfail=0 wit=0 sg=205 bi=0 plag=0",
    "seed 4 wf/500 Optimal lb=0x4028bf9b5d1db05f best=0x4028bf9b5d1db05f nodes=99 pb=76 pc=0 pl=0 ps=28 leaves=2 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 5 lag/500 Optimal lb=0x403189a5f18f43d0 best=0x403189a5f18f43d0 nodes=388 pb=310 pc=0 pl=0 ps=51 leaves=5 rfail=0 wit=0 sg=759 bi=6 plag=0",
    "seed 5 lag Optimal lb=0x403189a5f18f43d0 best=0x403189a5f18f43d0 nodes=388 pb=310 pc=0 pl=0 ps=51 leaves=5 rfail=0 wit=0 sg=759 bi=6 plag=0",
    "seed 5 wf/500 Optimal lb=0x403189a5f18f43d0 best=0x403189a5f18f43d0 nodes=388 pb=310 pc=0 pl=0 ps=51 leaves=5 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 6 lag/500 Optimal lb=0x4029c0b78ccc5dc3 best=0x4029c0b78ccc5dc3 nodes=70 pb=54 pc=0 pl=0 ps=15 leaves=2 rfail=0 wit=0 sg=126 bi=0 plag=0",
    "seed 6 lag Optimal lb=0x4029c0b78ccc5dc3 best=0x4029c0b78ccc5dc3 nodes=70 pb=54 pc=0 pl=0 ps=15 leaves=2 rfail=0 wit=0 sg=126 bi=0 plag=0",
    "seed 6 wf/500 Optimal lb=0x4029c0b78ccc5dc3 best=0x4029c0b78ccc5dc3 nodes=70 pb=54 pc=0 pl=0 ps=15 leaves=2 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 7 lag/500 Optimal lb=0x401d136422553f00 best=0x401d136422553f00 nodes=76 pb=59 pc=0 pl=0 ps=15 leaves=2 rfail=0 wit=0 sg=135 bi=4 plag=0",
    "seed 7 lag Optimal lb=0x401d136422553f00 best=0x401d136422553f00 nodes=76 pb=59 pc=0 pl=0 ps=15 leaves=2 rfail=0 wit=0 sg=135 bi=4 plag=0",
    "seed 7 wf/500 Optimal lb=0x401d136422553f00 best=0x401d136422553f00 nodes=76 pb=59 pc=0 pl=0 ps=15 leaves=2 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 8 lag/500 Optimal lb=0x4029cd15268e813c best=0x4029cd15268e813c nodes=46 pb=34 pc=0 pl=0 ps=15 leaves=2 rfail=0 wit=0 sg=78 bi=0 plag=0",
    "seed 8 lag Optimal lb=0x4029cd15268e813c best=0x4029cd15268e813c nodes=46 pb=34 pc=0 pl=0 ps=15 leaves=2 rfail=0 wit=0 sg=78 bi=0 plag=0",
    "seed 8 wf/500 Optimal lb=0x4029cd15268e813c best=0x4029cd15268e813c nodes=46 pb=34 pc=0 pl=0 ps=15 leaves=2 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 9 lag/500 Optimal lb=0x40263c485803fa1b best=0x40263c485803fa1b nodes=130 pb=101 pc=0 pl=0 ps=21 leaves=4 rfail=0 wit=0 sg=249 bi=4 plag=0",
    "seed 9 lag Optimal lb=0x40263c485803fa1b best=0x40263c485803fa1b nodes=130 pb=101 pc=0 pl=0 ps=21 leaves=4 rfail=0 wit=0 sg=249 bi=4 plag=0",
    "seed 9 wf/500 Optimal lb=0x40263c485803fa1b best=0x40263c485803fa1b nodes=130 pb=101 pc=0 pl=0 ps=21 leaves=4 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 10 lag/500 Optimal lb=0x401e5a1c93ce9d84 best=0x401e5a1c93ce9d84 nodes=160 pb=124 pc=0 pl=0 ps=27 leaves=5 rfail=0 wit=0 sg=297 bi=1 plag=0",
    "seed 10 lag Optimal lb=0x401e5a1c93ce9d84 best=0x401e5a1c93ce9d84 nodes=160 pb=124 pc=0 pl=0 ps=27 leaves=5 rfail=0 wit=0 sg=297 bi=1 plag=0",
    "seed 10 wf/500 Optimal lb=0x401e5a1c93ce9d84 best=0x401e5a1c93ce9d84 nodes=160 pb=124 pc=0 pl=0 ps=27 leaves=5 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 11 lag/500 Optimal lb=0x402203fe5d407e6c best=0x402203fe5d407e6c nodes=139 pb=108 pc=0 pl=0 ps=18 leaves=5 rfail=0 wit=0 sg=252 bi=1 plag=0",
    "seed 11 lag Optimal lb=0x402203fe5d407e6c best=0x402203fe5d407e6c nodes=139 pb=108 pc=0 pl=0 ps=18 leaves=5 rfail=0 wit=0 sg=252 bi=1 plag=0",
    "seed 11 wf/500 Optimal lb=0x402203fe5d407e6c best=0x402203fe5d407e6c nodes=139 pb=108 pc=0 pl=0 ps=18 leaves=5 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 12 lag/500 Optimal lb=0x402221ef3b05f384 best=0x402221ef3b05f384 nodes=102 pb=78 pc=0 pl=0 ps=25 leaves=3 rfail=0 wit=0 sg=211 bi=2 plag=0",
    "seed 12 lag Optimal lb=0x402221ef3b05f384 best=0x402221ef3b05f384 nodes=102 pb=78 pc=0 pl=0 ps=25 leaves=3 rfail=0 wit=0 sg=211 bi=2 plag=0",
    "seed 12 wf/500 Optimal lb=0x402221ef3b05f384 best=0x402221ef3b05f384 nodes=102 pb=78 pc=0 pl=0 ps=25 leaves=3 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 13 lag/500 Optimal lb=0x40221f68ce12ecc6 best=0x40221f68ce12ecc6 nodes=80 pb=61 pc=0 pl=0 ps=17 leaves=3 rfail=0 wit=0 sg=158 bi=0 plag=0",
    "seed 13 lag Optimal lb=0x40221f68ce12ecc6 best=0x40221f68ce12ecc6 nodes=80 pb=61 pc=0 pl=0 ps=17 leaves=3 rfail=0 wit=0 sg=158 bi=0 plag=0",
    "seed 13 wf/500 Optimal lb=0x40221f68ce12ecc6 best=0x40221f68ce12ecc6 nodes=80 pb=61 pc=0 pl=0 ps=17 leaves=3 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 14 lag/500 Optimal lb=0x40210f5404904a01 best=0x40210f5404904a01 nodes=155 pb=119 pc=0 pl=0 ps=32 leaves=5 rfail=0 wit=0 sg=335 bi=0 plag=0",
    "seed 14 lag Optimal lb=0x40210f5404904a01 best=0x40210f5404904a01 nodes=155 pb=119 pc=0 pl=0 ps=32 leaves=5 rfail=0 wit=0 sg=335 bi=0 plag=0",
    "seed 14 wf/500 Optimal lb=0x40210f5404904a01 best=0x40210f5404904a01 nodes=155 pb=119 pc=0 pl=0 ps=32 leaves=5 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "seed 15 lag/500 Optimal lb=0x4030223d7d0ba127 best=0x4030223d7d0ba127 nodes=118 pb=90 pc=0 pl=0 ps=21 leaves=5 rfail=0 wit=0 sg=213 bi=1 plag=0",
    "seed 15 lag Optimal lb=0x4030223d7d0ba127 best=0x4030223d7d0ba127 nodes=118 pb=90 pc=0 pl=0 ps=21 leaves=5 rfail=0 wit=0 sg=213 bi=1 plag=0",
    "seed 15 wf/500 Optimal lb=0x4030223d7d0ba127 best=0x4030223d7d0ba127 nodes=118 pb=90 pc=0 pl=0 ps=21 leaves=5 rfail=0 wit=0 sg=0 bi=0 plag=0",
    "smoke 2009 lag Optimal lb=0x40302c1c10e977f4 best=0x40302c1c10e977f4 nodes=134 pb=109 pc=0 pl=0 ps=17 leaves=0 rfail=0 wit=1 sg=303 bi=1 plag=0",
    "smoke 2009 wf Optimal lb=0x40302c1c10e977f4 best=0x40302c1c10e977f4 nodes=134 pb=109 pc=0 pl=0 ps=17 leaves=0 rfail=0 wit=1 sg=0 bi=0 plag=0",
];
