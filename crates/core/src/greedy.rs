//! Classical bin-packing placement strategies combined with A\*Prune
//! routing — the "pool of different heuristics" the paper's future work
//! calls for (§6). They give adopters standard reference points around
//! HMN:
//!
//! * [`FirstFitDecreasing`] — guests by descending memory, first host that
//!   fits (the textbook packing heuristic; also what the feasibility
//!   precheck certifies);
//! * [`BestFit`] — guest goes to the feasible host with the *least*
//!   leftover memory (consolidation-flavoured);
//! * [`WorstFit`] — guest goes to the feasible host with the *most*
//!   residual CPU (pure load-balancing greedy, no affinity and no
//!   migration — a useful ablation of what Hosting's affinity actually
//!   buys).
//!
//! All three route with the Networking stage (descending-bandwidth
//! A\*Prune), so differences between them and HMN isolate the placement
//! policy.

use crate::astar_prune::AStarPruneConfig;
use crate::cache::MapCache;
use crate::error::MapError;
use crate::hosting::links_by_descending_bw;
use crate::mapper::{MapOutcome, Mapper};
use crate::networking::networking_stage;
use crate::recorder::record_map;
use crate::state::PlacementState;
use emumap_graph::NodeId;
use emumap_model::{FeasBitset, GuestId, Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters};
use rand::RngCore;

/// Which greedy placement rule to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    FirstFitDecreasing,
    BestFit,
    WorstFit,
}

fn place_greedy(state: &mut PlacementState<'_>, rule: Rule) -> Result<(), MapError> {
    let venv = state.venv();
    // FFD and BestFit order guests by descending memory (the binding
    // resource); WorstFit orders by descending CPU demand (it balances
    // CPU).
    let mut guests: Vec<GuestId> = venv.guest_ids().collect();
    match rule {
        Rule::FirstFitDecreasing | Rule::BestFit => guests.sort_by(|&a, &b| {
            venv.guest(b)
                .mem
                .cmp(&venv.guest(a).mem)
                .then_with(|| {
                    venv.guest(b)
                        .stor
                        .partial_cmp(&venv.guest(a).stor)
                        .expect("finite")
                })
                .then(a.cmp(&b))
        }),
        Rule::WorstFit => guests.sort_by(|&a, &b| {
            venv.guest(b)
                .proc
                .partial_cmp(&venv.guest(a).proc)
                .expect("finite")
                .then(a.cmp(&b))
        }),
    }

    // Candidate filtering runs over the SoA residual columns: one
    // branch-light `fill_feasible` pass marks every feasible host slot,
    // then the rule-specific selection scans only the set bits. This
    // replaces a per-host `fits` call chain with two linear passes over
    // dense columns.
    let mut feasible = FeasBitset::new();
    for g in guests {
        let spec = venv.guest(g);
        let r = state.residual();
        r.fill_feasible(spec, &mut feasible);
        let chosen: Option<NodeId> = match rule {
            // Smallest host id; first fit.
            Rule::FirstFitDecreasing => feasible.iter_ones().map(|s| r.host_at(s)).min(),
            // Tightest memory fit; smaller id on ties.
            Rule::BestFit => {
                let mem = r.mem_column();
                feasible
                    .iter_ones()
                    .map(|s| (mem[s], r.host_at(s)))
                    .min()
                    .map(|(_, h)| h)
            }
            // Most residual CPU; smaller id on ties.
            Rule::WorstFit => {
                let proc = r.proc_column();
                feasible
                    .iter_ones()
                    .map(|s| (proc[s], r.host_at(s)))
                    .fold(None, |best: Option<(f64, NodeId)>, (p, h)| match best {
                        Some((bp, bh)) if p < bp || (p == bp && bh < h) => Some((bp, bh)),
                        _ => Some((p, h)),
                    })
                    .map(|(_, h)| h)
            }
        };
        let host = chosen.ok_or(MapError::HostingFailed { guest: g })?;
        state.assign(g, host).expect("candidate verified");
    }
    Ok(())
}

fn run_greedy_with(
    rule: Rule,
    name: &'static str,
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    cache: &mut MapCache,
) -> Result<MapOutcome, MapError> {
    record_map(name, phys, venv, cache, |rec, cache| {
        let mut state = PlacementState::new(phys, venv);
        rec.phase(cache, Phase::Hosting, |_| {
            (place_greedy(&mut state, rule), PhaseCounters::default())
        })?;
        let links = links_by_descending_bw(venv);
        let routes = rec.phase(cache, Phase::Networking, |cache| {
            networking_stage(&mut state, &links, &AStarPruneConfig::default(), cache)
        })?;
        Ok(Mapping::new(state.into_placement(), routes))
    })
}

macro_rules! greedy_mapper {
    ($(#[$meta:meta])* $name:ident, $rule:expr, $label:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default)]
        pub struct $name;

        impl Mapper for $name {
            fn name(&self) -> &str {
                $label
            }

            fn map_with_cache(
                &self,
                phys: &PhysicalTopology,
                venv: &VirtualEnvironment,
                _rng: &mut dyn RngCore,
                cache: &mut MapCache,
            ) -> Result<MapOutcome, MapError> {
                run_greedy_with($rule, $label, phys, venv, cache)
            }
        }
    };
}

greedy_mapper!(
    /// First-fit-decreasing placement (by memory) + A\*Prune routing.
    FirstFitDecreasing,
    Rule::FirstFitDecreasing,
    "FFD"
);
greedy_mapper!(
    /// Best-fit placement (tightest memory) + A\*Prune routing.
    BestFit,
    Rule::BestFit,
    "BF"
);
greedy_mapper!(
    /// Worst-fit placement (most residual CPU) + A\*Prune routing.
    WorstFit,
    Rule::WorstFit,
    "WF"
);

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{
        validate_mapping, GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, StorGb,
        VLinkSpec, VmmOverhead,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn phys() -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::torus2d(3, 4),
            std::iter::repeat(HostSpec::new(
                Mips(2000.0),
                MemMb::from_gb(2),
                StorGb(2000.0),
            )),
            LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    fn venv(n: usize) -> VirtualEnvironment {
        let mut v = VirtualEnvironment::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                v.add_guest(GuestSpec::new(
                    Mips(50.0 + i as f64),
                    MemMb(128 + (i as u64 * 13) % 128),
                    StorGb(100.0),
                ))
            })
            .collect();
        for w in ids.windows(2) {
            v.add_link(w[0], w[1], VLinkSpec::new(Kbps(500.0), Millis(45.0)));
        }
        v
    }

    #[test]
    fn all_greedy_mappers_produce_valid_mappings() {
        let p = phys();
        let v = venv(20);
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(FirstFitDecreasing),
            Box::new(BestFit),
            Box::new(WorstFit),
        ];
        for m in mappers {
            let mut rng = SmallRng::seed_from_u64(1);
            let out = m
                .map(&p, &v, &mut rng)
                .unwrap_or_else(|e| panic!("{} failed: {e}", m.name()));
            assert_eq!(
                validate_mapping(&p, &v, &out.mapping),
                Ok(()),
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn ffd_packs_fewer_hosts_than_worst_fit() {
        let p = phys();
        let v = venv(20);
        let mut rng = SmallRng::seed_from_u64(1);
        let ffd = FirstFitDecreasing.map(&p, &v, &mut rng).unwrap();
        let wf = WorstFit.map(&p, &v, &mut rng).unwrap();
        assert!(ffd.mapping.hosts_used() <= wf.mapping.hosts_used());
    }

    #[test]
    fn worst_fit_balances_better_than_ffd() {
        let p = phys();
        let v = venv(24);
        let mut rng = SmallRng::seed_from_u64(1);
        let ffd = FirstFitDecreasing.map(&p, &v, &mut rng).unwrap();
        let wf = WorstFit.map(&p, &v, &mut rng).unwrap();
        assert!(
            wf.objective <= ffd.objective,
            "worst-fit ({}) should balance at least as well as FFD ({})",
            wf.objective,
            ffd.objective
        );
    }

    #[test]
    fn best_fit_is_deterministic() {
        let p = phys();
        let v = venv(15);
        let a = BestFit
            .map(&p, &v, &mut SmallRng::seed_from_u64(1))
            .unwrap();
        let b = BestFit
            .map(&p, &v, &mut SmallRng::seed_from_u64(999))
            .unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn greedy_failure_is_typed() {
        let p = PhysicalTopology::from_shape(
            &generators::line(2),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(64), StorGb(10.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut v = VirtualEnvironment::new();
        v.add_guest(GuestSpec::new(Mips(1.0), MemMb(1024), StorGb(1.0)));
        let mut rng = SmallRng::seed_from_u64(1);
        let err = FirstFitDecreasing.map(&p, &v, &mut rng).unwrap_err();
        assert!(matches!(err, MapError::HostingFailed { .. }));
    }
}
