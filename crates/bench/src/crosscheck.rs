//! Differential cross-checking of heuristic trials against the exact
//! branch-and-bound oracle.
//!
//! A batch grid produces, per instance, a set of heuristic mappings. On
//! instances small enough for the oracle ([`CrossCheck::applies`]), those
//! mappings become the oracle's *witnesses* and the oracle's verdict
//! becomes a certificate the trial results must agree with:
//!
//! 1. every successful mapping must pass `validate_mapping` (Eqs. 1–9);
//! 2. the oracle must not report infeasible when any heuristic succeeded;
//! 3. no heuristic objective may undercut the certified lower bound.
//!
//! Any disagreement is a bug in either the heuristic, the validator, or
//! the oracle — exactly the class of defect differential testing exists
//! to catch. The check is wired into `emumap batch --exact-check N`.

use emumap_core::exact::EPSILON;
use emumap_core::{solve_exact_with, ExactConfig, ExactOutcome, ExactStatus, MapCache};
use emumap_model::{validate_mapping, Mapping, PhysicalTopology, VirtualEnvironment};
use serde::{Deserialize, Serialize};

/// A heuristic trial result offered for certification: the mapper's name
/// (for disagreement messages), its Eq. 10 objective, and its mapping.
#[derive(Clone, Debug)]
pub struct TrialWitness {
    /// Mapper name ("HMN", "SA", ...).
    pub mapper: String,
    /// The objective the harness recorded for the mapping.
    pub objective: f64,
    /// The mapping itself.
    pub mapping: Mapping,
}

/// Size-gated oracle cross-check for batch grids.
#[derive(Clone, Copy, Debug)]
pub struct CrossCheck {
    /// Only instances with at most this many guests are cross-checked
    /// (the oracle is exponential in the guest count).
    pub max_guests: usize,
    /// Oracle configuration.
    pub config: ExactConfig,
}

impl Default for CrossCheck {
    fn default() -> Self {
        CrossCheck {
            max_guests: 10,
            config: ExactConfig::default(),
        }
    }
}

/// The outcome of certifying one instance's trials.
#[derive(Debug)]
pub struct CrossCheckReport {
    /// The oracle's verdict (with the trials as witnesses).
    pub outcome: ExactOutcome,
    /// Human-readable disagreements; empty means the instance certifies.
    pub disagreements: Vec<String>,
    /// Empirical approximation ratios — one `(mapper, objective ÷
    /// certified optimum)` pair per trial, in trial order. Populated only
    /// when the oracle proved [`ExactStatus::Optimal`]; a zero-objective
    /// optimum (perfect balance) yields ratio 1.0 for trials that also
    /// reach zero and `f64::INFINITY` otherwise.
    pub ratios: Vec<(String, f64)>,
    /// Trials whose objective entered the ratio population (all of them
    /// when the oracle proved Optimal, none otherwise).
    pub certified_trials: usize,
    /// Trials *silently excluded* from the ratios because the oracle
    /// truncated. Reported so a Truncated-heavy run cannot masquerade as
    /// a well-certified one.
    pub truncated_trials: usize,
}

impl CrossCheckReport {
    /// `true` when every trial agreed with the oracle.
    pub fn ok(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// Mean approximation ratio of the named mapper over this report's
    /// certified trials (`None` when nothing certified for it).
    pub fn mean_ratio(&self, mapper: &str) -> Option<f64> {
        let of: Vec<f64> = self
            .ratios
            .iter()
            .filter(|(m, _)| m == mapper)
            .map(|&(_, r)| r)
            .collect();
        (!of.is_empty()).then(|| of.iter().sum::<f64>() / of.len() as f64)
    }
}

impl CrossCheck {
    /// A cross-check with the given guest-count cutoff.
    pub fn new(max_guests: usize) -> Self {
        CrossCheck {
            max_guests,
            ..Default::default()
        }
    }

    /// Whether this instance is small enough to certify.
    pub fn applies(&self, venv: &VirtualEnvironment) -> bool {
        venv.guest_count() <= self.max_guests
    }

    /// Runs the oracle with `trials` as witnesses and checks the three
    /// differential invariants. Call only when [`applies`](Self::applies).
    pub fn certify(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        trials: &[TrialWitness],
        cache: &mut MapCache,
    ) -> CrossCheckReport {
        let mut disagreements = Vec::new();

        // Invariant 1: every accepted mapping validates.
        for t in trials {
            if let Err(violations) = validate_mapping(phys, venv, &t.mapping) {
                for v in violations {
                    disagreements.push(format!("{}: invalid mapping: {v}", t.mapper));
                }
            }
        }

        let witnesses: Vec<Mapping> = trials.iter().map(|t| t.mapping.clone()).collect();
        let outcome = solve_exact_with(phys, venv, &self.config, cache, &witnesses);

        // Invariant 2: a success refutes infeasibility. (Structural when
        // the witness validated — so a hit here doubles as a validator /
        // oracle disagreement.)
        if outcome.status == ExactStatus::Infeasible && !trials.is_empty() {
            disagreements.push(format!(
                "oracle reports infeasible but {} mapper(s) succeeded",
                trials.len()
            ));
        }

        // Invariant 3: nobody beats the certified lower bound.
        if outcome.lower_bound.is_finite() {
            for t in trials {
                if t.objective < outcome.lower_bound - EPSILON {
                    disagreements.push(format!(
                        "{}: objective {} undercuts the certified lower bound {}",
                        t.mapper, t.objective, outcome.lower_bound
                    ));
                }
            }
        }

        // A certified optimum turns every witness objective into an
        // empirical approximation ratio — the quantity CI gates for the
        // randomized-rounding mapper.
        let mut ratios = Vec::new();
        if outcome.status == ExactStatus::Optimal {
            if let Some(best) = &outcome.best {
                for t in trials {
                    let ratio = if best.objective > EPSILON {
                        t.objective / best.objective
                    } else if t.objective <= EPSILON {
                        1.0
                    } else {
                        f64::INFINITY
                    };
                    ratios.push((t.mapper.clone(), ratio));
                }
            }
        }

        let certified_trials = ratios.len();
        let truncated_trials = if outcome.status == ExactStatus::Truncated {
            trials.len()
        } else {
            0
        };
        CrossCheckReport {
            outcome,
            disagreements,
            ratios,
            certified_trials,
            truncated_trials,
        }
    }
}

/// A serializable snapshot of an oracle verdict for bench reports
/// (`BENCH_oracle.json`): status, incumbent, bound, gap and the headline
/// effort counters. Non-finite floats (an infinite bound on a certified-
/// infeasible instance, a missing incumbent) map to `None`, so the JSON
/// round-trips byte-stably — `serde_json` cannot represent `inf`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OracleVerdict {
    /// The oracle's status (`Optimal` / `Infeasible` / `Truncated`).
    pub status: ExactStatus,
    /// Best feasible objective found, if any.
    pub incumbent: Option<f64>,
    /// Certified lower bound; `None` encodes the infinite bound of a
    /// certified-infeasible instance.
    pub lower_bound: Option<f64>,
    /// `incumbent − lower_bound` when both are finite: the width of the
    /// certified interval (0 for Optimal up to `EPSILON`).
    pub gap: Option<f64>,
    /// Search nodes expanded.
    pub nodes_expanded: u64,
    /// Lagrangian dual evaluations (0 under the water-filling bound).
    pub subgradient_iters: u64,
}

impl From<&ExactOutcome> for OracleVerdict {
    fn from(outcome: &ExactOutcome) -> Self {
        let incumbent = outcome.best.as_ref().map(|b| b.objective);
        let lower_bound = outcome
            .lower_bound
            .is_finite()
            .then_some(outcome.lower_bound);
        let gap = match (incumbent, lower_bound) {
            (Some(ub), Some(lb)) => Some((ub - lb).max(0.0)),
            _ => None,
        };
        OracleVerdict {
            status: outcome.status,
            incumbent,
            lower_bound,
            gap,
            nodes_expanded: outcome.stats.nodes_expanded,
            subgradient_iters: outcome.stats.subgradient_iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_core::parallel::ParallelRunner;
    use emumap_core::{Hmn, Mapper};
    use emumap_model::Route;
    use emumap_workloads::oracle_smoke;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn applies_is_a_guest_count_gate() {
        let (_, venv) = oracle_smoke(1);
        assert!(CrossCheck::new(8).applies(&venv));
        assert!(!CrossCheck::new(7).applies(&venv));
    }

    #[test]
    fn hmn_certifies_on_the_smoke_instance() {
        let (phys, venv) = oracle_smoke(2009);
        let mut rng = SmallRng::seed_from_u64(0);
        let out = Hmn::new().map(&phys, &venv, &mut rng).expect("HMN maps");
        let trials = vec![TrialWitness {
            mapper: "HMN".into(),
            objective: out.objective,
            mapping: out.mapping,
        }];
        let report = CrossCheck::default().certify(&phys, &venv, &trials, &mut MapCache::new());
        assert!(report.ok(), "disagreements: {:?}", report.disagreements);
        assert!(report.outcome.best.is_some());
        let best = report.outcome.best.as_ref().unwrap();
        assert!(best.objective <= trials[0].objective + EPSILON);
    }

    #[test]
    fn optimal_certification_reports_approximation_ratios() {
        use emumap_core::RandomizedRounding;
        let (phys, venv) = oracle_smoke(2009);
        let mut trials = Vec::new();
        for mapper in [
            Box::new(Hmn::new()) as Box<dyn Mapper>,
            Box::new(RandomizedRounding::new()),
        ] {
            let mut rng = SmallRng::seed_from_u64(7);
            let out = mapper.map(&phys, &venv, &mut rng).expect("smoke maps");
            trials.push(TrialWitness {
                mapper: mapper.name().to_string(),
                objective: out.objective,
                mapping: out.mapping,
            });
        }
        let report = CrossCheck::default().certify(&phys, &venv, &trials, &mut MapCache::new());
        assert!(report.ok(), "disagreements: {:?}", report.disagreements);
        assert_eq!(report.outcome.status, ExactStatus::Optimal);
        assert_eq!(report.ratios.len(), trials.len());
        for (mapper, ratio) in &report.ratios {
            assert!(
                *ratio >= 1.0 - EPSILON,
                "{mapper} ratio {ratio} below 1.0: beats the certified optimum"
            );
        }
        let rr = report.mean_ratio("RR").expect("RR certified");
        assert!(rr.is_finite());
        assert!(report.mean_ratio("nope").is_none());
    }

    #[test]
    fn corrupted_witness_is_reported() {
        let (phys, venv) = oracle_smoke(7);
        let mut rng = SmallRng::seed_from_u64(0);
        let out = Hmn::new().map(&phys, &venv, &mut rng).expect("HMN maps");
        // Break Eq. 1: drop the last guest from the placement.
        let mut placement = out.mapping.placement().to_vec();
        placement.pop();
        let routes: Vec<Route> = out.mapping.routes().to_vec();
        let corrupt = Mapping::new(placement, routes);
        let trials = vec![TrialWitness {
            mapper: "HMN".into(),
            objective: out.objective,
            mapping: corrupt,
        }];
        let report = CrossCheck::default().certify(&phys, &venv, &trials, &mut MapCache::new());
        assert!(!report.ok());
        assert!(report.disagreements[0].contains("invalid mapping"));
        // The corrupt witness must NOT have been fed to the oracle as an
        // incumbent.
        assert_eq!(report.outcome.stats.witnesses_accepted, 0);
    }

    #[test]
    fn truncated_runs_report_their_excluded_trials() {
        // A 1-node budget cannot complete any search: every witness must
        // land in `truncated_trials`, none in the ratio population.
        let (phys, venv) = oracle_smoke(2009);
        let mut rng = SmallRng::seed_from_u64(0);
        let out = Hmn::new().map(&phys, &venv, &mut rng).expect("HMN maps");
        let trials = vec![TrialWitness {
            mapper: "HMN".into(),
            objective: out.objective,
            mapping: out.mapping,
        }];
        let check = CrossCheck {
            config: ExactConfig {
                max_nodes: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = check.certify(&phys, &venv, &trials, &mut MapCache::new());
        assert_eq!(report.outcome.status, ExactStatus::Truncated);
        assert_eq!(report.certified_trials, 0);
        assert_eq!(report.truncated_trials, 1);
        assert!(report.ratios.is_empty());
        assert!(report.mean_ratio("HMN").is_none(), "no inflated mean ratio");
        // And on an instance the oracle does complete, the counts flip.
        let full = CrossCheck::default().certify(&phys, &venv, &trials, &mut MapCache::new());
        assert_eq!(full.outcome.status, ExactStatus::Optimal);
        assert_eq!(full.certified_trials, 1);
        assert_eq!(full.truncated_trials, 0);
    }

    #[test]
    fn oracle_verdicts_round_trip_byte_stably() {
        // Satellite contract: BENCH_oracle.json diffs are only meaningful
        // if serialize(deserialize(json)) == json for every status.
        let (phys, venv) = oracle_smoke(2009);
        let mut rng = SmallRng::seed_from_u64(0);
        let out = Hmn::new().map(&phys, &venv, &mut rng).expect("HMN maps");
        let trials = vec![TrialWitness {
            mapper: "HMN".into(),
            objective: out.objective,
            mapping: out.mapping,
        }];
        let mut verdicts = Vec::new();
        // Optimal (full run) and Truncated (1-node budget) from real runs…
        for max_nodes in [u64::MAX, 1] {
            let check = CrossCheck {
                config: ExactConfig {
                    max_nodes,
                    ..Default::default()
                },
                ..Default::default()
            };
            let report = check.certify(&phys, &venv, &trials, &mut MapCache::new());
            verdicts.push(OracleVerdict::from(&report.outcome));
        }
        // …and Infeasible from a real certified-infeasible instance (the
        // infinite bound must encode as null, not break the JSON).
        {
            use emumap_model::{GuestSpec, MemMb, Mips, StorGb};
            let mut huge = VirtualEnvironment::new();
            huge.add_guest(GuestSpec::new(Mips(1.0), MemMb(1 << 40), StorGb(1.0)));
            let outcome = solve_exact_with(
                &phys,
                &huge,
                &ExactConfig::default(),
                &mut MapCache::new(),
                &[],
            );
            assert_eq!(outcome.status, ExactStatus::Infeasible);
            verdicts.push(OracleVerdict::from(&outcome));
        }
        let statuses: Vec<ExactStatus> = verdicts.iter().map(|v| v.status).collect();
        assert_eq!(
            statuses,
            [
                ExactStatus::Optimal,
                ExactStatus::Truncated,
                ExactStatus::Infeasible
            ]
        );
        for v in &verdicts {
            let json = serde_json::to_string(v).expect("serialize verdict");
            let back: OracleVerdict = serde_json::from_str(&json).expect("parse verdict");
            assert_eq!(&back, v);
            let json2 = serde_json::to_string(&back).expect("re-serialize verdict");
            assert_eq!(json, json2, "verdict JSON must be byte-stable");
        }
        let infeasible = &verdicts[2];
        assert_eq!(infeasible.lower_bound, None);
        assert_eq!(infeasible.incumbent, None);
        let optimal = &verdicts[0];
        assert!(optimal.gap.expect("finite gap") <= EPSILON);
    }

    #[test]
    fn certification_fans_out_over_the_parallel_runner() {
        // One certify per seed, each on a worker with its own warm cache —
        // the shape `batch --exact-check` uses.
        let runner = ParallelRunner::new(2);
        let seeds: Vec<u64> = (0..4).collect();
        let reports = runner.run(seeds, |seed, cache| {
            let (phys, venv) = oracle_smoke(seed);
            let mut rng = SmallRng::seed_from_u64(seed);
            let trials: Vec<TrialWitness> = Hmn::new()
                .map_with_cache(&phys, &venv, &mut rng, cache)
                .ok()
                .map(|o| TrialWitness {
                    mapper: "HMN".into(),
                    objective: o.objective,
                    mapping: o.mapping,
                })
                .into_iter()
                .collect();
            let report = CrossCheck::default().certify(&phys, &venv, &trials, cache);
            (report.ok(), report.disagreements)
        });
        for (ok, disagreements) in reports {
            assert!(ok, "disagreements: {disagreements:?}");
        }
    }
}
