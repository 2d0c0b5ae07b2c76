//! The **mapper registry** — the single place a mapper is registered.
//!
//! Every harness surface that enumerates mappers derives its list from
//! [`MAPPERS`]: the CLI's `--mapper` parsing and usage text, `batch
//! --mapper all`, the bench harness's `MapperKind`, `compare` tables,
//! and `serve`. Adding a mapper means adding **one** [`MapperEntry`]
//! here; every call site picks it up.
//!
//! ```
//! use emumap_core::{build_mapper, MapperConfig};
//! let rr = build_mapper("rr", &MapperConfig::default()).unwrap();
//! assert_eq!(rr.name(), "RR");
//! ```

use crate::annealing::Annealing;
use crate::consolidation::ConsolidatingHmn;
use crate::greedy::{BestFit, FirstFitDecreasing, WorstFit};
use crate::hmn::Hmn;
use crate::ksp_routing::HmnKsp;
use crate::mapper::Mapper;
use crate::pool::{HeuristicPool, PoolPolicy};
use crate::random::{HostingDfs, RandomAStar, RandomDfs, DEFAULT_MAX_ATTEMPTS};
use crate::rounding::{RandomizedRounding, RoundingConfig};
use crate::tempering::ParallelTempering;

/// Shared knobs a registry constructor may consume. One struct (instead
/// of per-mapper argument lists) keeps the constructor signature uniform
/// so the whole family fits behind one `fn(&MapperConfig)` pointer.
#[derive(Clone, Copy, Debug)]
pub struct MapperConfig {
    /// Retry budget for the attempt-based mappers (R, RA, HS, RR).
    pub max_attempts: usize,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }
}

/// One registered mapper: its CLI key, report label, a one-line doc
/// (the source of truth for README/usage tables), and a constructor.
pub struct MapperEntry {
    /// CLI key (`--mapper <key>`), lowercase.
    pub key: &'static str,
    /// Report label — exactly what [`Mapper::name`] returns.
    pub label: &'static str,
    /// One-line description, surfaced in docs and usage listings.
    pub doc: &'static str,
    /// Constructor from the shared config.
    pub build: fn(&MapperConfig) -> Box<dyn Mapper>,
}

impl MapperEntry {
    /// Position of this entry in [`MAPPERS`] — the stable per-mapper
    /// index harnesses fold into derived seeds.
    pub fn index(&self) -> usize {
        MAPPERS
            .iter()
            .position(|e| std::ptr::eq(e, self))
            .expect("entry comes from MAPPERS")
    }
}

/// The registry. THE single mapper-registration site in the workspace —
/// the paper's four mappers first (their positions are folded into
/// derived seeds, so the prefix order is load-bearing), then the
/// extensions in the order they were added.
pub static MAPPERS: &[MapperEntry] = &[
    MapperEntry {
        key: "hmn",
        label: "HMN",
        doc: "the paper's Hosting-Migration-Networking heuristic (deterministic)",
        build: |_| Box::new(Hmn::new()),
    },
    MapperEntry {
        key: "r",
        label: "R",
        doc: "random placement + naive DFS routing (paper baseline)",
        build: |c| {
            Box::new(RandomDfs {
                max_attempts: c.max_attempts,
            })
        },
    },
    MapperEntry {
        key: "ra",
        label: "RA",
        doc: "random placement + A*Prune routing (paper baseline)",
        build: |c| {
            Box::new(RandomAStar {
                max_attempts: c.max_attempts,
            })
        },
    },
    MapperEntry {
        key: "hs",
        label: "HS",
        doc: "Hosting placement + naive DFS routing (paper baseline)",
        build: |c| {
            Box::new(HostingDfs {
                max_attempts: c.max_attempts,
            })
        },
    },
    MapperEntry {
        key: "ffd",
        label: "FFD",
        doc: "first-fit-decreasing bin packing + A*Prune routing",
        build: |_| Box::new(FirstFitDecreasing),
    },
    MapperEntry {
        key: "bf",
        label: "BF",
        doc: "best-fit bin packing + A*Prune routing",
        build: |_| Box::new(BestFit),
    },
    MapperEntry {
        key: "wf",
        label: "WF",
        doc: "worst-fit bin packing + A*Prune routing",
        build: |_| Box::new(WorstFit),
    },
    MapperEntry {
        key: "consolidate",
        label: "HMN-consolidate",
        doc: "HMN + drain stage minimizing hosts used (future-work objective)",
        build: |_| Box::new(ConsolidatingHmn),
    },
    MapperEntry {
        key: "ksp",
        label: "HMN-ksp",
        doc: "HMN placement + k-shortest-path routing ablation (k=4)",
        build: |_| Box::new(HmnKsp::default()),
    },
    MapperEntry {
        key: "sa",
        label: "SA",
        doc: "simulated-annealing placement refinement + A*Prune routing",
        build: |_| Box::new(Annealing::default()),
    },
    MapperEntry {
        key: "pt",
        label: "PT",
        doc: "parallel-tempering placement refinement + A*Prune routing",
        build: |_| Box::new(ParallelTempering::default()),
    },
    MapperEntry {
        key: "rr",
        label: "RR",
        doc: "randomized rounding of a multiplicative-weights fractional LP",
        build: |c| {
            Box::new(RandomizedRounding::with_config(RoundingConfig {
                max_attempts: c.max_attempts,
                ..Default::default()
            }))
        },
    },
    MapperEntry {
        key: "pool",
        label: "pool[HMN+RA+R]",
        doc: "first-success pool over HMN, RA, R (future-work combinator)",
        build: |c| {
            Box::new(HeuristicPool::new(
                vec![
                    Box::new(Hmn::new()),
                    Box::new(RandomAStar {
                        max_attempts: c.max_attempts,
                    }),
                    Box::new(RandomDfs {
                        max_attempts: c.max_attempts,
                    }),
                ],
                PoolPolicy::FirstSuccess,
            ))
        },
    },
];

/// Looks up a registry entry by CLI key.
pub fn find_mapper(key: &str) -> Option<&'static MapperEntry> {
    MAPPERS.iter().find(|e| e.key == key)
}

/// Constructs a mapper by CLI key; `None` for unknown keys.
pub fn build_mapper(key: &str, config: &MapperConfig) -> Option<Box<dyn Mapper>> {
    find_mapper(key).map(|e| (e.build)(config))
}

/// All CLI keys in registry order.
pub fn mapper_keys() -> impl Iterator<Item = &'static str> {
    MAPPERS.iter().map(|e| e.key)
}

/// `"hmn|r|ra|..."` — the usage-text enumeration of every key.
pub fn mapper_usage() -> String {
    mapper_keys().collect::<Vec<_>>().join("|")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_mapper_constructs_and_label_matches_name() {
        let config = MapperConfig::default();
        for entry in MAPPERS {
            let mapper = (entry.build)(&config);
            assert_eq!(
                mapper.name(),
                entry.label,
                "registry label for '{}' drifted from Mapper::name()",
                entry.key
            );
        }
    }

    #[test]
    fn attempt_based_entries_spend_the_budget_they_were_built_with() {
        use crate::{MapCache, MapError};
        use emumap_graph::generators;
        use emumap_model::{
            GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb,
            VLinkSpec, VirtualEnvironment, VmmOverhead,
        };
        use emumap_trace::{Phase, SharedSink, TraceEvent, Tracer};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        // Two guests too big to share a host, joined by a link whose
        // latency bound no path meets: every attempt fails.
        let phys = PhysicalTopology::from_shape(
            &generators::line(2),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(512), StorGb(100.0))),
            LinkSpec::new(Kbps(1000.0), Millis(5.0)),
            VmmOverhead::NONE,
        );
        let mut venv = VirtualEnvironment::new();
        let big = GuestSpec::new(Mips(10.0), MemMb(400), StorGb(1.0));
        let (a, b) = (venv.add_guest(big), venv.add_guest(big));
        venv.add_link(a, b, VLinkSpec::new(Kbps(10.0), Millis(1.0)));

        for budget in [1, 3] {
            let config = MapperConfig {
                max_attempts: budget,
            };
            let exhausted = Err(MapError::RetriesExhausted { attempts: budget });
            for (key, members) in [
                ("r", vec![("R", budget)]),
                ("ra", vec![("RA", budget)]),
                ("hs", vec![("HS", budget)]),
                ("rr", vec![("RR", 0)]),
                ("pool", vec![("HMN", 1), ("RA", budget), ("R", budget)]),
            ] {
                let sink = SharedSink::default();
                let mut cache = MapCache::new();
                cache.trace = Tracer::new(Box::new(sink.clone()));
                let mapper = build_mapper(key, &config).unwrap();
                let mut rng = SmallRng::seed_from_u64(1);
                let result = mapper.map_with_cache(&phys, &venv, &mut rng, &mut cache);
                assert_eq!(result.map(|_| ()), exhausted, "{key}");
                // Networking spans per member run: one per attempt.
                let mut runs: Vec<(String, usize)> = Vec::new();
                for event in sink.events() {
                    match event {
                        TraceEvent::MapStart { mapper, .. } => runs.push((mapper, 0)),
                        TraceEvent::PhaseEnd {
                            phase: Phase::Networking,
                            ..
                        } => runs.last_mut().unwrap().1 += 1,
                        _ => {}
                    }
                }
                let members: Vec<_> = members.iter().map(|&(m, n)| (m.to_string(), n)).collect();
                assert_eq!(runs, members, "{key} with budget {budget}");
            }
        }
    }

    #[test]
    fn keys_are_unique_lowercase_and_stable_for_the_paper_prefix() {
        let keys: Vec<_> = mapper_keys().collect();
        let mut deduped = keys.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), keys.len(), "duplicate registry key");
        assert!(keys
            .iter()
            .all(|k| k.chars().all(|c| c.is_ascii_lowercase())));
        // Derived seeds fold the positional index; the paper-four prefix
        // must never move.
        assert_eq!(&keys[..4], &["hmn", "r", "ra", "hs"]);
    }

    #[test]
    fn index_recovers_registry_position() {
        for (i, entry) in MAPPERS.iter().enumerate() {
            assert_eq!(entry.index(), i);
        }
        assert_eq!(find_mapper("rr").unwrap().index(), 11);
    }

    #[test]
    fn lookup_and_usage_cover_the_registry() {
        assert!(find_mapper("nope").is_none());
        assert!(build_mapper("nope", &MapperConfig::default()).is_none());
        let usage = mapper_usage();
        for entry in MAPPERS {
            assert!(usage.contains(entry.key));
        }
    }

    #[test]
    fn mapper_trait_rustdoc_mentions_every_registered_label() {
        // Satellite guard: the `Mapper` trait docs went stale once (they
        // listed 4 of 11 mappers); keep them sourced from the registry.
        let rustdoc = include_str!("mapper.rs");
        for entry in MAPPERS {
            let type_hint = match entry.key {
                "hmn" => "Hmn",
                "r" => "RandomDfs",
                "ra" => "RandomAStar",
                "hs" => "HostingDfs",
                "ffd" => "FirstFitDecreasing",
                "bf" => "BestFit",
                "wf" => "WorstFit",
                "consolidate" => "ConsolidatingHmn",
                "ksp" => "HmnKsp",
                "sa" => "Annealing",
                "pt" => "ParallelTempering",
                "rr" => "RandomizedRounding",
                "pool" => "HeuristicPool",
                other => panic!("new mapper '{other}': extend this map and the trait docs"),
            };
            assert!(
                rustdoc.contains(type_hint),
                "mapper.rs rustdoc no longer mentions '{}' ({})",
                entry.label,
                entry.key
            );
        }
    }
}
