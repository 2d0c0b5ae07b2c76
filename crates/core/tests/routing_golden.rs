//! Golden digests of every registered mapper's routing behaviour.
//!
//! A run's record is its outcome (attempts, placement and route edges, or
//! the error), every Networking span's counters and every per-link event
//! (intra-host skips, routed hop counts, failure verdicts). The runs cover
//! both paper clusters over one host draw, a light and a bandwidth-heavy
//! virtual environment, and seeds 1-3, each on a fresh cache so the cache
//! counters are deterministic too. The light environment makes the DFS
//! baselines (R, HS) retry on latency misses; the heavy one saturates
//! physical links, so A\*Prune fails on bandwidth, R and RA exhaust their
//! retries and HS releases and re-routes contended passes.
//!
//! The placement searches (SA, PT) have a second table over the same runs:
//! each run's placement and objective bits (or the error) and every span's
//! deterministic counters, so their proposal, acceptance, evaluation and
//! exchange counts are pinned too.

use emumap_core::{build_mapper, MapCache, MapError, MapOutcome, MapperConfig, MAPPERS};
use emumap_model::{PhysicalTopology, VirtualEnvironment};
use emumap_trace::{Phase, SharedSink, TraceEvent, Tracer};
use emumap_workloads::{ClusterSpec, Range, VirtualEnvSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `(registry key, cluster, digest)` in registry order.
const PINNED: &[(&str, &str, u64)] = &[
    ("hmn", "torus", 0x98c6a16065afc087),
    ("hmn", "switched", 0xf2b257fb12a95aca),
    ("r", "torus", 0x8cb33d21643814f7),
    ("r", "switched", 0xaac5dd4ad1695d24),
    ("ra", "torus", 0x8ca51278fc95881e),
    ("ra", "switched", 0x6e9aa15532fc9b1b),
    ("hs", "torus", 0x7c8224c2915c5824),
    ("hs", "switched", 0xba44a90e695bb921),
    ("ffd", "torus", 0x70a9d9d82ef208a2),
    ("ffd", "switched", 0xe90de1551efed84c),
    ("bf", "torus", 0x4e357989f2892e1f),
    ("bf", "switched", 0x1e0c69690de4c8e6),
    ("wf", "torus", 0xec8ae53fef273bf4),
    ("wf", "switched", 0x2b453753e42b282c),
    ("consolidate", "torus", 0xc3cfe1d0edee1318),
    ("consolidate", "switched", 0x0b9447b1154c01d7),
    ("ksp", "torus", 0x2596ec556ab69045),
    ("ksp", "switched", 0x9d60c612991cc730),
    ("sa", "torus", 0x61da28ca8fa4d2a1),
    ("sa", "switched", 0x7e146866c5ecafc3),
    ("pt", "torus", 0x98c6a16065afc087),
    ("pt", "switched", 0xf2b257fb12a95aca),
    ("rr", "torus", 0x35a5419c1e9a909d),
    ("rr", "switched", 0xe41a27a7bdb74de3),
    ("pool", "torus", 0x98c6a16065afc087),
    ("pool", "switched", 0x3a8d91bc4b1decc6),
];

/// `(registry key, cluster, digest)` of the placement searches' outcomes
/// and counters.
const PINNED_SEARCH: &[(&str, &str, u64)] = &[
    ("sa", "torus", 0x5a292abf8a9b51dd),
    ("sa", "switched", 0x8732dbe1f9d0f69a),
    ("pt", "torus", 0xffc6d7449e43fb2f),
    ("pt", "switched", 0xf7e0fe5144408374),
];

/// One run of `key`, traced on a fresh cache: the outcome and the events.
fn traced(
    key: &str,
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    seed: u64,
) -> (Result<MapOutcome, MapError>, Vec<TraceEvent>) {
    let mapper = build_mapper(key, &MapperConfig::default()).expect("registered");
    let sink = SharedSink::default();
    let mut cache = MapCache::new();
    cache.trace = Tracer::new(Box::new(sink.clone()));
    let result = mapper.map_with_cache(phys, venv, &mut SmallRng::seed_from_u64(seed), &mut cache);
    (result, sink.events())
}

/// One run of `key`'s routing behaviour as text.
fn record(key: &str, phys: &PhysicalTopology, venv: &VirtualEnvironment, seed: u64) -> String {
    let (result, events) = traced(key, phys, venv, seed);
    let mut out = match result {
        Ok(o) => format!("{} {:?}", o.stats.attempts, o.mapping),
        Err(e) => format!("{e:?}"),
    };
    for event in events {
        match event {
            TraceEvent::PhaseEnd {
                phase: Phase::Networking,
                counters,
                ..
            } => out += &format!(" {counters:?}"),
            TraceEvent::LinkIntraHost { .. }
            | TraceEvent::LinkRouted { .. }
            | TraceEvent::LinkFailed { .. } => out += &format!(" {event:?}"),
            _ => {}
        }
    }
    out
}

/// One run of placement search `key` as text: placement, objective bits
/// and every span's deterministic counters.
fn search_record(
    key: &str,
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    seed: u64,
) -> String {
    let (result, events) = traced(key, phys, venv, seed);
    let mut out = match result {
        Ok(o) => format!("{:?} {:#x}", o.mapping.placement(), o.objective.to_bits()),
        Err(e) => format!("{e:?}"),
    };
    for event in events {
        if let TraceEvent::PhaseEnd {
            phase, counters, ..
        } = event
        {
            out += &format!(" {phase:?} {:?}", counters.redact_volatile());
        }
    }
    out
}

/// `(key, cluster, digest)` per key and paper cluster: FNV-1a over the
/// records of both environments and seeds 1-3.
fn digests<'k>(
    keys: impl IntoIterator<Item = &'k str>,
    record: fn(&str, &PhysicalTopology, &VirtualEnvironment, u64) -> String,
) -> Vec<(&'k str, &'static str, u64)> {
    let (torus, switched) = ClusterSpec::paper().build_both(&mut SmallRng::seed_from_u64(2009));
    let light = VirtualEnvSpec::high_level(24, 0.1).generate(&mut SmallRng::seed_from_u64(5));
    let heavy = VirtualEnvSpec {
        bw_kbps: Range::new(150_000.0, 400_000.0),
        ..VirtualEnvSpec::high_level(10, 0.3)
    }
    .generate(&mut SmallRng::seed_from_u64(6));
    let mut got = Vec::new();
    for key in keys {
        for (cluster, phys) in [("torus", &torus), ("switched", &switched)] {
            let mut digest = 0xcbf2_9ce4_8422_2325_u64;
            for venv in [&light, &heavy] {
                for seed in 1..=3 {
                    for b in record(key, phys, venv, seed).bytes() {
                        digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
            got.push((key, cluster, digest));
        }
    }
    got
}

#[test]
fn every_mapper_routes_exactly_as_pinned() {
    let got = digests(MAPPERS.iter().map(|e| e.key), record);
    assert_eq!(got, PINNED, "a mapper's routes, attempts or counters moved");
}

#[test]
fn placement_searches_end_exactly_as_pinned() {
    let got = digests(["sa", "pt"], search_record);
    assert_eq!(
        got, PINNED_SEARCH,
        "SA's or PT's placement, objective or counters moved"
    );
}
