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
    ("hmn", "torus", 0x4b9d5ae584b5100f),
    ("hmn", "switched", 0x0cc2a4b8a8cf1f8e),
    ("r", "torus", 0xf9cb1ca7b5041707),
    ("r", "switched", 0x85fa82dbfea5584a),
    ("ra", "torus", 0xc9e3020aaa377b36),
    ("ra", "switched", 0xf1a0dff82054a0e5),
    ("hs", "torus", 0x47cf3071dd8a26e4),
    ("hs", "switched", 0xcd54cdf2dc1cebb5),
    ("ffd", "torus", 0xba3124c8a2b5beb2),
    ("ffd", "switched", 0x0888bc48ef9c5936),
    ("bf", "torus", 0x3d6b445de1b6aa71),
    ("bf", "switched", 0x3a438049ec068cba),
    ("wf", "torus", 0xc7af1001ac62dd4e),
    ("wf", "switched", 0x180ccbd33409043a),
    ("consolidate", "torus", 0xaa4ee16c21b84f2c),
    ("consolidate", "switched", 0xf7121d9d0bc138c5),
    ("ksp", "torus", 0xf44a79608b99cdb5),
    ("ksp", "switched", 0x3809a46e070e8a50),
    ("sa", "torus", 0xd03937864a0f5edb),
    ("sa", "switched", 0x4447a177e7162f63),
    ("pt", "torus", 0x4b9d5ae584b5100f),
    ("pt", "switched", 0x0cc2a4b8a8cf1f8e),
    ("rr", "torus", 0xc722ef107c65feb5),
    ("rr", "switched", 0x2866cd30b07148c7),
    ("pool", "torus", 0x4b9d5ae584b5100f),
    ("pool", "switched", 0x26147a11b99ed8ee),
];

/// `(registry key, cluster, digest)` of the placement searches' outcomes
/// and counters.
const PINNED_SEARCH: &[(&str, &str, u64)] = &[
    ("sa", "torus", 0x649f5bcbf84e2007),
    ("sa", "switched", 0xf27e4e3fe1c78078),
    ("pt", "torus", 0x509cd7f55c18ec49),
    ("pt", "switched", 0x35c9920ad998dc48),
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
