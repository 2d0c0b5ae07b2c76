//! Contract tests for the observability layer: the trace is a *passive*
//! observer of the pipeline, and it is the single source of every run
//! statistic.
//!
//! Three properties matter. First, attaching a sink must not change any
//! mapping outcome (the tracer is not allowed to influence decisions).
//! Second, the *decision* content of a trace must be deterministic: two
//! runs that differ only in cache warmth must emit identical event
//! sequences once the volatile fields (wall-clock timings and
//! cache-warmth counters) are redacted. Third, every registered mapper's
//! trace satisfies the trace contract, and its `MapStats` counters are
//! exactly the fold of the `PhaseEnd` counters it emitted.

use emumap_core::{Hmn, MapCache, MapStats, Mapper, MapperConfig, MAPPERS};
use emumap_model::{GuestSpec, MemMb, Mips, PhysicalTopology, StorGb, VirtualEnvironment};
use emumap_trace::{check, Phase, SharedSink, TraceEvent, Tracer};
use emumap_workloads::{instantiate, ClusterSpec, Scenario, VirtualEnvSpec, WorkloadKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

fn paper_instance() -> (PhysicalTopology, VirtualEnvironment) {
    let scenario = Scenario {
        ratio: 2.5,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };
    let inst = instantiate(
        &ClusterSpec::paper(),
        ClusterSpec::paper_torus(),
        &scenario,
        0,
        2009,
    );
    (inst.phys, inst.venv)
}

/// A 10-guest environment on the paper's torus: small enough for the
/// random baselines to map it.
fn small_instance() -> (PhysicalTopology, VirtualEnvironment) {
    let (phys, _) = paper_instance();
    let venv = VirtualEnvSpec::high_level(10, 0.2).generate(&mut SmallRng::seed_from_u64(3));
    (phys, venv)
}

/// The paper instance plus one guest no host can take, so every mapper
/// fails while placing guests.
fn hosting_failure_instance() -> (PhysicalTopology, VirtualEnvironment) {
    let (phys, mut venv) = paper_instance();
    venv.add_guest(GuestSpec::new(Mips(1.0), MemMb::from_gb(1024), StorGb(1.0)));
    (phys, venv)
}

/// Maps with a sink attached; returns the result and every emitted event.
fn traced_map(
    mapper: &dyn Mapper,
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    seed: u64,
    cache: &mut MapCache,
) -> (
    Result<emumap_core::MapOutcome, emumap_core::MapError>,
    Vec<TraceEvent>,
) {
    let sink = SharedSink::default();
    cache.trace = Tracer::new(Box::new(sink.clone()));
    let result = mapper.map_with_cache(phys, venv, &mut SmallRng::seed_from_u64(seed), cache);
    cache.trace = Tracer::disabled();
    (result, sink.events())
}

#[test]
fn warm_and_cold_caches_emit_identical_redacted_event_sequences() {
    let (phys, venv) = paper_instance();
    let mapper = Hmn::new();
    let mut cache = MapCache::new();

    // Cold: first run on a fresh cache computes every Dijkstra table.
    let (cold, cold_events) = traced_map(&mapper, &phys, &venv, 1, &mut cache);
    // Warm: same trial again on the now-populated cache.
    let (warm, warm_events) = traced_map(&mapper, &phys, &venv, 1, &mut cache);

    assert_eq!(
        cold.expect("cold map").mapping,
        warm.expect("warm map").mapping,
        "cache must be semantically invisible"
    );

    // The raw sequences differ (the warm run answers `ar[]` lookups from
    // the cache, and every timing is wall-clock); the redacted sequences
    // must not.
    let redact = |events: &[TraceEvent]| -> Vec<TraceEvent> {
        events.iter().map(TraceEvent::redact_volatile).collect()
    };
    assert_eq!(redact(&cold_events), redact(&warm_events));

    // Sanity: the redaction is doing real work — cache warmth is visible
    // in the un-redacted Networking span.
    let networking_counters = |events: &[TraceEvent]| {
        events
            .iter()
            .filter_map(TraceEvent::phase_end)
            .find_map(|(phase, _, counters)| (phase == Phase::Networking).then_some(counters))
            .expect("networking span")
    };
    let cold_net = networking_counters(&cold_events);
    let warm_net = networking_counters(&warm_events);
    assert!(cold_net.dijkstra_runs > 0, "cold run computes tables");
    assert!(
        warm_net.cache_hits > cold_net.cache_hits,
        "warm run answers more lookups from the cache ({} vs {})",
        warm_net.cache_hits,
        cold_net.cache_hits
    );
}

#[test]
fn attaching_a_sink_does_not_change_the_outcome() {
    let (phys, venv) = paper_instance();
    let mapper = Hmn::new();

    let untraced = mapper
        .map_with_cache(
            &phys,
            &venv,
            &mut SmallRng::seed_from_u64(3),
            &mut MapCache::new(),
        )
        .expect("untraced map");
    let (traced, events) = traced_map(&mapper, &phys, &venv, 3, &mut MapCache::new());
    let traced = traced.expect("traced map");

    assert_eq!(untraced.mapping, traced.mapping);
    assert_eq!(untraced.objective, traced.objective);
    assert!(!events.is_empty(), "the traced run did emit");
}

#[test]
fn hmn_trace_has_all_three_phase_spans_and_per_link_outcomes() {
    let (phys, venv) = paper_instance();
    let (outcome, events) = traced_map(&Hmn::new(), &phys, &venv, 5, &mut MapCache::new());
    let outcome = outcome.expect("map");
    assert_eq!(check(&events), vec![]);
    assert!(matches!(
        events.last(),
        Some(TraceEvent::MapEnd {
            ok: true,
            objective: Some(_),
            ..
        })
    ));

    let phases: Vec<Phase> = events
        .iter()
        .filter_map(TraceEvent::phase_end)
        .map(|(phase, _, _)| phase)
        .collect();
    assert_eq!(
        phases,
        vec![Phase::Hosting, Phase::Migration, Phase::Networking]
    );

    // Per-link events reconcile with the mapping's link tallies.
    let count = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    let routed = count(|e| matches!(e, TraceEvent::LinkRouted { .. }));
    let intra = count(|e| matches!(e, TraceEvent::LinkIntraHost { .. }));
    assert_eq!(routed, outcome.stats.routed_links);
    assert_eq!(intra, outcome.stats.intra_host_links);
    assert_eq!(routed + intra, venv.link_count());
}

/// The counters of `stats`, with the per-run fields and the wall-clock
/// times zeroed.
fn counters_only(stats: MapStats) -> MapStats {
    MapStats {
        attempts: 0,
        routed_links: 0,
        intra_host_links: 0,
        placement_time: Duration::ZERO,
        migration_time: Duration::ZERO,
        networking_time: Duration::ZERO,
        total_time: Duration::ZERO,
        ..stats
    }
}

#[test]
fn every_registered_mapper_keeps_the_trace_contract_and_folds_its_stats() {
    let config = MapperConfig { max_attempts: 50 };
    for (phys, venv) in [
        paper_instance(),
        small_instance(),
        hosting_failure_instance(),
    ] {
        for entry in MAPPERS {
            let mapper = (entry.build)(&config);
            let (result, events) =
                traced_map(mapper.as_ref(), &phys, &venv, 7, &mut MapCache::new());
            assert_eq!(
                check(&events),
                vec![],
                "{} breaks the contract",
                entry.label
            );
            assert!(
                matches!(events.last(), Some(TraceEvent::MapEnd { ok, .. }) if *ok == result.is_ok()),
                "{} MapEnd.ok disagrees with its result",
                entry.label
            );
            let Ok(outcome) = result else { continue };
            let folded = MapStats::from_phases(
                events
                    .iter()
                    .filter_map(TraceEvent::phase_end)
                    .map(|(phase, us, counters)| (phase, Duration::from_micros(us), counters)),
            );
            assert_eq!(
                counters_only(outcome.stats),
                counters_only(folded),
                "{} reports counters its trace does not",
                entry.label
            );
            // Spans are reported in whole microseconds, so the folded
            // times can only undershoot.
            assert!(folded.placement_time <= outcome.stats.placement_time);
            assert!(folded.migration_time <= outcome.stats.migration_time);
            assert!(folded.networking_time <= outcome.stats.networking_time);
        }
    }
}
