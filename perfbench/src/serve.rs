//! `serve-churn`: one closed-loop client against `SESSIONS` independent
//! `Session`s, each on its own saturated `fat_tree(16)`.
//!
//! Before measuring, each session is filled with Table-1 high-level
//! tenants until arrivals keep being rejected, and that saturated state is
//! saved. Every pass restores each state into a session that keeps the
//! warm cache of the previous pass, then replays the same seeded churn:
//! arrivals, departures of uniformly chosen tenants, and a `status` read
//! every `STATUS_EVERY` requests. Arrivals slightly outnumber departures,
//! so the cluster stays saturated and a small, fixed share of arrivals is
//! rejected. Drawing several clusters and streams from one seed makes a
//! run average over several saturated states, so its figures depend less
//! on which seed it was given.

use crate::hmn::charge_tables;
use crate::measure::{ms_since, timed, Digest, Layers, Run};
use emumap_core::{ApplyOutcome, Hmn, HmnConfig, MapCache, Session, Snapshot};
use emumap_graph::generators;
use emumap_model::{
    HostSpec, Kbps, LinkSpec, Millis, PhysicalTopology, ResidualState, VirtualEnvironment,
    VmmOverhead,
};
use emumap_trace::{EventSink, Phase, TraceEvent, Tracer};
use emumap_workloads::{ClusterSpec, VirtualEnvSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Independent sessions per run.
const SESSIONS: u64 = 4;
/// Requests per session per measured pass.
const CHURN_REQUESTS: usize = 1000;
/// Every this many requests, one is a `status` read: the cadence of the
/// repository's pinned serve trace (`scripts/gen_serve_trace.py`).
const STATUS_EVERY: usize = 50;
/// Share of non-status requests that are arrivals.
const ARRIVAL_P: f64 = 0.52;
/// Consecutive rejected arrivals that end the fill.
const FILL_REJECTIONS: usize = 3;
/// In traced passes, one residual resync is timed every this many
/// mutations.
const RESYNC_SAMPLE_EVERY: usize = 10;
/// Request kinds, as indices into the per-kind latency samples.
const APPLY: usize = 0;
const REMOVE: usize = 1;
const STATUS: usize = 2;

pub struct ServeWorkload {
    mapper: Hmn,
    tenancies: Vec<Tenancy>,
}

/// One session's cluster, its saturated state, and the warm cache handed
/// from pass to pass.
struct Tenancy {
    hosts: Vec<HostSpec>,
    phys: PhysicalTopology,
    seed: u64,
    saturated: Snapshot,
    cache: MapCache,
}

fn tenant_venv(rng: &mut SmallRng) -> VirtualEnvironment {
    let guests = rng.gen_range(8..=24);
    let venv_seed = rng.gen::<u64>();
    VirtualEnvSpec::high_level(guests, 0.08).generate(&mut SmallRng::seed_from_u64(venv_seed))
}

/// Table-1 hosts (1-3 GB, 1000-3000 MIPS, 1-3 TB) on a k=16 fat-tree:
/// 1024 hosts and 320 switches. 5 ms per hop keeps the 6-hop worst case
/// inside Table 1's 30 ms latency floor.
fn fat_tree_16(hosts: &[HostSpec]) -> PhysicalTopology {
    PhysicalTopology::from_shape(
        &generators::fat_tree(16),
        hosts.iter().copied(),
        LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
        VmmOverhead::NONE,
    )
}

pub fn serve_churn(seed: u64) -> ServeWorkload {
    let cluster = ClusterSpec {
        hosts: 1024,
        ..ClusterSpec::paper()
    };
    // Dominance pruning is required on fat-trees; the expansion cap keeps
    // one unlucky link from stalling an admission.
    let mapper = Hmn::with_config(HmnConfig {
        prune_dominated: true,
        max_expansions: 50_000,
        ..HmnConfig::default()
    });
    let tenancies = (0..SESSIONS)
        .map(|k| {
            let seed = seed.wrapping_mul(SESSIONS).wrapping_add(k);
            let hosts = cluster.draw_hosts(&mut SmallRng::seed_from_u64(seed));
            let mut session = Session::new(fat_tree_16(&hosts), seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x6669_6c6c);
            let (mut rejected_in_a_row, mut n) = (0, 0u64);
            while rejected_in_a_row < FILL_REJECTIONS {
                let outcome = session.apply(&format!("fill-{n}"), tenant_venv(&mut rng), &mapper);
                n += 1;
                match outcome {
                    ApplyOutcome::Admitted(_) => rejected_in_a_row = 0,
                    ApplyOutcome::Rejected { .. } => rejected_in_a_row += 1,
                }
            }
            let saturated = session.snapshot();
            eprintln!(
                "serve-churn: session {seed} filled with {} tenants after {n} arrivals",
                saturated.tenants.len()
            );
            Tenancy {
                phys: fat_tree_16(&hosts),
                hosts,
                seed,
                saturated,
                cache: std::mem::take(session.cache_mut()),
            }
        })
        .collect();
    ServeWorkload { mapper, tenancies }
}

/// Collects the events the session already emits, for traced passes.
struct CollectSink(Arc<Mutex<Vec<TraceEvent>>>);

impl EventSink for CollectSink {
    fn record(&mut self, event: TraceEvent) {
        self.0
            .lock()
            .expect("the sink is only used from this thread")
            .push(event);
    }
}

impl ServeWorkload {
    /// Times the set-up a pass depends on: every session's cluster and
    /// `Session::new` on it.
    pub fn setup(&self, run: &mut Run) {
        run.time_setup(|| {
            self.tenancies
                .iter()
                .map(|t| Session::new(fat_tree_16(&t.hosts), t.seed))
                .collect::<Vec<_>>()
        });
    }

    /// One pass over every session. Traced passes attach an event sink and
    /// time residual resyncs on the side; untraced passes time requests
    /// only.
    pub fn pass(&mut self, run: &mut Run, traced: bool) {
        let mut digest = Digest::default();
        let mut pass_s = 0.0;
        if !traced {
            run.begin_pass(self.tenancies.len() * CHURN_REQUESTS);
        }
        for tenancy in &mut self.tenancies {
            pass_s += tenancy.churn(&self.mapper, run, traced, &mut digest);
        }
        if traced {
            run.layers.traced_pass_s.push(pass_s);
            run.layers.passes += 1;
        } else {
            run.end_pass();
        }
        run.pass_digest(digest);
    }
}

impl Tenancy {
    /// Restores the saturated state, replays the churn, checks the session
    /// and tears it down. Returns the seconds spent in timed requests.
    fn churn(&mut self, mapper: &Hmn, run: &mut Run, traced: bool, digest: &mut Digest) -> f64 {
        let mut session = Session::with_cache(
            self.phys.clone(),
            self.seed,
            std::mem::take(&mut self.cache),
        );
        let restored = session.restore(self.saturated.clone());
        run.check(restored.is_ok(), || format!("restore failed: {restored:?}"));
        let events = Arc::new(Mutex::new(Vec::new()));
        if traced {
            session.cache_mut().trace = Tracer::new(Box::new(CollectSink(events.clone())));
        }

        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x63_6875_726e);
        let mut active: Vec<String> = session.tenant_ids().map(str::to_string).collect();
        let (mut leak, mut mutations, mut rejected) = (0.0f64, 0usize, 0u64);
        let mut churn_s = 0.0;
        // Request latencies by kind, indexed by APPLY, REMOVE and STATUS.
        let mut by_kind: [Vec<f64>; 3] = Default::default();
        for i in 0..CHURN_REQUESTS {
            let (kind, ms, mutated) = if i % STATUS_EVERY == STATUS_EVERY - 1 {
                let (status, ms) = request(run, traced, false, || session.status());
                leak = leak.max(status.leak);
                digest.u64(status.tenants);
                digest.u64(status.guests);
                digest.f64(status.residual_bw);
                digest.f64(status.cluster_objective);
                (STATUS, ms, false)
            } else if active.is_empty() || rng.gen_bool(ARRIVAL_P) {
                let id = format!("churn-{i}");
                let venv = tenant_venv(&mut rng);
                // End-to-end latency is admission latency, rejections
                // included.
                let (outcome, ms) = request(run, traced, true, || session.apply(&id, venv, mapper));
                run.attempted += 1;
                let admitted = match outcome {
                    ApplyOutcome::Admitted(report) => {
                        run.completed += 1;
                        run.succeeded += 1;
                        run.objectives.push(report.objective);
                        digest.f64(report.objective);
                        digest.u64(report.hosts_used);
                        digest.u64(report.routed_links);
                        active.push(id);
                        true
                    }
                    ApplyOutcome::Rejected { reason } => {
                        rejected += 1;
                        digest.str(&reason);
                        false
                    }
                };
                (APPLY, ms, admitted)
            } else {
                let id = active.swap_remove(rng.gen_range(0..active.len()));
                let (removed, ms) = request(run, traced, false, || session.remove(&id));
                run.check(removed.is_ok(), || format!("remove {id}: {removed:?}"));
                (REMOVE, ms, true)
            };
            by_kind[kind].push(ms);
            churn_s += ms / 1e3;
            if traced {
                run.layers
                    .active_tenants
                    .push(session.counters().active_tenants as f64);
                if mutated {
                    mutations += 1;
                    if mutations % RESYNC_SAMPLE_EVERY == 0 {
                        time_resync(&mut session, &mut run.layers);
                    }
                }
            }
        }
        if traced {
            let [apply, remove, status] = by_kind;
            run.layers.apply_ms.extend(apply);
            run.layers.remove_ms.extend(remove);
            run.layers.status_ms.extend(status);
            run.layers.add("serve.rejected", rejected as f64);
            session.cache_mut().trace = Tracer::disabled();
            let events = events
                .lock()
                .expect("the sink is only used from this thread");
            fold_events(&events, &mut run.layers);
            time_tables(&mut session, &mut run.layers, &events);
        }

        // Output checks, outside the timed requests.
        let status = session.status();
        run.check(leak == 0.0 && status.leak == 0.0, || {
            format!("residuals leaked {} during the pass", leak.max(status.leak))
        });
        for id in active {
            let removed = session.remove(&id);
            run.check(removed.is_ok(), || format!("teardown {id}: {removed:?}"));
        }
        // The restored saturated tenants were already in `active`, so the
        // session is now empty and must be pristine bit for bit.
        run.check(
            session.residual() == &ResidualState::new(&self.phys),
            || "full teardown left residuals that differ from pristine".to_string(),
        );
        self.cache = std::mem::take(session.cache_mut());
        churn_s
    }
}

/// Times one request. Untraced passes record it in `run`, as an operation
/// of the latency quantiles if `op`; traced passes time it on the side.
fn request<T>(run: &mut Run, traced: bool, op: bool, f: impl FnOnce() -> T) -> (T, f64) {
    match (traced, op) {
        (true, _) => timed(f),
        (false, true) => run.op(f),
        (false, false) => run.piece(f),
    }
}

/// Times `ResidualState::rebuilt` over the session's current tenants,
/// which is the resync every mutation pays.
fn time_resync(session: &mut Session, layers: &mut Layers) {
    let snapshot = session.snapshot();
    let t = Instant::now();
    let rebuilt = ResidualState::rebuilt(
        session.phys(),
        snapshot.tenants.iter().map(|r| (&r.venv, &r.mapping)),
    );
    layers.resync_ms.push(ms_since(t));
    assert!(rebuilt.is_ok(), "admitted tenants always rebuild");
}

/// Prices the Dijkstra runs and cold prepares the pass's embeddings
/// performed, using the live tenants' routed destinations.
fn time_tables(session: &mut Session, layers: &mut Layers, events: &[TraceEvent]) {
    let (mut built, mut rebuilds) = (0.0, 0.0);
    for event in events {
        if let TraceEvent::PhaseEnd {
            phase: Phase::Networking,
            counters,
            ..
        } = event
        {
            built += counters.dijkstra_runs as f64;
            if counters.dijkstra_runs > 0 {
                rebuilds += 1.0;
            }
        }
    }
    let snapshot = session.snapshot();
    charge_tables(
        session.phys(),
        snapshot.tenants.iter().map(|r| (&r.venv, &r.mapping)),
        built,
        rebuilds,
        layers,
    );
}

/// Folds the phase spans and counters the session emitted into `layers`.
fn fold_events(events: &[TraceEvent], layers: &mut Layers) {
    for event in events {
        match event {
            TraceEvent::PhaseEnd {
                phase,
                elapsed_us,
                counters: c,
            } => {
                let s = *elapsed_us as f64 / 1e6;
                match phase {
                    Phase::Hosting => {
                        layers.add("hosting.time_s", s);
                        layers.add("hosting.colocation_hits", c.colocation_hits as f64);
                        layers.add("hosting.first_fit_fallbacks", c.first_fit_fallbacks as f64);
                    }
                    Phase::Migration => {
                        layers.add("migration.time_s", s);
                        layers.add("migration.proposals", c.proposals_evaluated as f64);
                        layers.add("migration.moves_accepted", c.moves_accepted as f64);
                        layers.add("migration.delta_evaluations", c.delta_evaluations as f64);
                        layers.add("migration.full_evaluations", c.full_evaluations as f64);
                    }
                    Phase::Networking => {
                        layers.add("networking.time_s", s);
                        layers.add("astar_prune.expansions", c.astar_expansions as f64);
                        layers.add("astar_prune.pushed", c.astar_pushed as f64);
                        layers.add("cache.dijkstra_runs", c.dijkstra_runs as f64);
                        layers.add("cache.ar_hits", c.cache_hits as f64);
                    }
                    _ => {}
                }
            }
            TraceEvent::LinkRouted { .. } => layers.add("networking.routed_links", 1.0),
            TraceEvent::LinkIntraHost { .. } => layers.add("networking.intra_host_links", 1.0),
            TraceEvent::MapEnd { elapsed_us, .. } => {
                layers.embed_ms.push(*elapsed_us as f64 / 1e3);
            }
            _ => {}
        }
    }
}
