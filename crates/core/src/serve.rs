//! Online multi-tenant embedding sessions (`emumap serve`).
//!
//! The paper maps one virtual environment onto one testbed in a single
//! shot; a real emulation-testbed controller faces a *stream* of arrivals
//! and departures against one long-lived cluster. [`Session`] is that
//! controller's core: it owns the physical topology, the mutable
//! [`ResidualState`], the admitted tenant set, and one warm [`MapCache`],
//! and processes the `apply` / `remove` / `status` / `save` / `restore`
//! request family.
//!
//! ## Admission against residuals
//!
//! An `apply` embeds the incoming venv against a **derived topology**: the
//! base graph with every host's capacities replaced by its current
//! residuals and every link's bandwidth by its residual bandwidth, with
//! latencies untouched. It is built by `PhysicalTopology::with_capacities`,
//! which keeps the base's ids, latencies and generation — the key of the
//! [`ArTables`](crate::ArTables) — so the warm Dijkstra tables carry over
//! across admissions and only the Networking stage's residual-bandwidth
//! checks see the drained links.
//!
//! ## Canonical residuals
//!
//! Floating-point addition does not reassociate, so a purely incremental
//! apply/release history would drift ulps away from a from-scratch rebuild
//! and break bit-exact snapshot/restore determinism. After every mutation
//! the session therefore *resyncs*: it adopts
//! [`ResidualState::rebuilt`] over the surviving tenants in id order,
//! making the residual columns a pure function of the surviving tenant
//! **set** — independent of arrival order, departure order, cache warmth,
//! and thread count. The incremental release path is still exercised and
//! debug-asserted against the canonical rebuild within
//! [`ResidualState::drift_tolerance`]; release builds keep the incremental
//! state if a rebuild is ever refused (it cannot be, short of a bug — the
//! tenants were admitted against these very residuals).

use std::collections::BTreeMap;
use std::time::Instant;

use emumap_model::{
    validate_mapping, HostSpec, Kbps, Mapping, MemMb, Mips, ObjectiveAccumulator, PhysicalTopology,
    ResidualState, StorGb, VirtualEnvironment,
};
use emumap_trace::{RequestKind, ServeCounters, TraceEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::cache::MapCache;
use crate::mapper::Mapper;

/// Mixes the session seed with a request sequence number into the RNG
/// seed for that request's embedding — the same splitmix-style constant
/// the batch harness uses for per-trial seeds.
const SEQ_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One admitted virtual environment and where it lives.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantRecord {
    /// Caller-chosen tenant id (unique within a session).
    pub id: String,
    /// The admitted virtual environment.
    pub venv: VirtualEnvironment,
    /// Its embedding onto the *base* topology.
    pub mapping: Mapping,
    /// The Eq. 10 objective the embedding reported at admission time
    /// (against the residuals it saw then — a historical record, not a
    /// current cluster metric).
    pub objective: f64,
}

/// On-disk session state: the admitted tenants plus the session-lifetime
/// counters. Residuals are deliberately *not* serialized — they are a
/// pure function of the tenant set and are rebuilt (and re-validated) on
/// [`Session::restore`], so a snapshot cannot smuggle in leaked capacity.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Snapshot format version (currently 1).
    pub version: u64,
    /// Admitted tenants in id order.
    pub tenants: Vec<TenantRecord>,
    /// Session-lifetime admit/reject/teardown counters.
    pub counters: ServeCounters,
}

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u64 = 1;

/// What an `apply` did.
#[derive(Clone, Debug, PartialEq)]
pub enum ApplyOutcome {
    /// The venv was embedded; residuals were deducted.
    Admitted(AdmitReport),
    /// The venv was refused; the session is unchanged.
    Rejected {
        /// Deterministic human-readable reason (mapper error or duplicate
        /// id) — safe to diff in golden files.
        reason: String,
    },
}

/// Details of a successful admission.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdmitReport {
    /// Guests embedded.
    pub guests: u64,
    /// Virtual links embedded (routed + intra-host).
    pub links: u64,
    /// Distinct physical hosts used.
    pub hosts_used: u64,
    /// Links routed through the physical network.
    pub routed_links: u64,
    /// Links whose endpoints share a host.
    pub intra_host_links: u64,
    /// Eq. 10 objective of the embedding against the residuals it saw.
    pub objective: f64,
}

/// Details of a teardown.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RemoveReport {
    /// Guests released.
    pub guests: u64,
    /// Virtual links released.
    pub links: u64,
}

/// Cluster-wide aggregates reported by `status`. All fields are pure
/// functions of the surviving tenant set (plus the monotone counters), so
/// status responses are golden-diffable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Active tenants.
    pub tenants: u64,
    /// Guests placed across all tenants.
    pub guests: u64,
    /// Virtual links held across all tenants.
    pub links: u64,
    /// Session-lifetime counters.
    pub counters: ServeCounters,
    /// Sum of residual host CPU (may be negative — CPU is not a
    /// constraint).
    pub residual_proc: f64,
    /// Sum of effective host CPU capacity.
    pub capacity_proc: f64,
    /// Sum of residual host memory, MB.
    pub residual_mem: u64,
    /// Sum of effective host memory capacity, MB.
    pub capacity_mem: u64,
    /// Sum of residual host storage, GB.
    pub residual_stor: f64,
    /// Sum of effective host storage capacity, GB.
    pub capacity_stor: f64,
    /// Sum of residual link bandwidth, kbit/s.
    pub residual_bw: f64,
    /// Sum of link bandwidth capacity, kbit/s.
    pub capacity_bw: f64,
    /// Largest per-entry gap between the live residuals and a
    /// from-scratch rebuild of the surviving tenants — leaked capacity.
    /// Exactly `0.0` while the session's canonical-resync invariant
    /// holds.
    pub leak: f64,
    /// Eq. 10 objective of the whole cluster: stddev of residual host
    /// CPU across all hosts.
    pub cluster_objective: f64,
}

/// Protocol-level failures (distinct from an orderly `apply` rejection,
/// which is a normal response).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// `remove` named a tenant that is not embedded.
    UnknownTenant {
        /// The offending id.
        id: String,
    },
    /// A snapshot failed validation and was not restored.
    CorruptSnapshot {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant { id } => write!(f, "unknown tenant \"{id}\""),
            ServeError::CorruptSnapshot { detail } => {
                write!(f, "snapshot rejected: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

struct Tenant {
    venv: VirtualEnvironment,
    mapping: Mapping,
    objective: f64,
}

/// A long-lived embedding session over one physical cluster.
///
/// Determinism contract: the same request sequence against the same
/// session seed produces bit-identical outcomes (reports, residuals,
/// snapshots) regardless of prior cache warmth or mapper thread count —
/// guaranteed by the [`Mapper::map_with_cache`] cache-transparency
/// contract plus the canonical-resync invariant (see module docs).
pub struct Session {
    phys: PhysicalTopology,
    residual: ResidualState,
    tenants: BTreeMap<String, Tenant>,
    cache: MapCache,
    counters: ServeCounters,
    seq: u64,
    seed: u64,
}

impl Session {
    /// A fresh session over `phys` with a cold cache.
    pub fn new(phys: PhysicalTopology, seed: u64) -> Self {
        Session::with_cache(phys, seed, MapCache::new())
    }

    /// A session reusing an existing (possibly warm) cache — e.g. one
    /// carrying a trace sink, or a cache warmed by earlier one-shot runs.
    pub fn with_cache(phys: PhysicalTopology, seed: u64, cache: MapCache) -> Self {
        let residual = ResidualState::new(&phys);
        Session {
            phys,
            residual,
            tenants: BTreeMap::new(),
            cache,
            counters: ServeCounters::default(),
            seq: 0,
            seed,
        }
    }

    /// The base physical topology.
    pub fn phys(&self) -> &PhysicalTopology {
        &self.phys
    }

    /// Current residual capacities.
    pub fn residual(&self) -> &ResidualState {
        &self.residual
    }

    /// The session cache (attach or detach trace sinks through
    /// `cache_mut().trace`).
    pub fn cache_mut(&mut self) -> &mut MapCache {
        &mut self.cache
    }

    /// Session-lifetime counters.
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// Ids of the currently embedded tenants, in order.
    pub fn tenant_ids(&self) -> impl Iterator<Item = &str> {
        self.tenants.keys().map(String::as_str)
    }

    /// Number of requests processed so far.
    pub fn requests_processed(&self) -> u64 {
        self.seq
    }

    /// Attempts to admit `venv` under `id` using `mapper`. Rejections
    /// (duplicate id, mapper failure) leave the session untouched and are
    /// normal responses, not errors.
    pub fn apply(
        &mut self,
        id: &str,
        venv: VirtualEnvironment,
        mapper: &dyn Mapper,
    ) -> ApplyOutcome {
        let (seq, started) = self.begin_request(RequestKind::Apply, Some(id));
        let outcome = self.apply_inner(id, venv, mapper, seq);
        match &outcome {
            ApplyOutcome::Admitted(_) => self.counters.admitted += 1,
            ApplyOutcome::Rejected { .. } => self.counters.rejected += 1,
        }
        self.refresh_gauges();
        self.end_request(seq, true, started);
        outcome
    }

    fn apply_inner(
        &mut self,
        id: &str,
        venv: VirtualEnvironment,
        mapper: &dyn Mapper,
        seq: u64,
    ) -> ApplyOutcome {
        if self.tenants.contains_key(id) {
            return ApplyOutcome::Rejected {
                reason: format!("duplicate tenant id \"{id}\""),
            };
        }
        let derived = self.derived_topology();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ seq.wrapping_mul(SEQ_SEED_MIX));
        let outcome = match mapper.map_with_cache(&derived, &venv, &mut rng, &mut self.cache) {
            Ok(outcome) => outcome,
            Err(e) => {
                return ApplyOutcome::Rejected {
                    reason: e.to_string(),
                }
            }
        };
        debug_assert_eq!(
            validate_mapping(&derived, &venv, &outcome.mapping),
            Ok(()),
            "mapper returned an invalid embedding"
        );
        if let Err(e) = self.residual.apply_mapping(&venv, &outcome.mapping) {
            // Unreachable short of a mapper bug: the embedding was checked
            // against a topology built from these very residuals. Reject
            // and restore the canonical state rather than poisoning it.
            debug_assert!(false, "admitted embedding refused by residuals: {e}");
            self.resync();
            return ApplyOutcome::Rejected {
                reason: format!("residual commit refused: {e}"),
            };
        }
        let report = AdmitReport {
            guests: venv.guest_count() as u64,
            links: venv.link_count() as u64,
            hosts_used: outcome.mapping.hosts_used() as u64,
            routed_links: outcome.mapping.routed_link_count() as u64,
            intra_host_links: outcome.mapping.intra_host_link_count() as u64,
            objective: outcome.objective,
        };
        self.tenants.insert(
            id.to_string(),
            Tenant {
                venv,
                mapping: outcome.mapping,
                objective: outcome.objective,
            },
        );
        self.resync();
        ApplyOutcome::Admitted(report)
    }

    /// Tears down tenant `id`, releasing its guests' capacity and its
    /// routes' bandwidth.
    pub fn remove(&mut self, id: &str) -> Result<RemoveReport, ServeError> {
        let (seq, started) = self.begin_request(RequestKind::Remove, Some(id));
        let Some(tenant) = self.tenants.remove(id) else {
            self.end_request(seq, false, started);
            return Err(ServeError::UnknownTenant { id: id.to_string() });
        };
        // Incremental release first — this is the O(tenant) path whose
        // correctness the resync debug-assert then checks against the
        // canonical rebuild.
        self.residual.release_mapping(&tenant.venv, &tenant.mapping);
        self.resync();
        self.counters.removed += 1;
        self.refresh_gauges();
        let report = RemoveReport {
            guests: tenant.venv.guest_count() as u64,
            links: tenant.venv.link_count() as u64,
        };
        self.end_request(seq, true, started);
        Ok(report)
    }

    /// Reports cluster-wide state without mutating anything (beyond the
    /// request counter).
    pub fn status(&mut self) -> StatusReport {
        let (seq, started) = self.begin_request(RequestKind::Status, None);
        let report = self.status_report();
        self.end_request(seq, true, started);
        report
    }

    fn status_report(&self) -> StatusReport {
        let leak = match ResidualState::rebuilt(
            &self.phys,
            self.tenants.values().map(|t| (&t.venv, &t.mapping)),
        ) {
            Ok(canonical) => self.residual.divergence(&canonical),
            Err(_) => f64::INFINITY,
        };
        let mut capacity_proc = 0.0;
        let mut capacity_mem = 0u64;
        let mut capacity_stor = 0.0;
        for &h in self.phys.hosts() {
            capacity_proc += self.phys.effective_proc(h).value();
            capacity_mem += self.phys.effective_mem(h).value();
            capacity_stor += self.phys.effective_stor(h).value();
        }
        let capacity_bw: f64 = self.phys.graph().edges().map(|e| e.weight.bw.value()).sum();
        StatusReport {
            tenants: self.tenants.len() as u64,
            guests: self.counters.placed_guests,
            links: self
                .tenants
                .values()
                .map(|t| t.venv.link_count() as u64)
                .sum(),
            counters: self.counters,
            residual_proc: self.residual.proc_column().iter().sum(),
            capacity_proc,
            residual_mem: self.residual.mem_column().iter().sum(),
            capacity_mem,
            residual_stor: self.residual.stor_column().iter().sum(),
            capacity_stor,
            residual_bw: self
                .phys
                .graph()
                .edge_ids()
                .map(|e| self.residual.bw(e).value())
                .sum(),
            capacity_bw,
            leak,
            cluster_objective: ObjectiveAccumulator::new(self.residual.proc_column()).stddev(),
        }
    }

    /// Serializable state of the session — see [`Snapshot`].
    pub fn snapshot(&mut self) -> Snapshot {
        let (seq, started) = self.begin_request(RequestKind::Save, None);
        let snapshot = Snapshot {
            version: SNAPSHOT_VERSION,
            tenants: self
                .tenants
                .iter()
                .map(|(id, t)| TenantRecord {
                    id: id.clone(),
                    venv: t.venv.clone(),
                    mapping: t.mapping.clone(),
                    objective: t.objective,
                })
                .collect(),
            counters: self.counters,
        };
        self.end_request(seq, true, started);
        snapshot
    }

    /// Replaces the session's tenant set (and counters) from a snapshot.
    /// Every mapping is re-validated against the base topology and the
    /// residuals are rebuilt from scratch; a snapshot that fails either
    /// check is refused **atomically** — the session keeps its current
    /// state.
    pub fn restore(&mut self, snapshot: Snapshot) -> Result<u64, ServeError> {
        let (seq, started) = self.begin_request(RequestKind::Restore, None);
        let result = self.restore_inner(snapshot);
        self.end_request(seq, result.is_ok(), started);
        result
    }

    fn restore_inner(&mut self, snapshot: Snapshot) -> Result<u64, ServeError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(ServeError::CorruptSnapshot {
                detail: format!(
                    "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                    snapshot.version
                ),
            });
        }
        let mut candidate: BTreeMap<String, Tenant> = BTreeMap::new();
        for record in snapshot.tenants {
            if let Err(violations) = validate_mapping(&self.phys, &record.venv, &record.mapping) {
                return Err(ServeError::CorruptSnapshot {
                    detail: format!(
                        "tenant \"{}\" fails validation: {}",
                        record.id,
                        violations
                            .first()
                            .map(|v| v.to_string())
                            .unwrap_or_else(|| "unknown violation".to_string())
                    ),
                });
            }
            if candidate
                .insert(
                    record.id.clone(),
                    Tenant {
                        venv: record.venv,
                        mapping: record.mapping,
                        objective: record.objective,
                    },
                )
                .is_some()
            {
                return Err(ServeError::CorruptSnapshot {
                    detail: format!("duplicate tenant id \"{}\"", record.id),
                });
            }
        }
        let residual = ResidualState::rebuilt(
            &self.phys,
            candidate.values().map(|t| (&t.venv, &t.mapping)),
        )
        .map_err(|e| ServeError::CorruptSnapshot {
            detail: format!("tenant set overcommits the cluster: {e}"),
        })?;
        let restored = candidate.len() as u64;
        self.tenants = candidate;
        self.residual = residual;
        self.counters = snapshot.counters;
        self.refresh_gauges();
        Ok(restored)
    }

    /// The base topology with every capacity replaced by its residual
    /// (latencies untouched) — what an incoming venv is embedded against.
    /// It keeps the base's ids and generation, so the cache's Dijkstra
    /// tables stay warm across applies.
    fn derived_topology(&self) -> PhysicalTopology {
        let residual = &self.residual;
        self.phys.with_capacities(
            |h| {
                let slot = residual.slot_of(h).expect("every host has a residual slot");
                HostSpec::new(
                    Mips(residual.proc_column()[slot]),
                    MemMb(residual.mem_column()[slot]),
                    StorGb(residual.stor_column()[slot].max(0.0)),
                )
            },
            |e| Kbps(residual.bw(e).value().max(0.0)),
        )
    }

    /// Adopts the canonical from-scratch residual rebuild (see module
    /// docs), debug-asserting the incremental state agrees within the
    /// float drift budget.
    fn resync(&mut self) {
        match ResidualState::rebuilt(
            &self.phys,
            self.tenants.values().map(|t| (&t.venv, &t.mapping)),
        ) {
            Ok(canonical) => {
                debug_assert!(
                    self.residual.divergence(&canonical) <= self.residual.drift_tolerance(),
                    "incremental residuals drifted beyond tolerance: {} > {}",
                    self.residual.divergence(&canonical),
                    self.residual.drift_tolerance(),
                );
                self.residual = canonical;
            }
            Err(e) => {
                // Unreachable short of a bug: every tenant in the map was
                // admitted against these residuals. Keep the (correct
                // within drift) incremental state in release builds.
                debug_assert!(false, "canonical rebuild refused the tenant set: {e}");
            }
        }
    }

    fn refresh_gauges(&mut self) {
        self.counters.active_tenants = self.tenants.len() as u64;
        self.counters.placed_guests = self
            .tenants
            .values()
            .map(|t| t.venv.guest_count() as u64)
            .sum();
        self.counters.routed_links = self
            .tenants
            .values()
            .map(|t| t.mapping.routed_link_count() as u64)
            .sum();
    }

    fn begin_request(&mut self, kind: RequestKind, tenant: Option<&str>) -> (u64, Instant) {
        self.seq += 1;
        let seq = self.seq;
        let tenant = tenant.map(str::to_string);
        self.cache
            .trace
            .emit(|| TraceEvent::RequestStart { seq, kind, tenant });
        (seq, Instant::now())
    }

    fn end_request(&mut self, seq: u64, ok: bool, started: Instant) {
        let counters = self.counters;
        self.cache.trace.emit(|| TraceEvent::RequestEnd {
            seq,
            ok,
            elapsed_us: started.elapsed().as_micros() as u64,
            counters,
        });
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("hosts", &self.phys.host_count())
            .field("tenants", &self.tenants.len())
            .field("seq", &self.seq)
            .field("counters", &self.counters)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempering::{ParallelTempering, TemperingConfig};
    use crate::Hmn;
    use emumap_graph::generators;
    use emumap_model::{GuestSpec, LinkSpec, Millis, VLinkSpec, VmmOverhead};

    fn phys() -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::torus2d(3, 4),
            std::iter::repeat(HostSpec::new(Mips(2000.0), MemMb(2048), StorGb(2000.0))),
            LinkSpec::new(Kbps(100_000.0), Millis(5.0)),
            VmmOverhead::NONE,
        )
    }

    /// A chain of `n` modest guests.
    fn venv(n: usize, bw: f64) -> VirtualEnvironment {
        let mut v = VirtualEnvironment::new();
        let guests: Vec<_> = (0..n)
            .map(|_| v.add_guest(GuestSpec::new(Mips(100.0), MemMb(256), StorGb(100.0))))
            .collect();
        for pair in guests.windows(2) {
            v.add_link(pair[0], pair[1], VLinkSpec::new(Kbps(bw), Millis(60.0)));
        }
        v
    }

    #[test]
    fn apply_remove_lifecycle_reconciles_to_fresh() {
        let p = phys();
        let fresh = ResidualState::new(&p);
        let mut session = Session::new(p, 42);
        let hmn = Hmn::new();
        assert!(matches!(
            session.apply("a", venv(6, 500.0), &hmn),
            ApplyOutcome::Admitted(_)
        ));
        assert!(matches!(
            session.apply("b", venv(4, 250.0), &hmn),
            ApplyOutcome::Admitted(_)
        ));
        let status = session.status();
        assert_eq!(status.tenants, 2);
        assert_eq!(status.guests, 10);
        assert_eq!(status.counters.admitted, 2);
        assert_eq!(status.leak, 0.0, "canonical resync leaves zero leak");
        assert!(status.residual_proc < status.capacity_proc);

        let report = session.remove("a").unwrap();
        assert_eq!(report.guests, 6);
        session.remove("b").unwrap();
        assert_eq!(
            session.residual(),
            &fresh,
            "removing every tenant restores pristine residuals bit-for-bit"
        );
        let end = session.status();
        assert_eq!(end.counters.removed, 2);
        assert_eq!(end.counters.active_tenants, 0);
        assert_eq!(end.residual_mem, end.capacity_mem);
    }

    #[test]
    fn dijkstra_tables_stay_warm_across_applies() {
        // Guests too big to share a host, so every link is routed.
        let mut v = VirtualEnvironment::new();
        let g: Vec<_> = (0..3)
            .map(|_| v.add_guest(GuestSpec::new(Mips(100.0), MemMb(1500), StorGb(100.0))))
            .collect();
        for pair in g.windows(2) {
            v.add_link(pair[0], pair[1], VLinkSpec::new(Kbps(500.0), Millis(60.0)));
        }
        let mut session = Session::new(phys(), 3);
        let hmn = Hmn::new();
        assert!(matches!(
            session.apply("a", v.clone(), &hmn),
            ApplyOutcome::Admitted(_)
        ));
        let runs = session.cache_mut().topo.dijkstra_runs();
        assert!(runs > 0, "the first apply builds its tables");
        // Pristine residuals again, so the same destination hosts come up.
        session.remove("a").unwrap();
        assert!(matches!(
            session.apply("b", v, &hmn),
            ApplyOutcome::Admitted(_)
        ));
        assert_eq!(
            session.cache_mut().topo.dijkstra_runs(),
            runs,
            "a new derived topology must reuse the tabled destinations"
        );
    }

    #[test]
    fn duplicate_and_infeasible_applies_reject_without_mutating() {
        let p = phys();
        let mut session = Session::new(p, 7);
        let hmn = Hmn::new();
        assert!(matches!(
            session.apply("t", venv(3, 100.0), &hmn),
            ApplyOutcome::Admitted(_)
        ));
        let before = session.residual().clone();
        match session.apply("t", venv(2, 100.0), &hmn) {
            ApplyOutcome::Rejected { reason } => {
                assert!(reason.contains("duplicate"), "{reason}")
            }
            other => panic!("expected rejection: {other:?}"),
        }
        // A guest bigger than any host.
        let mut huge = VirtualEnvironment::new();
        huge.add_guest(GuestSpec::new(Mips(1.0), MemMb(1 << 40), StorGb(1.0)));
        match session.apply("huge", huge, &hmn) {
            ApplyOutcome::Rejected { reason } => {
                assert!(!reason.is_empty());
            }
            other => panic!("expected rejection: {other:?}"),
        }
        assert_eq!(session.residual(), &before, "rejections leave state alone");
        assert_eq!(session.counters().rejected, 2);
        assert_eq!(session.counters().admitted, 1);
        assert!(matches!(
            session.remove("nope"),
            Err(ServeError::UnknownTenant { .. })
        ));
    }

    /// The same request stream against a cold cache and against a cache
    /// warmed by unrelated work must produce identical outcomes.
    #[test]
    fn warm_and_cold_caches_agree_bitwise() {
        let hmn = Hmn::new();
        let mut warm_cache = MapCache::new();
        {
            // Warm the cache on an unrelated one-shot run over the same
            // base topology shape.
            let mut rng = SmallRng::seed_from_u64(99);
            let _ = hmn.map_with_cache(&phys(), &venv(5, 300.0), &mut rng, &mut warm_cache);
        }
        let mut cold = Session::new(phys(), 1234);
        let mut warm = Session::with_cache(phys(), 1234, warm_cache);
        let stream: Vec<(&str, usize, f64)> =
            vec![("x", 6, 400.0), ("y", 3, 150.0), ("z", 8, 700.0)];
        for (id, n, bw) in stream {
            let a = cold.apply(id, venv(n, bw), &hmn);
            let b = warm.apply(id, venv(n, bw), &hmn);
            assert_eq!(a, b, "cache history changed an outcome for {id}");
        }
        cold.remove("y").unwrap();
        warm.remove("y").unwrap();
        assert_eq!(cold.residual(), warm.residual());
        assert_eq!(cold.status(), warm.status());
    }

    /// Thread count must not leak into outcomes when the mapper is the
    /// parallel-tempering annealer.
    #[test]
    fn tempering_thread_count_does_not_change_outcomes() {
        let mk = |threads| ParallelTempering {
            config: TemperingConfig {
                replicas: 4,
                rounds: 4,
                iterations_per_round: 10,
                threads,
                ..TemperingConfig::default()
            },
        };
        let mut one = Session::new(phys(), 5);
        let mut four = Session::new(phys(), 5);
        let a = one.apply("t", venv(5, 200.0), &mk(1));
        let b = four.apply("t", venv(5, 200.0), &mk(4));
        assert_eq!(a, b);
        assert_eq!(one.residual(), four.residual());
    }

    #[test]
    fn snapshot_restore_roundtrips_bitwise() {
        let hmn = Hmn::new();
        let mut session = Session::new(phys(), 11);
        session.apply("a", venv(4, 300.0), &hmn);
        session.apply("b", venv(6, 500.0), &hmn);
        session.remove("a").unwrap();
        let snap = session.snapshot();
        // Serde roundtrip through the JSONL snapshot format.
        let snap: Snapshot = serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();

        let mut restored = Session::new(phys(), 11);
        assert_eq!(restored.restore(snap).unwrap(), 1);
        assert_eq!(restored.residual(), session.residual());
        assert_eq!(restored.counters(), session.counters());
        assert_eq!(
            restored.tenant_ids().collect::<Vec<_>>(),
            session.tenant_ids().collect::<Vec<_>>()
        );
        // The restored session continues deterministically: the next
        // apply sees identical residuals, so an identical derived
        // topology.
        let c1 = session.apply("c", venv(3, 100.0), &hmn);
        // Align request seq (restored processed restore instead of
        // apply+apply+remove+save; seq differs, so outcomes may differ
        // only through the per-request seed — pin them equal by catching
        // the session up).
        while restored.requests_processed() < session.requests_processed() {
            restored.status();
        }
        let c2 = restored.apply("c", venv(3, 100.0), &hmn);
        assert_eq!(c1, c2);
    }

    #[test]
    fn corrupt_snapshots_are_refused_atomically() {
        let hmn = Hmn::new();
        let mut session = Session::new(phys(), 3);
        session.apply("keep", venv(3, 100.0), &hmn);
        let good = session.snapshot();
        let residual_before = session.residual().clone();

        // Wrong version.
        let mut bad = good.clone();
        bad.version = 999;
        assert!(matches!(
            session.restore(bad),
            Err(ServeError::CorruptSnapshot { .. })
        ));

        // Mapping that fails Eq. 1 validation (placement truncated).
        let mut bad = good.clone();
        bad.tenants[0].mapping = Mapping::new(vec![], vec![]);
        assert!(matches!(
            session.restore(bad),
            Err(ServeError::CorruptSnapshot { .. })
        ));

        // Tenant set that overcommits memory: the same tenant twice under
        // different ids, scaled up to exceed capacity.
        let mut bad = good.clone();
        let mut dup = bad.tenants[0].clone();
        dup.id = "dup".to_string();
        bad.tenants.push(dup);
        let mut heavy = VirtualEnvironment::new();
        heavy.add_guest(GuestSpec::new(Mips(1.0), MemMb(2048), StorGb(1.0)));
        let host0 = session.phys().hosts()[0];
        let heavy_mapping = Mapping::new(vec![host0], vec![]);
        bad.tenants = (0..2)
            .map(|i| TenantRecord {
                id: format!("heavy{i}"),
                venv: heavy.clone(),
                mapping: heavy_mapping.clone(),
                objective: 0.0,
            })
            .collect();
        assert!(matches!(
            session.restore(bad),
            Err(ServeError::CorruptSnapshot { .. })
        ));

        assert_eq!(
            session.residual(),
            &residual_before,
            "failed restores must not touch state"
        );
        assert_eq!(session.tenant_ids().collect::<Vec<_>>(), vec!["keep"]);
    }

    /// Request spans bracket every request and carry monotone counters.
    #[test]
    fn request_spans_are_emitted_in_order() {
        use emumap_trace::{check, SharedSink, Tracer};
        let sink = SharedSink::default();
        let mut cache = MapCache::new();
        cache.trace = Tracer::new(Box::new(sink.clone()));
        let mut session = Session::with_cache(phys(), 8, cache);
        let hmn = Hmn::new();
        session.apply("a", venv(3, 100.0), &hmn);
        session.remove("a").unwrap();
        session.status();
        assert_eq!(session.requests_processed(), 3);
        let events = sink.events();
        assert_eq!(check(&events), vec![]);
        let requests = events
            .iter()
            .filter(|e| matches!(e, emumap_trace::TraceEvent::RequestEnd { .. }))
            .count();
        assert_eq!(requests, 3);
    }
}
