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
//! Floating-point addition does not reassociate, so residuals kept by
//! deducting each arrival and refunding each departure would drift ulps
//! away from a from-scratch rebuild and break bit-exact snapshot/restore
//! determinism. The session never edits its residuals in place: `apply`,
//! `remove` and `restore` each hand the new tenant set to one method that
//! rebuilds the residuals and gauges from it with
//! [`ResidualState::rebuilt`] in id order, and adopts them only if the
//! rebuild succeeds. The residual columns are thus a pure function of the
//! tenant **set** — independent of arrival order, departure order, cache
//! warmth, and thread count. An `apply` whose rebuild fails is rejected
//! and leaves the session bit-identical; a `remove` cannot fail its
//! rebuild (the argument is at [`Session::remove`]), which needs every
//! CPU, storage and bandwidth demand of a tenant to be finite and
//! non-negative, so `apply` and `restore` refuse any other.

use std::collections::BTreeMap;
use std::time::Instant;

use emumap_model::{
    validate_mapping, HostSpec, Kbps, Mapping, MemMb, Mips, ObjectiveAccumulator, PhysicalTopology,
    PlaceError, ResidualState, StorGb, VirtualEnvironment,
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
    /// The session only ever adopts such a rebuild (see module docs), so
    /// this reads exactly `0.0`; it is the operator's check of that.
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
/// contract plus the canonical-residual invariant (see module docs).
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
        // `remove`'s rebuild argument needs finite, non-negative demands.
        if let Some(reason) = venv.demand_error() {
            return ApplyOutcome::Rejected { reason };
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
        let report = AdmitReport {
            guests: venv.guest_count() as u64,
            links: venv.link_count() as u64,
            hosts_used: outcome.mapping.hosts_used() as u64,
            routed_links: outcome.mapping.routed_link_count() as u64,
            intra_host_links: outcome.mapping.intra_host_link_count() as u64,
            objective: outcome.objective,
        };
        let mut tenants = std::mem::take(&mut self.tenants);
        tenants.insert(
            id.to_string(),
            Tenant {
                venv,
                mapping: outcome.mapping,
                objective: outcome.objective,
            },
        );
        if let Err((mut tenants, e)) = self.adopt(tenants) {
            // Short of a mapper bug the embedding fits: it was checked
            // against a topology built from these very residuals.
            tenants.remove(id);
            self.tenants = tenants;
            return ApplyOutcome::Rejected {
                reason: format!("residual commit refused: {e}"),
            };
        }
        ApplyOutcome::Admitted(report)
    }

    /// Tears down tenant `id`, releasing its guests' capacity and its
    /// routes' bandwidth.
    ///
    /// The survivors always rebuild, because any subset of a tenant set
    /// that rebuilt also rebuilds:
    /// - every demand is finite and non-negative (`apply` and `restore`
    ///   refuse any other), and subtraction rounds to nearest, which is
    ///   monotone; so without this tenant every partial storage and
    ///   bandwidth residual of the rebuild is at least as large as before,
    ///   and each re-check passes where it passed;
    /// - memory is integer arithmetic, so the same holds exactly.
    pub fn remove(&mut self, id: &str) -> Result<RemoveReport, ServeError> {
        let (seq, started) = self.begin_request(RequestKind::Remove, Some(id));
        let Some(tenant) = self.tenants.remove(id) else {
            self.end_request(seq, false, started);
            return Err(ServeError::UnknownTenant { id: id.to_string() });
        };
        let survivors = std::mem::take(&mut self.tenants);
        self.adopt(survivors)
            .map_err(|(_, e)| e)
            .expect("a subset of a tenant set that rebuilt rebuilds");
        self.counters.removed += 1;
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
    /// Its counters must agree with its tenants (`admitted - removed` is
    /// the tenant count), every demand must be finite and non-negative,
    /// every mapping is re-validated against the base topology, and the
    /// residuals are rebuilt from scratch; a snapshot that fails any
    /// check is refused **atomically** — the session keeps its current
    /// state.
    pub fn restore(&mut self, snapshot: Snapshot) -> Result<u64, ServeError> {
        let (seq, started) = self.begin_request(RequestKind::Restore, None);
        let result = self
            .restore_inner(snapshot)
            .map_err(|detail| ServeError::CorruptSnapshot { detail });
        self.end_request(seq, result.is_ok(), started);
        result
    }

    /// [`restore`](Self::restore)'s checks and adoption; `Err` says what
    /// is wrong with the snapshot.
    fn restore_inner(&mut self, snapshot: Snapshot) -> Result<u64, String> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(format!(
                "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                snapshot.version
            ));
        }
        let (c, count) = (snapshot.counters, snapshot.tenants.len());
        if c.admitted.checked_sub(c.removed) != Some(count as u64) {
            return Err(format!(
                "counters (admitted {}, removed {}) contradict its {count} tenants",
                c.admitted, c.removed
            ));
        }
        let mut candidate = BTreeMap::new();
        for record in snapshot.tenants {
            let id = record.id;
            if let Some(reason) = record.venv.demand_error() {
                return Err(format!("tenant \"{id}\": {reason}"));
            }
            if let Err(violations) = validate_mapping(&self.phys, &record.venv, &record.mapping) {
                return Err(format!(
                    "tenant \"{id}\" fails validation: {}",
                    violations[0]
                ));
            }
            let tenant = Tenant {
                venv: record.venv,
                mapping: record.mapping,
                objective: record.objective,
            };
            if candidate.insert(id.clone(), tenant).is_some() {
                return Err(format!("duplicate tenant id \"{id}\""));
            }
        }
        self.adopt(candidate)
            .map_err(|(_, e)| format!("tenant set overcommits the cluster: {e}"))?;
        self.counters.admitted = c.admitted;
        self.counters.rejected = c.rejected;
        self.counters.removed = c.removed;
        Ok(count as u64)
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

    /// Makes `tenants` the session's tenant set, with residuals and gauges
    /// rebuilt from it in id order — the only place any of them changes
    /// (see module docs). If the rebuild fails, residuals and gauges are
    /// untouched and `tenants` is handed back with the refusal.
    fn adopt(
        &mut self,
        tenants: BTreeMap<String, Tenant>,
    ) -> Result<(), (BTreeMap<String, Tenant>, PlaceError)> {
        let rebuilt =
            ResidualState::rebuilt(&self.phys, tenants.values().map(|t| (&t.venv, &t.mapping)));
        self.residual = match rebuilt {
            Ok(residual) => residual,
            Err(e) => return Err((tenants, e)),
        };
        self.counters.active_tenants = tenants.len() as u64;
        self.counters.placed_guests = tenants.values().map(|t| t.venv.guest_count() as u64).sum();
        self.counters.routed_links = tenants
            .values()
            .map(|t| t.mapping.routed_link_count() as u64)
            .sum();
        self.tenants = tenants;
        Ok(())
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

    /// One guest demanding `mem` MB of memory and `stor` GB of storage.
    fn one_guest(mem: u64, stor: f64) -> VirtualEnvironment {
        let mut v = VirtualEnvironment::new();
        v.add_guest(GuestSpec::new(Mips(1.0), MemMb(mem), StorGb(stor)));
        v
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
        match session.apply("huge", one_guest(1 << 40, 1.0), &hmn) {
            ApplyOutcome::Rejected { reason } => {
                assert!(!reason.is_empty());
            }
            other => panic!("expected rejection: {other:?}"),
        }
        // Negative or non-finite demands: a negative one would lend
        // capacity that a later tenant could take.
        let nan_link = venv(2, 1.0)
            .graph()
            .map_edges(|_, l| VLinkSpec::new(Kbps(f64::NAN), l.lat));
        let nan_link = VirtualEnvironment::from_graph(nan_link);
        for bad in [one_guest(1, -1.0), one_guest(1, f64::INFINITY), nan_link] {
            let outcome = format!("{:?}", session.apply("bad", bad, &hmn));
            assert!(
                outcome.contains("negative or non-finite demand"),
                "{outcome}"
            );
        }
        // A NaN or negative latency bound no route can be held to.
        for lat in [f64::NAN, -5.0] {
            let bad = venv(2, 1.0)
                .graph()
                .map_edges(|_, l| VLinkSpec::new(l.bw, Millis(lat)));
            let bad = VirtualEnvironment::from_graph(bad);
            let outcome = format!("{:?}", session.apply("bad", bad, &hmn));
            assert!(
                outcome.contains("negative or NaN latency bound"),
                "{outcome}"
            );
        }
        assert_eq!(session.residual(), &before, "rejections leave state alone");
        assert_eq!(session.counters().rejected, 7);
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

    /// Restores `bad` and expects a refusal whose detail mentions `why`.
    fn refused(session: &mut Session, bad: Snapshot, why: &str) {
        match session.restore(bad) {
            Err(ServeError::CorruptSnapshot { detail }) => {
                assert!(detail.contains(why), "{detail}")
            }
            other => panic!("expected a corrupt snapshot: {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshots_are_refused_atomically() {
        let hmn = Hmn::new();
        let mut session = Session::new(phys(), 3);
        session.apply("keep", venv(3, 100.0), &hmn);
        let good = session.snapshot();
        let residual_before = session.residual().clone();
        let counters_before = session.counters();

        // Wrong version.
        let mut bad = good.clone();
        bad.version = 999;
        refused(&mut session, bad, "version");

        // Mapping that fails Eq. 1 validation (placement truncated).
        let mut bad = good.clone();
        bad.tenants[0].mapping = Mapping::new(vec![], vec![]);
        refused(&mut session, bad, "fails validation");

        // Tenant set that overcommits memory: two tenants that each fill
        // host 0.
        let mut bad = good.clone();
        let host0 = session.phys().hosts()[0];
        bad.tenants = (0..2)
            .map(|i| TenantRecord {
                id: format!("heavy{i}"),
                venv: one_guest(2048, 1.0),
                mapping: Mapping::new(vec![host0], vec![]),
                objective: 0.0,
            })
            .collect();
        bad.counters.admitted = 2;
        refused(&mut session, bad, "overcommits");

        // Counters that contradict the tenant set: `admitted - removed`
        // must be the tenant count, and `removed` at most `admitted`.
        for (admitted, removed) in [(0, 0), (2, 0), (1, 2), (3, 3)] {
            let mut bad = good.clone();
            bad.counters.admitted = admitted;
            bad.counters.removed = removed;
            refused(&mut session, bad, "contradict");
        }

        // A negative storage demand would lend capacity to the others.
        let mut bad = good.clone();
        bad.tenants[0].venv = one_guest(1, -100.0);
        bad.tenants[0].mapping = Mapping::new(vec![host0], vec![]);
        refused(&mut session, bad, "negative");

        assert_eq!(
            session.residual(),
            &residual_before,
            "failed restores must not touch state"
        );
        assert_eq!(session.counters(), counters_before);
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
