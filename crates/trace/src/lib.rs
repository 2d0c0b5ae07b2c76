//! Structured observability for the mapping pipeline.
//!
//! The core pipeline emits [`TraceEvent`]s into an [`EventSink`] behind a
//! [`Tracer`]. A disabled tracer is a `None` — [`Tracer::emit`] takes a
//! closure so that event construction (string formatting, counter
//! snapshots) is never even evaluated unless a sink is attached. Four
//! sinks ship in-tree, mirroring how the rest of the workspace vendors
//! its dependencies:
//!
//! - [`NullSink`]: enabled but discards everything — measures the pure
//!   dispatch overhead in benches.
//! - [`RingSink`]: bounded in-memory ring buffer.
//! - [`SharedSink`]: an unbounded log the caller keeps a handle to — what
//!   tests inspect.
//! - [`JsonlSink`]: one JSON object per line via the vendored
//!   `serde_json`, the `--trace <path>` file format.
//!
//! [`check`] holds an event stream to the trace contract (bracketed spans
//! in pipeline order, per-phase counter invariants, serve bookkeeping);
//! [`parse_event`] reads one line of a JSONL trace back.
//!
//! Events deliberately split *decision* fields (which links routed, how
//! many co-locations, how many migration moves) from *volatile* fields
//! (wall-clock spans, cache hit counters). The decision stream is a pure
//! function of the inputs and RNG seed; the volatile fields depend on
//! machine load and cache warmth. [`TraceEvent::redact_volatile`] zeroes
//! the latter so determinism tests can compare warm- and cold-cache runs
//! event-for-event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

mod check;
pub use check::{check, parse_event, Violation};

/// The three stages of the paper's pipeline (§4), reused by every mapper
/// that reports spans (greedy mappers skip Migration; annealing reports
/// its Metropolis loop as Migration). Variants order as the pipeline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Guest placement (co-location + first-fit).
    Hosting,
    /// Load-balancing migration (or the annealing loop).
    Migration,
    /// Per-link route search.
    Networking,
    /// Exact branch-and-bound search (the certification oracle, not a
    /// pipeline stage — appears after Networking in trace order).
    Exact,
}

/// Counters snapshotted into a [`TraceEvent::PhaseEnd`]. All fields
/// default to zero; each phase fills only the ones it owns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCounters {
    /// Hosting: link endpoints placed together on one host.
    pub colocation_hits: u64,
    /// Hosting: placements that fell back to first-fit after co-location
    /// was impossible.
    pub first_fit_fallbacks: u64,
    /// Migration: moves (or annealing proposals) actually performed.
    pub moves_accepted: u64,
    /// Migration: candidate moves evaluated but not taken.
    pub moves_rejected: u64,
    /// Migration: candidate moves whose energy was evaluated (accepted
    /// plus rejected). Deterministic — a pure function of the decision
    /// stream.
    pub proposals_evaluated: u64,
    /// Migration: hypothetical evaluations served by the O(1)/O(degree)
    /// delta paths (objective accumulator + CSR bandwidth delta) instead
    /// of a full recompute. Deterministic.
    pub delta_evaluations: u64,
    /// Migration: full O(hosts) objective evaluations (accumulator builds
    /// and periodic drift refreshes). Deterministic — refresh cadence is
    /// driven by update counts, not wall clock.
    pub full_evaluations: u64,
    /// Networking: A*Prune nodes expanded.
    pub astar_expansions: u64,
    /// Networking: A*Prune nodes pushed onto the open list.
    pub astar_pushed: u64,
    /// Networking: Dijkstra runs of A*Prune's bandwidth guide.
    /// Deterministic — a pure function of the instance.
    pub guide_probes: u64,
    /// Networking: DFS backtrack steps (the R and HS baselines).
    pub dfs_backtracks: u64,
    /// Networking: `ar[]` table misses — Dijkstra runs the `MapCache`
    /// could not avoid. Volatile: depends on cache warmth.
    pub dijkstra_runs: u64,
    /// Networking: `ar[]` table hits served by the `MapCache`.
    /// Volatile: depends on cache warmth.
    pub cache_hits: u64,
    /// Exact: branch-and-bound search nodes expanded. Deterministic —
    /// the search order is a pure function of the instance.
    pub exact_nodes_expanded: u64,
    /// Exact: subtrees pruned (bound, capacity, or latency).
    pub exact_nodes_pruned: u64,
    /// Migration (parallel tempering): temperature-exchange attempts
    /// between adjacent replicas at round checkpoints. Deterministic —
    /// a pure function of the ladder size and round count.
    pub replica_exchanges: u64,
    /// Migration (parallel tempering): exchange attempts accepted by the
    /// Metropolis criterion. Deterministic — the swap RNG is seeded.
    pub exchange_accepts: u64,
    /// Hosting (randomized rounding): multiplicative-weights iterations
    /// of the fractional packing-LP solver. Deterministic — a pure
    /// function of the instance and the solver configuration.
    pub lp_iterations: u64,
    /// Hosting (randomized rounding): placement samples drawn from the
    /// fractional solution before one passed the feasibility prechecks.
    /// Deterministic — driven by the seeded RNG.
    pub rounding_attempts: u64,
    /// Hosting (randomized rounding): per-guest repairs applied while
    /// rounding (capacity fallbacks away from the sampled host).
    /// Deterministic.
    pub repairs: u64,
    /// Exact (Lagrangian bound): dual evaluations performed across the
    /// search — at least one per expanded node when the Lagrangian bound
    /// is active, exactly zero under the water-filling bound.
    /// Deterministic — the ascent is a pure function of the instance.
    pub subgradient_iters: u64,
    /// Exact (Lagrangian bound): nodes where the Lagrangian bound
    /// strictly exceeded the water-filling bound. Deterministic.
    pub bound_improvements: u64,
    /// Exact (Lagrangian bound): bound prunes only the Lagrangian bound
    /// fired (the water-filling bound alone would have kept searching).
    /// Always ≤ `exact_nodes_pruned`. Deterministic.
    pub nodes_pruned_lagrangian: u64,
}

impl PhaseCounters {
    /// Copy with the cache-warmth-dependent fields zeroed.
    pub fn redact_volatile(mut self) -> PhaseCounters {
        self.dijkstra_runs = 0;
        self.cache_hits = 0;
        self
    }
}

/// The request family a serve session processes — mirrors the JSONL
/// protocol verbs of `emumap serve` (core depends on this crate, not
/// vice versa).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestKind {
    /// Admit a virtual environment (embed or reject).
    Apply,
    /// Tear down a tenant and release its residuals.
    Remove,
    /// Report session state without mutating it.
    Status,
    /// Snapshot the full testbed state to disk.
    Save,
    /// Replace session state from a snapshot.
    Restore,
}

/// Session-lifetime counters snapshotted into every
/// [`TraceEvent::RequestEnd`]. All deterministic — pure functions of the
/// request stream and seed, so golden-file diffs may include them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeCounters {
    /// `apply` requests that produced a complete embedding.
    pub admitted: u64,
    /// `apply` requests refused (mapper failure or duplicate id).
    pub rejected: u64,
    /// `remove` requests that tore down a tenant.
    pub removed: u64,
    /// Tenants currently embedded (`admitted - removed`, adjusted by
    /// `restore`).
    pub active_tenants: u64,
    /// Guests currently placed across all active tenants.
    pub placed_guests: u64,
    /// Virtual links currently holding bandwidth on physical routes
    /// (intra-host links excluded).
    pub routed_links: u64,
}

/// Why a link could not be routed: a router's own verdict, or the core
/// crate's `diagnose_route` proofs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LinkVerdict {
    /// No infeasibility proof found; the failure may be heuristic (e.g.
    /// an unlucky DFS or a pruned A* search).
    PossiblyRoutable,
    /// Even the latency-shortest path exceeds the bound.
    LatencyInfeasible {
        /// Best achievable latency, milliseconds.
        best_possible_ms: f64,
        /// The link's bound, milliseconds.
        bound_ms: f64,
    },
    /// Residual max-flow between the endpoints is below the demand.
    BandwidthInfeasible {
        /// Residual max-flow, kbit/s.
        max_flow_kbps: f64,
        /// The link's demand, kbit/s.
        demand_kbps: f64,
    },
}

/// One structured event from a mapping run. Serialized with serde's
/// default externally-tagged enum format, one JSON object per JSONL line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A mapper began a run.
    MapStart {
        /// Mapper name ("HMN", "R", "FFD", ...).
        mapper: String,
        /// Guests in the virtual environment.
        guests: u64,
        /// Virtual links in the environment.
        links: u64,
    },
    /// A pipeline phase began.
    PhaseStart {
        /// Which phase.
        phase: Phase,
    },
    /// A pipeline phase finished.
    PhaseEnd {
        /// Which phase.
        phase: Phase,
        /// Wall-clock span, microseconds. Volatile.
        elapsed_us: u64,
        /// The phase's counters.
        counters: PhaseCounters,
    },
    /// A virtual link whose endpoints share a host — no route needed.
    LinkIntraHost {
        /// Virtual link index.
        link: u64,
    },
    /// A virtual link was routed through the physical network.
    LinkRouted {
        /// Virtual link index.
        link: u64,
        /// Physical hops on the chosen route.
        hops: u64,
    },
    /// A virtual link could not be routed.
    LinkFailed {
        /// Virtual link index.
        link: u64,
        /// Infeasibility diagnosis, when one was computed.
        verdict: LinkVerdict,
    },
    /// The run finished.
    MapEnd {
        /// Whether a complete mapping was produced.
        ok: bool,
        /// The Eq. 10 objective, when the run succeeded.
        objective: Option<f64>,
        /// Whole-run wall-clock, microseconds. Volatile.
        elapsed_us: u64,
    },
    /// A serve session began processing one request. Any `MapStart` ..
    /// `MapEnd` span between this and the matching [`RequestEnd`](Self::RequestEnd) belongs
    /// to the embedded mapper run of an `apply`.
    RequestStart {
        /// Monotone per-session request sequence number.
        seq: u64,
        /// Protocol verb.
        kind: RequestKind,
        /// Tenant id, for `apply`/`remove` requests.
        tenant: Option<String>,
    },
    /// A serve session finished processing one request.
    RequestEnd {
        /// Sequence number of the matching [`RequestStart`](Self::RequestStart).
        seq: u64,
        /// Whether the request succeeded (`apply` rejections are *not*
        /// errors — an orderly rejection is `ok: true`; see the admit
        /// counters for the verdict).
        ok: bool,
        /// Request wall-clock, microseconds. Volatile.
        elapsed_us: u64,
        /// Session-lifetime admit/reject/teardown counters after this
        /// request.
        counters: ServeCounters,
    },
}

impl TraceEvent {
    /// The `(phase, elapsed_us, counters)` a `PhaseEnd` closes with;
    /// `None` for every other event.
    pub fn phase_end(&self) -> Option<(Phase, u64, PhaseCounters)> {
        match *self {
            TraceEvent::PhaseEnd {
                phase,
                elapsed_us,
                counters,
            } => Some((phase, elapsed_us, counters)),
            _ => None,
        }
    }

    /// Copy with every volatile field (wall-clock spans, cache-warmth
    /// counters) zeroed, leaving only the deterministic decision stream.
    /// Two runs with the same inputs and seed must produce identical
    /// redacted sequences regardless of cache history or machine load.
    pub fn redact_volatile(&self) -> TraceEvent {
        match self.clone() {
            TraceEvent::PhaseEnd {
                phase, counters, ..
            } => TraceEvent::PhaseEnd {
                phase,
                elapsed_us: 0,
                counters: counters.redact_volatile(),
            },
            TraceEvent::MapEnd { ok, objective, .. } => TraceEvent::MapEnd {
                ok,
                objective,
                elapsed_us: 0,
            },
            TraceEvent::RequestEnd {
                seq, ok, counters, ..
            } => TraceEvent::RequestEnd {
                seq,
                ok,
                elapsed_us: 0,
                counters,
            },
            other => other,
        }
    }
}

/// Where emitted events go. Implementations must be cheap per call —
/// sinks run inside the mapping hot path when tracing is enabled.
pub trait EventSink: Send {
    /// Accept one event.
    fn record(&mut self, event: TraceEvent);
    /// Flush any buffered output, surfacing deferred I/O errors.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A sink that discards everything. Attaching it keeps the tracer
/// *enabled* (events are constructed and dispatched), which is exactly
/// what the overhead benchmark wants to measure.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}
}

/// A bounded in-memory ring buffer. When full, the oldest event is
/// dropped and counted. Tests read the retained events back.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: usize,
}

impl RingSink {
    /// A ring retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Consumes the ring, returning retained events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into()
    }
}

impl EventSink for RingSink {
    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// An unbounded log shared with its creator: clone it, attach one clone
/// to a [`Tracer`], and read the events back through the other — what
/// tests use, since an attached sink cannot be inspected in place.
#[derive(Clone, Debug, Default)]
pub struct SharedSink(Arc<Mutex<Vec<TraceEvent>>>);

impl SharedSink {
    /// The events recorded so far, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.lock().expect("sink lock").clone()
    }
}

impl EventSink for SharedSink {
    fn record(&mut self, event: TraceEvent) {
        self.0.lock().expect("sink lock").push(event);
    }
}

/// Writes one JSON object per line through a [`BufWriter`]. I/O errors
/// are deferred: `record` latches the first failure and `flush` reports
/// it, so the mapping hot path never returns I/O results.
pub struct JsonlSink<W: Write + Send> {
    out: BufWriter<W>,
    lines: usize,
    error: Option<std::io::Error>,
}

impl JsonlSink<std::fs::File> {
    /// Creates (truncating) a JSONL file, making parent directories.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: BufWriter::new(out),
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully serialized so far.
    pub fn lines(&self) -> usize {
        self.lines
    }
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("error", &self.error)
            .finish()
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        match serde_json::to_string(&event) {
            Ok(line) => {
                if let Err(e) = writeln!(self.out, "{line}") {
                    self.error = Some(e);
                } else {
                    self.lines += 1;
                }
            }
            Err(e) => {
                self.error = Some(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                ));
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// The handle the pipeline emits through. Disabled by default; the
/// disabled path is a single `Option` check and the event-constructing
/// closure is never called.
#[derive(Default)]
pub struct Tracer {
    sink: Option<Box<dyn EventSink>>,
}

impl Tracer {
    /// A tracer that drops everything at zero cost.
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// A tracer feeding the given sink.
    pub fn new(sink: Box<dyn EventSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Whether a sink is attached. Use to gate *expensive* event
    /// payloads (e.g. infeasibility diagnosis) that `emit`'s lazy
    /// closure alone cannot make free.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event produced by `make` — which is only invoked when a
    /// sink is attached.
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.record(make());
        }
    }

    /// Detaches and returns the sink (for flushing/inspection), leaving
    /// the tracer disabled.
    pub fn take_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.take()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> TraceEvent {
        TraceEvent::PhaseEnd {
            phase: Phase::Networking,
            elapsed_us: 1234,
            counters: PhaseCounters {
                astar_expansions: 7,
                dijkstra_runs: 3,
                cache_hits: 9,
                ..Default::default()
            },
        }
    }

    #[test]
    fn disabled_tracer_never_constructs_events() {
        let mut tracer = Tracer::disabled();
        let mut constructed = 0;
        tracer.emit(|| {
            constructed += 1;
            sample_event()
        });
        assert_eq!(constructed, 0);
        assert!(!tracer.is_enabled());
        assert!(tracer.take_sink().is_none());
    }

    #[test]
    fn ring_sink_bounds_and_counts_drops() {
        let mut ring = RingSink::new(2);
        for link in 0..5u64 {
            ring.record(TraceEvent::LinkIntraHost { link });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<TraceEvent> = ring.into_events();
        assert_eq!(
            kept,
            vec![
                TraceEvent::LinkIntraHost { link: 3 },
                TraceEvent::LinkIntraHost { link: 4 }
            ]
        );
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(TraceEvent::MapStart {
            mapper: "HMN".to_string(),
            guests: 10,
            links: 4,
        });
        sink.record(sample_event());
        sink.record(TraceEvent::MapEnd {
            ok: true,
            objective: Some(573.9),
            elapsed_us: 42,
        });
        assert_eq!(sink.lines(), 3);
        sink.flush().expect("flush");
        let text = String::from_utf8(sink.out.into_inner().expect("inner")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let value = serde_json::value_from_str(line).expect("line parses");
            assert!(
                matches!(value, serde::Value::Object(_)),
                "line is an object: {line}"
            );
        }
        let back: TraceEvent = serde_json::from_str(lines[1]).expect("roundtrip");
        assert_eq!(back, sample_event());
    }

    #[test]
    fn redact_volatile_zeroes_timings_and_cache_counters() {
        let redacted = sample_event().redact_volatile();
        match redacted {
            TraceEvent::PhaseEnd {
                elapsed_us,
                counters,
                ..
            } => {
                assert_eq!(elapsed_us, 0);
                assert_eq!(counters.dijkstra_runs, 0);
                assert_eq!(counters.cache_hits, 0);
                assert_eq!(counters.astar_expansions, 7, "decision counters survive");
            }
            other => panic!("unexpected: {other:?}"),
        }
        let end = TraceEvent::MapEnd {
            ok: true,
            objective: Some(1.0),
            elapsed_us: 99,
        };
        assert_eq!(
            end.redact_volatile(),
            TraceEvent::MapEnd {
                ok: true,
                objective: Some(1.0),
                elapsed_us: 0
            }
        );
        let routed = TraceEvent::LinkRouted { link: 3, hops: 2 };
        assert_eq!(routed.redact_volatile(), routed);
    }

    #[test]
    fn request_spans_roundtrip_and_redact() {
        let start = TraceEvent::RequestStart {
            seq: 7,
            kind: RequestKind::Apply,
            tenant: Some("t-7".to_string()),
        };
        let end = TraceEvent::RequestEnd {
            seq: 7,
            ok: true,
            elapsed_us: 8123,
            counters: ServeCounters {
                admitted: 5,
                rejected: 1,
                removed: 2,
                active_tenants: 3,
                placed_guests: 40,
                routed_links: 12,
            },
        };
        for ev in [&start, &end] {
            let back: TraceEvent =
                serde_json::from_str(&serde_json::to_string(ev).unwrap()).unwrap();
            assert_eq!(&back, ev);
        }
        assert_eq!(start.redact_volatile(), start, "starts carry no clock");
        match end.redact_volatile() {
            TraceEvent::RequestEnd {
                seq,
                ok,
                elapsed_us,
                counters,
            } => {
                assert_eq!((seq, ok, elapsed_us), (7, true, 0));
                assert_eq!(counters.admitted, 5, "admit counters survive");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn tracer_dispatches_to_attached_sink() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct CountSink(Arc<AtomicUsize>);
        impl EventSink for CountSink {
            fn record(&mut self, _event: TraceEvent) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let count = Arc::new(AtomicUsize::new(0));
        let mut tracer = Tracer::new(Box::new(CountSink(Arc::clone(&count))));
        assert!(tracer.is_enabled());
        tracer.emit(|| TraceEvent::LinkRouted { link: 1, hops: 4 });
        tracer.emit(|| TraceEvent::MapEnd {
            ok: true,
            objective: None,
            elapsed_us: 0,
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
        assert!(tracer.take_sink().is_some());
        assert!(!tracer.is_enabled());
    }
}
