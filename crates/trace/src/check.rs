//! The trace contract: the rules every event stream the workspace emits
//! must satisfy, checked by [`check`] (and by `emumap trace-check` over
//! JSONL files).
//!
//! A stream holding any `RequestStart`/`RequestEnd` is a **serve stream**
//! (one span per daemon request); anything else is a **map stream** (one
//! mapper run).
//!
//! A map stream is one or more mapper runs (a `pool` writes one per
//! member it tries). Map stream rules, per run:
//!
//! * it opens with `MapStart` and closes with `MapEnd`;
//! * `PhaseStart`/`PhaseEnd` pairs are bracketed (no overlap, the end
//!   matches the open phase, every phase closes);
//! * phases end in pipeline order (Hosting, Migration, Networking,
//!   Exact). The retrying baselines (R, RA, HS) restart the order at
//!   Hosting for each attempt;
//! * a Migration span has `delta_evaluations >= proposals_evaluated`
//!   (every evaluated proposal costs at least one incremental probe) and
//!   `exchange_accepts <= replica_exchanges`; a PT run attempts at least
//!   one exchange (otherwise it is multi-start, not tempering);
//! * a successful RR run's Hosting span ran at least one LP iteration and
//!   at least one rounding attempt;
//! * an Exact span has `nodes_pruned_lagrangian <= exact_nodes_pruned`; a
//!   successful `EXACT` (Lagrangian-bound) run priced at least
//!   `max(1, exact_nodes_expanded)` dual evaluations, and an `EXACT-WF`
//!   (water-filling) run reports no Lagrangian work at all;
//! * a `LinkFailed` verdict's numbers fit its kind: all are finite and
//!   non-negative, a demand is positive, a `LatencyInfeasible` best
//!   latency exceeds its bound and a `Routable` one is within the bound
//!   plus the `1e-9` acceptance slack.
//!
//! Serve stream rules:
//!
//! * it opens with `RequestStart` and closes with `RequestEnd`; request
//!   spans are bracketed, with consecutive `seq` numbers;
//! * Apply and Remove spans name a tenant;
//! * mapper events appear only inside Apply spans, as complete
//!   `MapStart`..`MapEnd` segments, each held to the map stream rules;
//! * the admitted/rejected/removed counters never decrease, except across
//!   a Restore span (which installs a snapshot's counters wholesale);
//!   `removed <= admitted` and `active_tenants == admitted - removed`
//!   after every request.
//!
//! Event shapes (tags, field types, non-negative integers) are enforced
//! by deserializing into [`TraceEvent`] before these rules run.

use crate::{LinkVerdict, Phase, PhaseCounters, RequestKind, ServeCounters, TraceEvent};
use serde::Value;

/// One broken rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending event in the checked slice, or `None` for a
    /// whole-stream problem (an empty stream, a span never closed).
    pub event: Option<usize>,
    /// What is wrong.
    pub message: String,
}

/// Parses one JSONL trace line into an event. Beyond deserializing, the
/// line must carry no keys the event type does not define, so a stray or
/// misspelled field is reported instead of silently dropped.
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let value = serde_json::value_from_str(line).map_err(|e| format!("not JSON: {e}"))?;
    let event: TraceEvent = serde::Deserialize::from_value(&value).map_err(|e| e.to_string())?;
    if !keys_within(&value, &serde::Serialize::to_value(&event)) {
        return Err("unexpected keys for its event type".to_string());
    }
    Ok(event)
}

/// Whether every object key in `parsed` also appears, at the same place,
/// in `canonical`.
fn keys_within(parsed: &Value, canonical: &Value) -> bool {
    match (parsed, canonical) {
        (Value::Object(fields), Value::Object(known)) => fields.iter().all(|(key, v)| {
            known
                .iter()
                .find(|(k, _)| k == key)
                .is_some_and(|(_, c)| keys_within(v, c))
        }),
        (Value::Object(_), _) => false,
        _ => true,
    }
}

/// Checks one event stream against the trace contract (see the module
/// docs); an empty result means the stream is well-formed.
pub fn check(events: &[TraceEvent]) -> Vec<Violation> {
    let mut out = Violations(Vec::new());
    let indexed: Vec<(usize, &TraceEvent)> = events.iter().enumerate().collect();
    if indexed.is_empty() {
        out.stream("no events");
    } else if events.iter().any(is_request_event) {
        check_serve_stream(&indexed, &mut out);
    } else {
        check_map_segments(&indexed, &mut out);
    }
    out.0
}

struct Violations(Vec<Violation>);

impl Violations {
    fn at(&mut self, event: usize, message: impl Into<String>) {
        self.0.push(Violation {
            event: Some(event),
            message: message.into(),
        });
    }

    fn stream(&mut self, message: impl Into<String>) {
        self.0.push(Violation {
            event: None,
            message: message.into(),
        });
    }
}

fn is_request_event(e: &TraceEvent) -> bool {
    matches!(
        e,
        TraceEvent::RequestStart { .. } | TraceEvent::RequestEnd { .. }
    )
}

/// Mappers that retry whole attempts, restarting the pipeline each time.
const RETRYING_MAPPERS: &[&str] = &["R", "RA", "HS"];

/// A map stream: consecutive mapper runs (a `pool` writes one per member
/// it tries), each held to the map rules under its own mapper name. A
/// run ends at its `MapEnd`, or where the next `MapStart` begins.
fn check_map_segments(events: &[(usize, &TraceEvent)], out: &mut Violations) {
    let mut rest = events;
    while !rest.is_empty() {
        let len = rest
            .iter()
            .enumerate()
            .find_map(|(k, (_, e))| match e {
                TraceEvent::MapStart { .. } if k > 0 => Some(k),
                TraceEvent::MapEnd { .. } => Some(k + 1),
                _ => None,
            })
            .unwrap_or(rest.len());
        check_map_stream(&rest[..len], out);
        rest = &rest[len..];
    }
}

/// One mapper run: `MapStart` .. `MapEnd` with bracketed, ordered phases.
fn check_map_stream(events: &[(usize, &TraceEvent)], out: &mut Violations) {
    let (first, last) = (events[0], events[events.len() - 1]);
    let mapper = match first.1 {
        TraceEvent::MapStart { mapper, .. } => Some(mapper.as_str()),
        _ => {
            out.at(first.0, "stream must open with MapStart");
            None
        }
    };
    let map_ok = match last.1 {
        TraceEvent::MapEnd { ok, .. } => *ok,
        _ => {
            out.at(last.0, "stream must close with MapEnd");
            false
        }
    };
    let retrying = mapper.is_some_and(|m| RETRYING_MAPPERS.contains(&m));
    let mut open: Option<Phase> = None;
    let mut last_phase: Option<Phase> = None;
    for &(i, event) in events {
        if let TraceEvent::PhaseStart { phase } = event {
            if let Some(p) = open {
                out.at(i, format!("PhaseStart while {p:?} is open"));
            }
            open = Some(*phase);
        }
        if let TraceEvent::LinkFailed { verdict, .. } = event {
            check_verdict(i, verdict, out);
        }
        let Some((phase, _, counters)) = event.phase_end() else {
            continue;
        };
        if open.take() != Some(phase) {
            out.at(
                i,
                format!("PhaseEnd({phase:?}) does not match the open phase"),
            );
        }
        let restart = retrying && phase == Phase::Hosting;
        if last_phase.is_some_and(|p| p > phase) && !restart {
            out.at(i, format!("phase {phase:?} out of pipeline order"));
        }
        last_phase = Some(phase);
        check_phase_counters(i, phase, &counters, mapper.unwrap_or(""), map_ok, out);
    }
    if let Some(p) = open {
        out.stream(format!("phase {p:?} never closed"));
    }
}

/// The per-phase counter invariants of a closed span.
fn check_phase_counters(
    i: usize,
    phase: Phase,
    c: &PhaseCounters,
    mapper: &str,
    map_ok: bool,
    out: &mut Violations,
) {
    let (proposals, deltas) = (c.proposals_evaluated, c.delta_evaluations);
    let (exchanges, accepts) = (c.replica_exchanges, c.exchange_accepts);
    let (expanded, pruned) = (c.exact_nodes_expanded, c.exact_nodes_pruned);
    let (subgradient, lagrangian) = (c.subgradient_iters, c.nodes_pruned_lagrangian);
    let mut flag = |broken: bool, message: String| {
        if broken {
            out.at(i, message);
        }
    };
    match phase {
        Phase::Migration => {
            // Every evaluated proposal costs at least one incremental probe.
            flag(
                deltas < proposals,
                format!("delta_evaluations {deltas} < proposals_evaluated {proposals}"),
            );
            flag(
                accepts > exchanges,
                format!("exchange_accepts {accepts} > replica_exchanges {exchanges}"),
            );
            // Without exchanges a replica ladder is plain multi-start.
            flag(
                mapper == "PT" && exchanges == 0,
                "PT run attempted no replica exchanges".to_string(),
            );
        }
        // A failed RR run may bail before either counter moves.
        Phase::Hosting if mapper == "RR" && map_ok => {
            flag(
                c.lp_iterations == 0,
                "successful RR run ran no LP iterations".to_string(),
            );
            flag(
                c.rounding_attempts == 0,
                "successful RR run never sampled its fractional solution".to_string(),
            );
        }
        Phase::Exact => {
            flag(
                lagrangian > pruned,
                format!("nodes_pruned_lagrangian {lagrangian} > exact_nodes_pruned {pruned}"),
            );
            // Fewer dual evaluations than nodes: the bound silently fell
            // back to water-filling.
            flag(
                mapper == "EXACT" && map_ok && subgradient < expanded.max(1),
                format!("Lagrangian run priced {subgradient} duals over {expanded} nodes"),
            );
            flag(
                mapper == "EXACT-WF"
                    && (subgradient, c.bound_improvements, lagrangian) != (0, 0, 0),
                "water-filling run reports Lagrangian work".to_string(),
            );
        }
        _ => {}
    }
}

/// A `LinkFailed` verdict's numbers fit its kind.
fn check_verdict(i: usize, verdict: &LinkVerdict, out: &mut Violations) {
    let (numbers, misfit) = match *verdict {
        LinkVerdict::BandwidthInfeasible { demand_kbps: d } => ([d, d], d == 0.0),
        LinkVerdict::LatencyInfeasible {
            best_possible_ms: best,
            bound_ms: bound,
        } => ([best, bound], best <= bound),
        LinkVerdict::Routable {
            best_possible_ms: best,
            bound_ms: bound,
        } => ([best, bound], best > bound + 1e-9),
    };
    if !numbers.iter().all(|x| x.is_finite() && *x >= 0.0) {
        out.at(
            i,
            format!("verdict number negative or not finite: {verdict:?}"),
        );
    } else if misfit {
        out.at(
            i,
            format!("verdict numbers do not fit its kind: {verdict:?}"),
        );
    }
}

/// A daemon session: consecutive request spans, each optionally wrapping
/// complete map segments, with leak-free counter bookkeeping.
fn check_serve_stream(events: &[(usize, &TraceEvent)], out: &mut Violations) {
    let (first, last) = (events[0], events[events.len() - 1]);
    if !matches!(first.1, TraceEvent::RequestStart { .. }) {
        out.at(first.0, "serve stream must open with RequestStart");
    }
    if !matches!(last.1, TraceEvent::RequestEnd { .. }) {
        out.at(last.0, "serve stream must close with RequestEnd");
    }
    let mut open: Option<(u64, RequestKind)> = None;
    let mut prev_seq: Option<u64> = None;
    let mut prev_counters: Option<ServeCounters> = None;
    let mut segment: Vec<(usize, &TraceEvent)> = Vec::new();
    for &(i, event) in events {
        match (event, open) {
            (TraceEvent::RequestStart { seq, kind, tenant }, _) => {
                if let Some((open_seq, _)) = open {
                    out.at(i, format!("RequestStart while request {open_seq} is open"));
                }
                if prev_seq.is_some_and(|p| *seq != p + 1) {
                    out.at(i, format!("seq {seq} does not follow {prev_seq:?}"));
                }
                if matches!(kind, RequestKind::Apply | RequestKind::Remove) && tenant.is_none() {
                    out.at(i, format!("{kind:?} span names no tenant"));
                }
                open = Some((*seq, *kind));
                segment.clear();
            }
            (TraceEvent::RequestEnd { .. }, None) => out.at(i, "RequestEnd with no open request"),
            (TraceEvent::RequestEnd { seq, counters, .. }, Some((open_seq, kind))) => {
                if *seq != open_seq {
                    out.at(i, format!("RequestEnd seq {seq} does not match {open_seq}"));
                }
                check_serve_counters(i, counters, prev_counters, kind, out);
                if !segment.is_empty() {
                    out.at(
                        i,
                        format!("request {open_seq} left an unclosed map segment"),
                    );
                }
                (open, prev_seq, prev_counters) = (None, Some(open_seq), Some(*counters));
            }
            // A mapper event: only legal inside an Apply span, as part of a
            // complete MapStart..MapEnd segment.
            (_, None) => out.at(i, format!("{} outside any request span", tag(event))),
            (_, Some((_, kind))) if kind != RequestKind::Apply => {
                out.at(i, format!("{} inside a {kind:?} span", tag(event)));
            }
            (_, Some((open_seq, _))) => {
                let map_start = matches!(event, TraceEvent::MapStart { .. });
                if map_start && !segment.is_empty() {
                    out.at(i, format!("nested MapStart inside request {open_seq}"));
                }
                segment.push((i, event));
                if matches!(event, TraceEvent::MapEnd { .. }) {
                    check_map_stream(&segment, out);
                    segment.clear();
                }
            }
        }
    }
    if let Some((open_seq, _)) = open {
        out.stream(format!("request {open_seq} never closed"));
    }
}

/// The session-counter bookkeeping after one request.
fn check_serve_counters(
    i: usize,
    c: &ServeCounters,
    prev: Option<ServeCounters>,
    kind: RequestKind,
    out: &mut Violations,
) {
    // A Restore span installs the snapshot's counters wholesale, which may
    // legitimately rewind past churn: re-baseline there.
    if let Some(p) = prev.filter(|_| kind != RequestKind::Restore) {
        for (key, now, before) in [
            ("admitted", c.admitted, p.admitted),
            ("rejected", c.rejected, p.rejected),
            ("removed", c.removed, p.removed),
        ] {
            if now < before {
                out.at(
                    i,
                    format!("counter {key} went backwards ({before} -> {now})"),
                );
            }
        }
    }
    let (admitted, removed, active) = (c.admitted, c.removed, c.active_tenants);
    if removed > admitted {
        out.at(i, format!("removed {removed} exceeds admitted {admitted}"));
    }
    if admitted.checked_sub(removed) != Some(active) {
        out.at(
            i,
            format!("active_tenants {active} != admitted - removed (a leak)"),
        );
    }
}

/// The serialized tag of a mapper event.
fn tag(e: &TraceEvent) -> &'static str {
    match e {
        TraceEvent::MapStart { .. } => "MapStart",
        TraceEvent::PhaseStart { .. } => "PhaseStart",
        TraceEvent::PhaseEnd { .. } => "PhaseEnd",
        TraceEvent::LinkIntraHost { .. } => "LinkIntraHost",
        TraceEvent::LinkRouted { .. } => "LinkRouted",
        TraceEvent::LinkFailed { .. } => "LinkFailed",
        TraceEvent::MapEnd { .. } => "MapEnd",
        TraceEvent::RequestStart { .. } | TraceEvent::RequestEnd { .. } => "Request",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Phase::{Exact, Hosting, Migration, Networking};
    use RequestKind::{Apply, Remove, Restore, Status};

    fn map_start(mapper: &str) -> TraceEvent {
        TraceEvent::MapStart {
            mapper: mapper.to_string(),
            guests: 2,
            links: 1,
        }
    }

    fn map_end(ok: bool) -> TraceEvent {
        TraceEvent::MapEnd {
            ok,
            objective: ok.then_some(1.0),
            elapsed_us: 5,
        }
    }

    fn start(phase: Phase) -> TraceEvent {
        TraceEvent::PhaseStart { phase }
    }

    fn end(phase: Phase, counters: PhaseCounters) -> TraceEvent {
        TraceEvent::PhaseEnd {
            phase,
            elapsed_us: 1,
            counters,
        }
    }

    /// A complete map run of `mapper` with one span per entry of `spans`.
    fn run(mapper: &str, ok: bool, spans: &[(Phase, PhaseCounters)]) -> Vec<TraceEvent> {
        let mut events = vec![map_start(mapper)];
        for &(phase, counters) in spans {
            events.extend([start(phase), end(phase, counters)]);
        }
        events.push(map_end(ok));
        events
    }

    /// `run` with default counters.
    fn phases(mapper: &str, phases: &[Phase]) -> Vec<TraceEvent> {
        let spans: Vec<_> = phases
            .iter()
            .map(|&p| (p, PhaseCounters::default()))
            .collect();
        run(mapper, true, &spans)
    }

    fn req_start(seq: u64, kind: RequestKind, tenant: Option<&str>) -> TraceEvent {
        TraceEvent::RequestStart {
            seq,
            kind,
            tenant: tenant.map(str::to_string),
        }
    }

    /// A `RequestEnd` after `admitted`/`rejected`/`removed` requests, with
    /// `active_tenants` forced to `active` when given.
    fn req_end(
        seq: u64,
        [admitted, rejected, removed]: [u64; 3],
        active: Option<u64>,
    ) -> TraceEvent {
        TraceEvent::RequestEnd {
            seq,
            ok: true,
            elapsed_us: 1,
            counters: ServeCounters {
                admitted,
                rejected,
                removed,
                active_tenants: active.unwrap_or(admitted.saturating_sub(removed)),
                ..Default::default()
            },
        }
    }

    /// One request span per `(kind, tenant, tallies)`, with `inner` events
    /// inside the first.
    fn session(
        requests: &[(RequestKind, Option<&str>, [u64; 3])],
        inner: &[TraceEvent],
    ) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for (seq, &(kind, tenant, tallies)) in requests.iter().enumerate() {
            events.push(req_start(seq as u64, kind, tenant));
            if seq == 0 {
                events.extend_from_slice(inner);
            }
            events.push(req_end(seq as u64, tallies, None));
        }
        events
    }

    /// A failed HMN run whose Networking span reports `verdict`.
    fn failed_link(verdict: LinkVerdict) -> Vec<TraceEvent> {
        vec![
            map_start("HMN"),
            start(Networking),
            TraceEvent::LinkFailed { link: 0, verdict },
            end(Networking, PhaseCounters::default()),
            map_end(false),
        ]
    }

    fn late(best_possible_ms: f64, bound_ms: f64) -> Vec<TraceEvent> {
        failed_link(LinkVerdict::LatencyInfeasible {
            best_possible_ms,
            bound_ms,
        })
    }

    fn routable(best_possible_ms: f64, bound_ms: f64) -> Vec<TraceEvent> {
        failed_link(LinkVerdict::Routable {
            best_possible_ms,
            bound_ms,
        })
    }

    fn narrow(demand_kbps: f64) -> Vec<TraceEvent> {
        failed_link(LinkVerdict::BandwidthInfeasible { demand_kbps })
    }

    fn counters(set: impl FnOnce(&mut PhaseCounters)) -> PhaseCounters {
        let mut c = PhaseCounters::default();
        set(&mut c);
        c
    }

    #[test]
    fn well_formed_streams_pass() {
        let churn = [
            (Apply, Some("t"), [1, 0, 0]),
            (Status, None, [1, 0, 0]),
            (Remove, Some("t"), [1, 0, 1]),
            (Restore, None, [0, 0, 0]),
        ];
        let sampled = counters(|c| (c.lp_iterations, c.rounding_attempts) = (16, 1));
        let exchanged = counters(|c| c.replica_exchanges = 1);
        let priced = counters(|c| (c.exact_nodes_expanded, c.subgradient_iters) = (3, 3));
        for events in [
            phases("HMN", &[Hosting, Migration, Networking]),
            // The retry rule: each attempt restarts at Hosting.
            phases("R", &[Hosting, Networking, Hosting, Networking]),
            phases("RA", &[Hosting, Hosting, Networking]),
            phases("HS", &[Hosting, Networking, Networking]),
            run("RR", true, &[(Hosting, sampled)]),
            run("RR", false, &[(Hosting, PhaseCounters::default())]),
            run("PT", true, &[(Migration, exchanged)]),
            run("EXACT", true, &[(Exact, priced)]),
            phases("EXACT-WF", &[Exact]),
            session(&churn, &phases("HMN", &[Hosting])),
            narrow(1.0),
            late(20.0, 10.0),
            // Within the slack of the bound still counts as routable.
            routable(10.0 + 1e-10, 10.0),
        ] {
            assert_eq!(check(&events), vec![], "{events:?}");
        }
    }

    #[test]
    fn each_run_of_a_pool_trace_is_checked_on_its_own() {
        // HMN fails in Networking, then RA starts over at Hosting and
        // succeeds: two runs, each in pipeline order.
        let failed = PhaseCounters::default();
        let mut pool = run(
            "HMN",
            false,
            &[(Hosting, failed), (Migration, failed), (Networking, failed)],
        );
        pool.extend(phases("RA", &[Hosting, Networking]));
        assert_eq!(check(&pool), vec![]);
    }

    /// One hand-built violating stream per rule, and (part of) the message
    /// the rule reports.
    #[test]
    fn each_rule_flags_its_violating_stream() {
        let open_hosting = vec![map_start("HMN"), start(Hosting), map_end(false)];
        let hmn_run = phases("HMN", &[Hosting]);
        let cases: Vec<(Vec<TraceEvent>, &str)> = vec![
            (vec![], "no events"),
            (hmn_run[1..].to_vec(), "open with MapStart"),
            (hmn_run[..3].to_vec(), "close with MapEnd"),
            // Phase bracketing and pipeline order.
            (
                vec![
                    map_start("HMN"),
                    start(Hosting),
                    start(Hosting),
                    end(Hosting, PhaseCounters::default()),
                    map_end(true),
                ],
                "PhaseStart while Hosting is open",
            ),
            (
                vec![
                    map_start("HMN"),
                    start(Hosting),
                    end(Networking, PhaseCounters::default()),
                    map_end(true),
                ],
                "does not match the open phase",
            ),
            (open_hosting, "phase Hosting never closed"),
            (
                phases("HMN", &[Networking, Hosting]),
                "out of pipeline order",
            ),
            // Only Hosting restarts an attempt, and only for R, RA and HS.
            (
                phases("HMN", &[Hosting, Networking, Hosting]),
                "out of pipeline order",
            ),
            (
                phases("R", &[Networking, Migration]),
                "out of pipeline order",
            ),
            (
                run(
                    "SA",
                    true,
                    &[(
                        Migration,
                        counters(|c| (c.proposals_evaluated, c.delta_evaluations) = (5, 4)),
                    )],
                ),
                "delta_evaluations 4 < proposals_evaluated 5",
            ),
            (
                run(
                    "PT",
                    true,
                    &[(
                        Migration,
                        counters(|c| (c.replica_exchanges, c.exchange_accepts) = (2, 3)),
                    )],
                ),
                "exchange_accepts 3 > replica_exchanges 2",
            ),
            (
                phases("PT", &[Migration]),
                "PT run attempted no replica exchanges",
            ),
            // Each run of a multi-run stream follows its own mapper name,
            // and one cut short by the next MapStart is unclosed.
            (
                [phases("HMN", &[Hosting]), phases("PT", &[Migration])].concat(),
                "PT run attempted no replica exchanges",
            ),
            (
                [
                    vec![map_start("HMN"), start(Hosting)],
                    phases("RA", &[Hosting]),
                ]
                .concat(),
                "close with MapEnd",
            ),
            (
                run(
                    "RR",
                    true,
                    &[(Hosting, counters(|c| c.rounding_attempts = 1))],
                ),
                "ran no LP iterations",
            ),
            (
                run("RR", true, &[(Hosting, counters(|c| c.lp_iterations = 16))]),
                "never sampled",
            ),
            (
                run(
                    "EXACT",
                    true,
                    &[(
                        Exact,
                        counters(|c| {
                            (c.exact_nodes_pruned, c.nodes_pruned_lagrangian) = (1, 2);
                            c.subgradient_iters = 1;
                        }),
                    )],
                ),
                "nodes_pruned_lagrangian 2 > exact_nodes_pruned 1",
            ),
            (
                run(
                    "EXACT",
                    true,
                    &[(
                        Exact,
                        counters(|c| (c.exact_nodes_expanded, c.subgradient_iters) = (4, 3)),
                    )],
                ),
                "priced 3 duals over 4 nodes",
            ),
            (phases("EXACT", &[Exact]), "priced 0 duals over 0 nodes"),
            (
                run(
                    "EXACT-WF",
                    true,
                    &[(Exact, counters(|c| c.bound_improvements = 1))],
                ),
                "water-filling run reports Lagrangian work",
            ),
            // A verdict's numbers fit its kind.
            (routable(f64::NAN, 10.0), "negative or not finite"),
            (late(f64::INFINITY, 10.0), "negative or not finite"),
            (late(20.0, -1.0), "negative or not finite"),
            (narrow(-5.0), "negative or not finite"),
            (narrow(0.0), "do not fit its kind: BandwidthInfeasible"),
            (late(10.0, 10.0), "do not fit its kind: LatencyInfeasible"),
            (routable(12.0, 10.0), "do not fit its kind: Routable"),
        ];
        for (events, needle) in cases {
            let found = check(&events);
            assert!(
                found.iter().any(|v| v.message.contains(needle)),
                "{needle}: {found:?}"
            );
        }
    }

    #[test]
    fn each_serve_rule_flags_its_violating_stream() {
        let status = |tallies| (Status, None, tallies);
        let hmn_run = phases("HMN", &[Hosting]);
        let mut skipped_seq = session(&[status([0; 3]), status([0; 3])], &[]);
        skipped_seq[2] = req_start(2, Status, None);
        skipped_seq[3] = req_end(2, [0; 3], None);
        let mut wrong_end = session(&[status([0; 3])], &[]);
        wrong_end[1] = req_end(7, [0; 3], None);
        let mut unclosed_segment = session(&[(Apply, Some("t"), [1, 0, 0])], &hmn_run);
        unclosed_segment.remove(hmn_run.len());
        let leak = vec![req_start(0, Status, None), req_end(0, [3, 0, 1], Some(1))];
        let cases: Vec<(Vec<TraceEvent>, &str)> = vec![
            (
                session(&[status([0; 3])], &[])[1..].to_vec(),
                "open with RequestStart",
            ),
            (
                [
                    req_start(0, Status, None),
                    req_start(1, Status, None),
                    req_end(1, [0; 3], None),
                ]
                .to_vec(),
                "RequestStart while request 0 is open",
            ),
            (
                [
                    req_start(0, Status, None),
                    req_end(0, [0; 3], None),
                    req_end(0, [0; 3], None),
                ]
                .to_vec(),
                "RequestEnd with no open request",
            ),
            (wrong_end, "RequestEnd seq 7 does not match 0"),
            (skipped_seq, "seq 2 does not follow Some(0)"),
            (
                session(&[(Apply, None, [0; 3])], &[]),
                "Apply span names no tenant",
            ),
            (
                session(&[(Remove, None, [0; 3])], &[]),
                "Remove span names no tenant",
            ),
            // Map segments appear only inside Apply spans, complete and
            // held to the map rules.
            (
                session(&[status([0; 3])], &hmn_run),
                "MapStart inside a Status span",
            ),
            (
                [hmn_run.clone(), session(&[status([0; 3])], &[])].concat(),
                "MapStart outside any request span",
            ),
            (
                session(
                    &[(Apply, Some("t"), [1, 0, 0])],
                    &[&hmn_run[..1], &hmn_run].concat(),
                ),
                "nested MapStart inside request 0",
            ),
            (unclosed_segment, "request 0 left an unclosed map segment"),
            (
                session(
                    &[(Apply, Some("t"), [1, 0, 0])],
                    &phases("HMN", &[Networking, Hosting]),
                ),
                "out of pipeline order",
            ),
            // Counters are monotone except across Restore.
            (
                session(&[status([2, 1, 1]), status([2, 0, 1])], &[]),
                "counter rejected went backwards (1 -> 0)",
            ),
            (leak, "active_tenants 1 != admitted - removed"),
        ];
        for (events, needle) in cases {
            let found = check(&events);
            assert!(
                found.iter().any(|v| v.message.contains(needle)),
                "{needle}: {found:?}"
            );
        }
        // More removals than admissions also leave active_tenants wrong.
        let found = check(&[req_start(0, Status, None), req_end(0, [1, 0, 2], Some(0))]);
        assert!(
            found[0].message.contains("removed 2 exceeds admitted 1"),
            "{found:?}"
        );
    }

    #[test]
    fn parse_event_rejects_malformed_lines() {
        let good = r#"{"LinkRouted":{"link":3,"hops":2}}"#;
        assert_eq!(
            parse_event(good),
            Ok(TraceEvent::LinkRouted { link: 3, hops: 2 })
        );
        for bad in [
            "not json",
            r#"{"LinkRouted":{"link":3}}"#,
            r#"{"LinkRouted":{"link":-3,"hops":2}}"#,
            r#"{"LinkRouted":{"link":3,"hops":2,"extra":1}}"#,
            r#"{"LinkRouted":{"link":3,"hops":2},"MapEnd":{}}"#,
            r#"{"Unknown":{}}"#,
        ] {
            assert!(parse_event(bad).is_err(), "{bad} parsed");
        }
    }
}
