//! The span recorder every mapper (and the exact oracle) runs its stages
//! through.
//!
//! A run is `MapStart`, one `PhaseStart`/`PhaseEnd` span per stage, then
//! `MapEnd` — on the error path too. [`Recorder::phase`] opens and closes
//! each span and takes the stage's [`PhaseCounters`] exactly once; the
//! run's [`MapStats`] is then a fold over the recorded spans
//! ([`MapStats::from_phases`]), so the trace and the statistics cannot
//! disagree.

use crate::cache::MapCache;
use crate::error::MapError;
use crate::mapper::{MapOutcome, MapStats};
use emumap_model::{Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters, TraceEvent, Tracer};
use std::time::{Duration, Instant};

/// One run's open `MapStart` plus the spans it has closed so far.
pub(crate) struct Recorder {
    start: Instant,
    phases: Vec<(Phase, Duration, PhaseCounters)>,
    /// Complete attempts the run made (reported as [`MapStats::attempts`]).
    pub(crate) attempts: usize,
}

impl Recorder {
    /// Emits `MapStart` for `mapper` on `venv`.
    pub(crate) fn start(trace: &mut Tracer, mapper: &str, venv: &VirtualEnvironment) -> Self {
        trace.emit(|| TraceEvent::MapStart {
            mapper: mapper.to_string(),
            guests: venv.guest_count() as u64,
            links: venv.link_count() as u64,
        });
        Recorder {
            start: Instant::now(),
            phases: Vec::new(),
            attempts: 1,
        }
    }

    /// Runs `body` inside one `phase` span. `body` returns its result
    /// together with the counters the phase owns — on failure too — and
    /// the span is closed before the result is handed back.
    pub(crate) fn phase<T>(
        &mut self,
        cache: &mut MapCache,
        phase: Phase,
        body: impl FnOnce(&mut MapCache) -> (T, PhaseCounters),
    ) -> T {
        cache.trace.emit(|| TraceEvent::PhaseStart { phase });
        let t = Instant::now();
        let (out, counters) = body(cache);
        let elapsed = t.elapsed();
        cache.trace.emit(|| TraceEvent::PhaseEnd {
            phase,
            elapsed_us: micros(elapsed),
            counters,
        });
        self.phases.push((phase, elapsed, counters));
        out
    }

    /// Emits `MapEnd`: `ok` exactly when an objective is reported.
    pub(crate) fn end(self, trace: &mut Tracer, objective: Option<f64>) {
        trace.emit(|| TraceEvent::MapEnd {
            ok: objective.is_some(),
            objective,
            elapsed_us: micros(self.start.elapsed()),
        });
    }
}

/// Runs one mapper invocation under a [`Recorder`]: `MapStart`, then
/// `stages`, then `MapEnd` whichever way `stages` returns. A success is
/// packaged with the statistics folded from the recorded spans.
pub(crate) fn record_map(
    mapper: &str,
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
    cache: &mut MapCache,
    stages: impl FnOnce(&mut Recorder, &mut MapCache) -> Result<Mapping, MapError>,
) -> Result<MapOutcome, MapError> {
    let mut rec = Recorder::start(&mut cache.trace, mapper, venv);
    match stages(&mut rec, cache) {
        Ok(mapping) => {
            let stats = MapStats {
                attempts: rec.attempts,
                routed_links: mapping.routed_link_count(),
                intra_host_links: mapping.intra_host_link_count(),
                total_time: rec.start.elapsed(),
                ..MapStats::from_phases(rec.phases.iter().copied())
            };
            let outcome = MapOutcome::new(phys, venv, mapping, stats);
            rec.end(&mut cache.trace, Some(outcome.objective));
            Ok(outcome)
        }
        Err(e) => {
            rec.end(&mut cache.trace, None);
            Err(e)
        }
    }
}

/// Whole microseconds in `d`, saturating into the event's `u64`.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}
