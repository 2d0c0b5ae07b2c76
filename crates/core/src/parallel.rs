//! A generic deterministic work-fanning engine for independent trials.
//!
//! The experiment grids (Tables 2–3, Figure 1, the CLI `batch` command)
//! all share the same shape: N independent trials, each a pure function of
//! its seeds, whose results are aggregated afterwards. [`ParallelRunner`]
//! fans such trials across a crossbeam scoped-thread pool and returns the
//! results **in input order**, so aggregation code is identical for 1 and
//! 64 threads.
//!
//! Each worker owns one warm [`MapCache`] that it passes to every trial it
//! executes — this is what makes the pool faster than `run per trial in a
//! fresh thread`, not just parallel: the topology Dijkstra tables and the
//! routing scratch buffers amortize across every trial a worker touches.
//! Because the cache is semantically invisible (see `emumap_core::cache`),
//! trial results are bit-identical to a sequential run with any cache
//! sharing, which the determinism suite asserts.

use crate::cache::MapCache;
use crossbeam::queue::SegQueue;
use emumap_trace::{EventSink, Phase, TraceEvent, Tracer};
use parking_lot::Mutex;
use std::sync::Arc;

/// Wall-clock totals per pipeline phase, summed across every trial of a
/// [`ParallelRunner::run_tracked`] call. Timings are volatile (they vary
/// run to run), so these belong in reports, never in determinism checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Total microseconds spent in Hosting phase spans.
    pub hosting_us: u64,
    /// Total microseconds spent in Migration phase spans.
    pub migration_us: u64,
    /// Total microseconds spent in Networking phase spans.
    pub networking_us: u64,
    /// Total microseconds spent in Exact (branch-and-bound oracle) spans.
    pub exact_us: u64,
    /// Phase spans folded in (0 means the trials emitted no spans — e.g. a
    /// mapper without phase instrumentation).
    pub spans: u64,
}

impl PhaseTotals {
    /// Hosting total in seconds.
    pub fn hosting_s(&self) -> f64 {
        self.hosting_us as f64 / 1e6
    }

    /// Migration total in seconds.
    pub fn migration_s(&self) -> f64 {
        self.migration_us as f64 / 1e6
    }

    /// Networking total in seconds.
    pub fn networking_s(&self) -> f64 {
        self.networking_us as f64 / 1e6
    }

    /// Exact-oracle total in seconds.
    pub fn exact_s(&self) -> f64 {
        self.exact_us as f64 / 1e6
    }
}

/// Sink that folds `PhaseEnd` spans into a shared total and drops
/// everything else. Lock contention is negligible: one short lock per
/// phase span, three spans per mapped trial.
struct PhaseTotalsSink {
    totals: Arc<Mutex<PhaseTotals>>,
}

impl EventSink for PhaseTotalsSink {
    fn record(&mut self, event: TraceEvent) {
        if let Some((phase, elapsed_us, _)) = event.phase_end() {
            let mut t = self.totals.lock();
            match phase {
                Phase::Hosting => t.hosting_us += elapsed_us,
                Phase::Migration => t.migration_us += elapsed_us,
                Phase::Networking => t.networking_us += elapsed_us,
                Phase::Exact => t.exact_us += elapsed_us,
            }
            t.spans += 1;
        }
    }
}

/// A fixed-size worker pool executing independent trials in input order.
#[derive(Clone, Copy, Debug)]
pub struct ParallelRunner {
    threads: usize,
}

impl ParallelRunner {
    /// A runner with `threads` workers; `0` means one per available core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        ParallelRunner { threads }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` once per item, fanning across the pool, and returns the
    /// results in the order of `items`.
    ///
    /// `f` receives the worker's private warm [`MapCache`]; it must be a
    /// pure function of the item (modulo the cache, which must not affect
    /// results), so the output is independent of the thread count and of
    /// which worker picked up which item.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T, &mut MapCache) -> R + Sync,
    {
        self.run_inner(items, f, None)
    }

    /// [`run`](Self::run), additionally collecting per-phase wall-clock
    /// totals from the pipeline's trace events.
    ///
    /// Each worker's cache gets a phase-folding tracer, so every mapper
    /// invoked through
    /// [`Mapper::map_with_cache`](crate::Mapper::map_with_cache)
    /// contributes its Hosting/Migration/Networking span timings to the
    /// returned [`PhaseTotals`]. Trials that replace the cache's tracer
    /// with their own sink opt out of the aggregation for that trial.
    /// Results are still deterministic; only the totals' timings vary run
    /// to run.
    pub fn run_tracked<T, R, F>(&self, items: Vec<T>, f: F) -> (Vec<R>, PhaseTotals)
    where
        T: Send,
        R: Send,
        F: Fn(T, &mut MapCache) -> R + Sync,
    {
        let totals = Arc::new(Mutex::new(PhaseTotals::default()));
        let results = self.run_inner(items, f, Some(&totals));
        let totals = *totals.lock();
        (results, totals)
    }

    fn run_inner<T, R, F>(
        &self,
        items: Vec<T>,
        f: F,
        totals: Option<&Arc<Mutex<PhaseTotals>>>,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T, &mut MapCache) -> R + Sync,
    {
        let n = items.len();
        let work: SegQueue<(usize, T)> = SegQueue::new();
        for pair in items.into_iter().enumerate() {
            work.push(pair);
        }
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

        crossbeam::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|_| {
                    let mut cache = MapCache::new();
                    if let Some(totals) = totals {
                        cache.trace = Tracer::new(Box::new(PhaseTotalsSink {
                            totals: Arc::clone(totals),
                        }));
                    }
                    while let Some((idx, item)) = work.pop() {
                        let r = f(item, &mut cache);
                        *results[idx].lock() = Some(r);
                    }
                });
            }
        })
        .expect("worker thread panicked");

        results
            .into_iter()
            .map(|m| m.into_inner().expect("every item was executed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let runner = ParallelRunner::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = runner.run(items, |i, _| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_resolves_to_available_cores() {
        let runner = ParallelRunner::new(0);
        assert!(runner.threads() >= 1);
        let out = runner.run(vec![1, 2, 3], |i, _| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let runner = ParallelRunner::new(2);
        let out: Vec<i32> = runner.run(Vec::<i32>::new(), |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let runner = ParallelRunner::new(8);
        let out = runner.run(vec![7], |i, _| i);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn run_tracked_folds_one_span_per_phase_per_trial() {
        use crate::{Hmn, Mapper};
        use emumap_workloads::{instantiate, ClusterSpec, Scenario, WorkloadKind};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

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
        let runner = ParallelRunner::new(2);
        let trials: Vec<u64> = (0..4).collect();
        let (objectives, totals) = runner.run_tracked(trials, |seed, cache| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Hmn::new()
                .map_with_cache(&inst.phys, &inst.venv, &mut rng, cache)
                .map(|o| o.objective)
                .ok()
        });
        assert!(objectives.iter().all(Option::is_some));
        // HMN emits exactly one Hosting, Migration and Networking span per
        // trial; wall-clock magnitudes are volatile and not asserted.
        assert_eq!(totals.spans, 3 * 4);
    }

    #[test]
    fn run_without_tracking_keeps_the_tracer_disabled() {
        let runner = ParallelRunner::new(1);
        let enabled = runner.run(vec![()], |(), cache| cache.trace.is_enabled());
        assert_eq!(enabled, vec![false]);
    }
}
