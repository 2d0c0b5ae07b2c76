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
use parking_lot::Mutex;

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

    /// Runs `f` once per item, fanning across the pool (never more workers
    /// than items), and returns the results in the order of `items`.
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
        let n = items.len();
        let work: SegQueue<(usize, T)> = SegQueue::new();
        for pair in items.into_iter().enumerate() {
            work.push(pair);
        }
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

        crossbeam::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|_| {
                    let mut cache = MapCache::new();
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
    fn run_without_tracking_keeps_the_tracer_disabled() {
        let runner = ParallelRunner::new(1);
        let enabled = runner.run(vec![()], |(), cache| cache.trace.is_enabled());
        assert_eq!(enabled, vec![false]);
    }
}
