//! Measurement plumbing shared by every workload: the counting allocator
//! behind `peak_heap_mb`, the output digest, quantiles, the host-speed
//! calibration, and the per-run record that turns samples into the
//! reported metrics.

use emumap_model::Mapping;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The system allocator plus a count of live bytes and their high-water
/// mark. Live heap is a portable stand-in for resident memory that needs
/// no `/proc` parsing.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn on_alloc(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Starts a measured phase: the high-water mark restarts from the
    /// bytes live now.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Highest live heap since the last [`reset_peak`](Self::reset_peak).
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the atomics only observe sizes and never touch
// the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.live.fetch_sub(layout.size(), Ordering::Relaxed);
            self.on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

/// FNV-1a over everything a pass produced, so two runs of the same code
/// can be compared by one number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    /// Placement, then every route's edge sequence.
    pub fn mapping(&mut self, mapping: &Mapping) {
        for h in mapping.placement() {
            self.u64(h.index() as u64);
        }
        for route in mapping.routes() {
            self.u64(route.hop_count() as u64);
            for e in route.edges() {
                self.u64(e.index() as u64);
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Quantile of unsorted samples, interpolated linearly between the two
/// nearest ranks (0 when there are none). With two or four passes the
/// median is then the mean of the middle two, not the lower one alone.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns what it returned with its wall-clock in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Fewest timed operations that must lie beyond a reported latency tail.
const TAIL_SAMPLES: f64 = 10.0;

/// Set-up repetitions after every pass; `setup_s` is the median of all
/// of them. Spread over the run rather than timed in one burst at its
/// start, they see the same spells of a shared host as the passes do.
const SETUP_REPS: usize = 5;

/// Steps of one calibration kernel run, about 1 ms on the reference host.
const KERNEL_STEPS: u64 = 2_500;
/// Kernel runs per calibration; the median is kept.
const KERNEL_REPS: usize = 3;
/// Keys the kernel's ordered map draws from; it holds about half of them.
const KERNEL_KEYS: u64 = 8192;
/// Words the kernel sorts, every `KERNEL_SORT_EVERY` steps.
const KERNEL_SORT: usize = 256;
const KERNEL_SORT_EVERY: u64 = 16;
/// Longest stretch of timed work between two calibrations.
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);
/// Milliseconds the kernel takes on the reference host: a 2-vCPU shared
/// x86-64 virtual machine in its fast spells. Timings are reported as
/// they would read on that host at that speed.
const REFERENCE_KERNEL_MS: f64 = 1.0;

/// Measures the speed of the host the benchmark runs on.
///
/// A shared host's speed drifts by a third in spells of seconds to
/// minutes, and thread CPU time drifts with wall-clock time, so the cause
/// is a slower processor, not time taken away. Every timed piece of work
/// is therefore bracketed by two runs of a fixed kernel, and scaled by
/// `REFERENCE_KERNEL_MS` over the kernel's mean time across the two.
///
/// The kernel is branchy, pointer-chasing work like the program's:
/// ordered-map updates and range lookups, sorts, binary-heap pushes and
/// pops (A*Prune, Dijkstra) and floating-point arithmetic. A tight loop
/// over a small table or over memory tracked the program's speed worse.
/// The kernel is part of the benchmark and never changes with the
/// program. Its map keeps about `KERNEL_KEYS / 2` entries and its heap
/// and sort buffer never grow, so heap peaks barely see it.
struct Calibrator {
    map: BTreeMap<u64, u64>,
    heap: BinaryHeap<u64>,
    sort: Vec<u64>,
    /// Median kernel ms of every calibration so far, in order.
    kernel_ms: Vec<f64>,
    last: Instant,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            map: (0..KERNEL_KEYS).step_by(2).map(|k| (k, k)).collect(),
            heap: BinaryHeap::with_capacity(KERNEL_STEPS as usize),
            sort: vec![0; KERNEL_SORT],
            kernel_ms: Vec::new(),
            last: Instant::now(),
        }
    }
}

impl Calibrator {
    fn kernel(&mut self) -> u64 {
        self.heap.clear();
        let (mut x, mut f, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 1.0f64, 0u64);
        for i in 0..KERNEL_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % KERNEL_KEYS;
            if self.map.remove(&key).is_none() {
                self.map.insert(key, i);
            }
            if let Some((&k, &v)) = self.map.range((x >> 32) % KERNEL_KEYS..).next() {
                acc = acc.wrapping_add(k ^ v);
            }
            self.heap.push(x >> 40);
            if i % 2 == 1 {
                acc ^= self.heap.pop().unwrap_or(0);
            }
            if i % KERNEL_SORT_EVERY == 0 {
                for (j, w) in self.sort.iter_mut().enumerate() {
                    *w = x.rotate_left(j as u32) ^ j as u64;
                }
                self.sort.sort_unstable();
                acc ^= self.sort[KERNEL_SORT / 2];
            }
            f = f.mul_add(0.999_999_9, (x & 0xff) as f64 * 1e-9);
        }
        acc ^ f.to_bits()
    }

    /// Times the kernel and starts a new calibration epoch.
    fn calibrate(&mut self) {
        let mut ms = [0.0; KERNEL_REPS];
        for m in &mut ms {
            let t = Instant::now();
            black_box(self.kernel());
            *m = ms_since(t);
        }
        self.kernel_ms.push(median(&ms));
        self.last = Instant::now();
    }

    fn calibrate_if_due(&mut self) {
        if self.last.elapsed() >= CALIBRATE_EVERY {
            self.calibrate();
        }
    }

    /// The epoch pieces timed now belong to.
    fn epoch(&self) -> usize {
        self.kernel_ms.len().saturating_sub(1)
    }

    /// Reference-host ms of a piece of `raw_ms` timed in `epoch`: scaled
    /// by the calibrations before and after it.
    fn scale(&self, epoch: usize, raw_ms: f64) -> f64 {
        let before = self.kernel_ms[epoch];
        let after = self.kernel_ms.get(epoch + 1).copied().unwrap_or(before);
        raw_ms * REFERENCE_KERNEL_MS / (0.5 * (before + after))
    }
}

/// One timed piece of work: wall-clock ms and its calibration epoch.
struct Piece {
    epoch: usize,
    raw_ms: f64,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run measured. End-to-end samples come from untraced
/// passes only; [`Layers`] holds what traced passes saw.
///
/// A measured pass is a sequence of timed pieces of work. An operation,
/// the unit of the latency quantiles, is one piece or several consecutive
/// ones; pieces that are no operation (a serve `remove` or `status`)
/// still count towards the pass time.
#[derive(Default)]
pub struct Run {
    calibrator: Calibrator,
    pieces: Vec<Piece>,
    /// Pieces that are set-up repetitions.
    setups: Vec<usize>,
    /// Pieces of each measured pass and of each timed operation.
    passes: Vec<Range<usize>>,
    ops: Vec<Range<usize>>,
    op_start: usize,
    /// Uncalibrated wall-clock seconds of each measured pass, to compare
    /// with traced passes, which time themselves.
    pub raw_pass_s: Vec<f64>,
    /// Operations attempted; operations completed (maps produced, tenants
    /// admitted, solves finished); and operations that succeeded (maps
    /// produced, tenants admitted, solves certified Optimal or
    /// Infeasible). Summed over passes.
    pub attempted: u64,
    pub completed: u64,
    pub succeeded: u64,
    /// Outputs that failed a correctness check.
    pub failed: u64,
    /// Eq. 10 objective of every successful operation, pooled.
    pub objectives: Vec<f64>,
    /// Peak live heap of each pass, bytes.
    pub peak_heap: Vec<usize>,
    /// Digest of the first pass; every later pass must match it.
    pub digest: Option<Digest>,
    pub layers: Layers,
}

impl Run {
    /// Counts a failed output check and says which on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Times `SETUP_REPS` calls of `build`, between two calibrations.
    /// What each call built is dropped outside the timing.
    pub fn time_setup<T>(&mut self, mut build: impl FnMut() -> T) {
        self.calibrator.calibrate();
        for _ in 0..SETUP_REPS {
            let (built, raw_ms) = timed(&mut build);
            self.setups.push(self.pieces.len());
            self.pieces.push(Piece {
                epoch: self.calibrator.epoch(),
                raw_ms,
            });
            drop(built);
        }
        self.calibrator.calibrate();
    }

    /// Opens a measured pass of at most `pieces` timed pieces. Room for
    /// their records is made first, so the run's own records never grow
    /// inside the pass; then the host speed is measured and the heap peak
    /// restarts.
    pub fn begin_pass(&mut self, pieces: usize) {
        self.pieces.reserve(pieces);
        self.ops.reserve(pieces);
        self.objectives.reserve(pieces);
        let calibrations = pieces.min(4096) + 2;
        self.calibrator.kernel_ms.reserve(calibrations);
        self.calibrator.calibrate();
        self.passes.push(self.pieces.len()..self.pieces.len());
        ALLOC.reset_peak();
    }

    /// Times one piece of work of the open pass, then measures the host
    /// speed again if it is due.
    pub fn piece<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, raw_ms) = timed(f);
        self.pieces.push(Piece {
            epoch: self.calibrator.epoch(),
            raw_ms,
        });
        self.calibrator.calibrate_if_due();
        (out, raw_ms)
    }

    /// Starts an operation made of the pieces timed until [`end_op`](Self::end_op).
    pub fn begin_op(&mut self) {
        self.op_start = self.pieces.len();
    }

    pub fn end_op(&mut self) {
        self.ops.push(self.op_start..self.pieces.len());
    }

    /// Times one operation made of a single piece.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin_op();
        let out = self.piece(f);
        self.end_op();
        out
    }

    /// Closes the open pass: its pieces, heap peak and closing calibration.
    pub fn end_pass(&mut self) {
        self.peak_heap.push(ALLOC.peak_bytes());
        self.calibrator.calibrate();
        let pass = self.passes.last_mut().expect("a pass is open");
        pass.end = self.pieces.len();
        let raw_ms: f64 = self.pieces[pass.clone()].iter().map(|p| p.raw_ms).sum();
        self.raw_pass_s.push(raw_ms / 1e3);
    }

    /// Measured passes so far.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Timed operations so far.
    pub fn timed_ops(&self) -> usize {
        self.ops.len()
    }

    /// Calibrations so far and their median kernel ms.
    pub fn calibrations(&self) -> (usize, f64) {
        let ms = &self.calibrator.kernel_ms;
        (ms.len(), median(ms))
    }

    /// Median uncalibrated wall-clock seconds of a measured pass.
    pub fn raw_wall_s(&self) -> f64 {
        median(&self.raw_pass_s)
    }

    /// Reference-host ms of the pieces in `range`.
    fn ms(&self, range: Range<usize>) -> f64 {
        self.pieces[range]
            .iter()
            .map(|p| self.calibrator.scale(p.epoch, p.raw_ms))
            .sum()
    }

    /// Records one pass's digest; passes over the same inputs must agree.
    pub fn pass_digest(&mut self, digest: Digest) {
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) => self.check(first == digest, || {
                format!(
                    "pass digest {:016x} differs from the first pass {:016x}",
                    digest.value(),
                    first.value()
                )
            }),
        }
    }

    /// The end-to-end metrics. Every time is calibrated to the reference
    /// host (see [`Calibrator`]).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let setup_s: Vec<f64> = self.setups.iter().map(|&i| self.ms(i..i + 1) / 1e3).collect();
        let pass_s: Vec<f64> = self.passes.iter().map(|r| self.ms(r.clone()) / 1e3).collect();
        let latency_ms: Vec<f64> = self.ops.iter().map(|r| self.ms(r.clone())).collect();
        let measured: f64 = pass_s.iter().sum();
        let peaks: Vec<f64> = self.peak_heap.iter().map(|&b| b as f64).collect();
        let succeeded = self.succeeded as f64;
        // A tail with fewer than `TAIL_SAMPLES` operations beyond it is
        // lowered to the highest quantile that has them, but not below
        // the median.
        let supported = (1.0 - TAIL_SAMPLES / latency_ms.len() as f64).max(0.5);
        let latency = |q: f64| quantile(&latency_ms, q.min(supported));
        vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("wall_s", median(&pass_s), "s"),
            metric("ops_per_s", ratio(self.completed as f64, measured), "1/s"),
            metric("latency_p50_ms", latency(0.50), "ms"),
            metric("latency_p90_ms", latency(0.90), "ms"),
            metric("latency_p99_ms", latency(0.99), "ms"),
            metric(
                "success_rate",
                ratio(succeeded, self.attempted as f64),
                "ratio",
            ),
            metric("objective_mean", mean(&self.objectives), "mips"),
            metric("peak_heap_mb", median(&peaks) / (1024.0 * 1024.0), "MiB"),
        ]
    }
}

/// Per-layer counters and spans of traced passes. Additive quantities are
/// summed and reported per pass; ratios are formed from the sums.
#[derive(Default)]
pub struct Layers {
    /// Traced passes folded in.
    pub passes: u64,
    sums: BTreeMap<&'static str, f64>,
    /// Serve request latencies (ms) and sampled gauges.
    pub apply_ms: Vec<f64>,
    pub remove_ms: Vec<f64>,
    pub status_ms: Vec<f64>,
    pub resync_ms: Vec<f64>,
    pub embed_ms: Vec<f64>,
    pub active_tenants: Vec<f64>,
    /// Wall-clock of each traced pass.
    pub traced_pass_s: Vec<f64>,
}

impl Layers {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric, in one fixed order, zero where the workload
    /// never reached the layer. `untraced_pass_s` are the untraced passes
    /// run beside the traced ones.
    pub fn metrics(&self, untraced_pass_s: &[f64]) -> Vec<Metric> {
        let per_pass = |key: &str| ratio(self.sum(key), self.passes as f64);
        let hosting = self.sum("hosting.time_s");
        let migration = self.sum("migration.time_s");
        let networking = self.sum("networking.time_s");
        let dijkstra = self.sum("cache.dijkstra_s");
        let dijkstra_runs = self.sum("cache.dijkstra_runs");
        let ar_hits = self.sum("cache.ar_hits");
        let nodes = self.sum("exact.nodes_expanded");
        let pruned = self.sum("exact.pruned");
        vec![
            metric("hosting.time_s", per_pass("hosting.time_s"), "s"),
            metric(
                "hosting.colocation_hits",
                per_pass("hosting.colocation_hits"),
                "count",
            ),
            metric(
                "hosting.first_fit_fallbacks",
                per_pass("hosting.first_fit_fallbacks"),
                "count",
            ),
            metric("migration.time_s", per_pass("migration.time_s"), "s"),
            metric(
                "migration.proposals",
                per_pass("migration.proposals"),
                "count",
            ),
            metric(
                "migration.moves_accepted",
                per_pass("migration.moves_accepted"),
                "count",
            ),
            metric(
                "migration.accept_ratio",
                ratio(
                    self.sum("migration.moves_accepted"),
                    self.sum("migration.proposals"),
                ),
                "ratio",
            ),
            metric(
                "migration.delta_evaluations",
                per_pass("migration.delta_evaluations"),
                "count",
            ),
            metric(
                "migration.full_evaluations",
                per_pass("migration.full_evaluations"),
                "count",
            ),
            metric("networking.time_s", per_pass("networking.time_s"), "s"),
            metric(
                "networking.routed_links",
                per_pass("networking.routed_links"),
                "count",
            ),
            metric(
                "networking.intra_host_links",
                per_pass("networking.intra_host_links"),
                "count",
            ),
            metric(
                "networking.share_of_map",
                ratio(networking, hosting + migration + networking),
                "ratio",
            ),
            metric(
                "astar_prune.expansions",
                per_pass("astar_prune.expansions"),
                "count",
            ),
            metric(
                "astar_prune.pushed",
                per_pass("astar_prune.pushed"),
                "count",
            ),
            metric(
                "astar_prune.expansions_per_link",
                ratio(
                    self.sum("astar_prune.expansions"),
                    self.sum("networking.routed_links"),
                ),
                "count",
            ),
            metric(
                "astar_prune.time_s",
                ratio((networking - dijkstra).max(0.0), self.passes as f64),
                "s",
            ),
            metric("cache.prepare_s", per_pass("cache.prepare_s"), "s"),
            metric(
                "cache.dijkstra_runs",
                per_pass("cache.dijkstra_runs"),
                "count",
            ),
            metric("cache.dijkstra_s", per_pass("cache.dijkstra_s"), "s"),
            metric("cache.ar_hits", per_pass("cache.ar_hits"), "count"),
            metric(
                "cache.ar_hit_ratio",
                ratio(ar_hits, ar_hits + dijkstra_runs),
                "ratio",
            ),
            metric("serve.apply_ms_p50", quantile(&self.apply_ms, 0.50), "ms"),
            metric("serve.apply_ms_p99", quantile(&self.apply_ms, 0.99), "ms"),
            metric("serve.remove_ms_p50", quantile(&self.remove_ms, 0.50), "ms"),
            metric("serve.status_ms_p50", quantile(&self.status_ms, 0.50), "ms"),
            metric("serve.resync_ms_p50", quantile(&self.resync_ms, 0.50), "ms"),
            metric("serve.embed_ms_p50", quantile(&self.embed_ms, 0.50), "ms"),
            metric(
                "serve.active_tenants_mean",
                mean(&self.active_tenants),
                "count",
            ),
            metric("serve.rejected", per_pass("serve.rejected"), "count"),
            metric("exact.time_s", per_pass("exact.time_s"), "s"),
            metric(
                "exact.nodes_expanded",
                per_pass("exact.nodes_expanded"),
                "count",
            ),
            metric(
                "exact.nodes_per_s",
                ratio(nodes, self.sum("exact.time_s")),
                "1/s",
            ),
            metric("exact.prune_ratio", ratio(pruned, pruned + nodes), "ratio"),
            metric(
                "exact.leaf_routings",
                per_pass("exact.leaf_routings"),
                "count",
            ),
            metric(
                "exact.routing_failures",
                per_pass("exact.routing_failures"),
                "count",
            ),
            metric(
                "lagrangian.subgradient_iters",
                per_pass("lagrangian.subgradient_iters"),
                "count",
            ),
            metric(
                "lagrangian.iters_per_node",
                ratio(self.sum("lagrangian.subgradient_iters"), nodes),
                "count",
            ),
            metric("lagrangian.pruned", per_pass("lagrangian.pruned"), "count"),
            metric(
                "lagrangian.bound_improvements",
                per_pass("lagrangian.bound_improvements"),
                "count",
            ),
            metric(
                "tracing.overhead_s",
                median(&self.traced_pass_s) - median(untraced_pass_s),
                "s",
            ),
        ]
    }
}
