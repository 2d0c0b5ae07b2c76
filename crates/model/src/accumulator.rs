//! O(1) incremental evaluation of the Eq. 10 objective.
//!
//! Every annealing proposal and Migration-stage candidate needs the
//! population standard deviation of per-host residual CPU. Recomputing it
//! from the residual vector is O(hosts) per probe (and allocates); the
//! search loops probe thousands of times per mapping, so the objective is
//! the inner-kernel cost. [`ObjectiveAccumulator`] maintains running sums
//! of the residuals so that
//!
//! * `stddev()` is O(1),
//! * a single residual change (`apply`) is O(1), and
//! * a *hypothetical* set of changes (`stddev_after`) is O(changes)
//!   without mutating anything — the delta-evaluation primitive.
//!
//! # Numerical policy
//!
//! Raw Σx / Σx² sums cancel catastrophically when the mean is large
//! relative to the spread (residuals sit near host capacity, ~10³, while
//! the interesting stddevs go to 0), so the sums are kept over deviations
//! from a fixed *shift* (the mean at the last rebuild). Each O(1) update
//! still rounds at the scale of the *squared* deviations, so the drift
//! budget is relative to the data magnitude, not to the (possibly tiny)
//! stddev: `|accumulated − exact| ≤ 1e-9 · (1 + |exact| + |shift|)`. Two
//! guards keep long apply streams inside that budget:
//!
//! * a periodic exact rebuild every [`REFRESH_INTERVAL`] applies (callers
//!   poll [`needs_refresh`](ObjectiveAccumulator::needs_refresh) and hand
//!   back the exact residual vector), which also re-centers the shift;
//! * in debug builds, every rebuild asserts the accumulated stddev agrees
//!   with the exact recompute, so drift can never silently exceed the
//!   refresh policy's budget.

use crate::objective::population_stddev;

/// Exact rebuilds are requested after this many O(1) updates — frequent
/// enough that float drift stays orders of magnitude below the 1e-9
/// equivalence tolerance, rare enough to amortize to nothing.
pub const REFRESH_INTERVAL: u64 = 4096;

/// Running Σ/Σ² view of a residual-CPU vector with O(1) stddev.
///
/// The accumulator never owns the residuals; it shadows whatever vector
/// the caller maintains. The caller must report every change via
/// [`apply`](Self::apply) (or [`rebuild`](Self::rebuild) wholesale) or the
/// view goes stale — `emumap-core`'s `PlacementState` funnels all CPU
/// mutations through its assign/unassign pair for exactly this reason.
#[derive(Clone, Debug)]
pub struct ObjectiveAccumulator {
    /// Number of tracked values (hosts).
    n: usize,
    /// Fixed shift point; sums are over deviations `x − shift`.
    shift: f64,
    /// Σ (x − shift).
    sum: f64,
    /// Σ (x − shift)².
    sum_sq: f64,
    /// O(1) updates since the last exact rebuild.
    updates: u64,
    /// Exact rebuilds performed (the "full evaluation" counter surfaced
    /// in traces; includes the initial build).
    rebuilds: u64,
}

impl ObjectiveAccumulator {
    /// Builds the accumulator over `values` (one entry per host).
    pub fn new(values: &[f64]) -> Self {
        let mut acc = ObjectiveAccumulator {
            n: values.len(),
            shift: 0.0,
            sum: 0.0,
            sum_sq: 0.0,
            updates: 0,
            rebuilds: 0,
        };
        acc.rebuild(values);
        acc
    }

    /// Number of tracked values.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no values are tracked.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Exact rebuilds performed so far (includes the initial build).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// `true` once enough O(1) updates have accumulated that the caller
    /// should hand back the exact vector via [`rebuild`](Self::rebuild).
    pub fn needs_refresh(&self) -> bool {
        self.updates >= REFRESH_INTERVAL
    }

    /// Periodic exact refresh: `values` must be the vector the accumulator
    /// currently shadows. In debug builds, asserts the accumulated stddev
    /// had not drifted past [`drift_budget`](Self::drift_budget) from the
    /// exact recompute (the invariant the refresh policy maintains), then
    /// rebuilds.
    pub fn refresh(&mut self, values: &[f64]) {
        debug_assert_eq!(self.n, values.len(), "tracked value count changed");
        debug_assert!(
            {
                let exact = population_stddev(values);
                (self.stddev() - exact).abs() <= self.drift_budget(exact)
            },
            "accumulator drifted beyond the refresh policy's budget"
        );
        self.rebuild(values);
    }

    /// Maximum absolute stddev drift the refresh policy tolerates against
    /// an exact recompute of `exact`. Relative to the data scale (the
    /// shift, i.e. the mean at the last rebuild): per-apply rounding is
    /// proportional to the squared deviations, and near-zero variance
    /// amplifies any absolute Σ² error through the cancellation, so a
    /// bound relative only to `exact` would be unsatisfiable.
    pub fn drift_budget(&self, exact: f64) -> f64 {
        1e-9 * (1.0 + exact.abs() + self.shift.abs())
    }

    /// Recomputes the sums exactly from `values`, re-centering the shift
    /// on the current mean. Unlike [`refresh`](Self::refresh) this makes
    /// no claim that `values` matches the previously tracked state — it is
    /// the re-sync point after a wholesale state replacement (`reset`).
    pub fn rebuild(&mut self, values: &[f64]) {
        self.n = values.len();
        self.shift = if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        };
        self.sum = values.iter().map(|&x| x - self.shift).sum();
        self.sum_sq = values.iter().map(|&x| (x - self.shift).powi(2)).sum();
        self.updates = 0;
        self.rebuilds += 1;
    }

    /// Reports that one tracked value changed from `old` to `new`. O(1).
    #[inline]
    pub fn apply(&mut self, old: f64, new: f64) {
        let (d_old, d_new) = (old - self.shift, new - self.shift);
        self.sum += d_new - d_old;
        self.sum_sq += d_new * d_new - d_old * d_old;
        self.updates += 1;
    }

    /// Population standard deviation of the tracked values. O(1).
    #[inline]
    pub fn stddev(&self) -> f64 {
        self.variance_of(self.sum, self.sum_sq).sqrt()
    }

    /// Standard deviation *if* each `(old, new)` change in `changes` were
    /// applied, without mutating the accumulator. O(changes) — the
    /// delta-evaluation primitive behind `objective_if_migrated`.
    #[inline]
    pub fn stddev_after<I>(&self, changes: I) -> f64
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        let (mut sum, mut sum_sq) = (self.sum, self.sum_sq);
        for (old, new) in changes {
            let (d_old, d_new) = (old - self.shift, new - self.shift);
            sum += d_new - d_old;
            sum_sq += d_new * d_new - d_old * d_old;
        }
        self.variance_of(sum, sum_sq).sqrt()
    }

    /// How far past the exact break-even a *move* must be before the float
    /// probe provably rejects it. A move raises one value `a` by `c > 0`
    /// and lowers another value `b` by `c` (a guest of CPU `c` leaving
    /// residual `a` for residual `b`), with `a` and `b` anywhere in
    /// `[lo, hi]`. Exactly, it leaves `Σ(x − shift)` unchanged and changes
    /// `Σ(x − shift)²` by `2c·(c + a − b)`, so it lowers the standard
    /// deviation iff `b − a > c`. In floats: whenever the float margin
    /// `(a + c) − b` exceeds the returned `tol`,
    /// `stddev_after([(a, a + c), (b, b − c)]) >= stddev()`, so a strict
    /// `<` test rejects the move. Migration scans destinations by falling
    /// `b` (rising margin), so it stops at the first one past `tol`.
    ///
    /// `tol = 16·(u·(K² + |Σ²| + (K + |Σ|)²/n) + (n + K + |Σ|)·m)/c`, with
    /// `u = 2⁻⁵³` the unit roundoff, `m = 2⁻¹⁰⁷⁴` the smallest subnormal,
    /// `Σ` and `Σ²` the stored sums, `R = max(|lo|, |hi|) + c`,
    /// `D = max(|lo − shift|, |hi − shift|) + c` and `K = R + D`. `R`
    /// bounds every value the probe reads or forms, `D` every exact
    /// deviation, and `K ≥ c`.
    ///
    /// # Proof
    ///
    /// Each float operation returns its exact result times `1 + δ`,
    /// `|δ| ≤ u`, plus at most `m/2` when the result is subnormal.
    /// The `m` terms enter through at most ten products and quotients and
    /// move the variance difference below by at most
    /// `(4 + 2(|Σ| + K)/n)·m`, which the last term of `tol` covers. Leaving
    /// them aside, and dropping `(1 + u)` factors (the coefficients below
    /// are rounded up by more than that):
    ///
    /// 1. Each of the four computed deviations (`a`, `a + c`, `b`, `b − c`
    ///    minus `shift`, the inner sum rounded first) is within `uK` of
    ///    exact, so each computed square is within `3uK²` of the exact
    ///    square and each of the two square differences within `7uK²` of
    ///    its exact value. Adding them to `Σ²` rounds by `u(2|Σ²| + 3K²)`,
    ///    and dividing old and new `Σ²` by `n` by `u(2|Σ²| + 2K²)/n`. So
    ///    `fl(Σ²'/n) − fl(Σ²/n) ≥ 2c·(c + a − b)/n − (20uK² + 4u|Σ²|)/n`.
    /// 2. The two deviation differences are within `3uK` of `c` and `−c`,
    ///    so the new `Σ` is within `10uK + 2u|Σ|` of the old and the new
    ///    mean within `(10uK + 4u|Σ|)/n` of the old. Both means are at most
    ///    `μ = (|Σ| + K)/n` in size, so the squared means differ by at most
    ///    `2μ(10uK + 4u|Σ|)/n + 3uμ² ≤ 23u(|Σ| + K)²/n²`.
    /// 3. The margin `(a + c) − b` is computed within `3uR ≤ 3uK²/c` of
    ///    exact.
    ///
    /// So when the float margin exceeds `tol`, the exact margin exceeds
    /// `(13uK² + 2u|Σ²| + 12u(|Σ| + K)²/n)/c`, and the variance before
    /// clamping — `fl(Σ²/n) − fl(mean²)` before its final rounding — is
    /// at least as large after the move as before. Rounding that
    /// difference, clamping it at zero and taking the square root are all
    /// monotone, so the float standard deviation does not fall.
    ///
    /// Overflow only makes `tol` infinite, which stops nothing. With
    /// `c == 0` every term of the probe equals its value before the move,
    /// so the move never passes a strict `<` and needs no tolerance;
    /// callers handle it and negative `c` themselves.
    pub fn move_tolerance(&self, lo: f64, hi: f64, c: f64) -> f64 {
        debug_assert!(c > 0.0, "a move carries positive CPU");
        const U: f64 = f64::EPSILON / 2.0;
        let n = self.n as f64;
        let r = lo.abs().max(hi.abs()) + c;
        let d = (lo - self.shift).abs().max((hi - self.shift).abs()) + c;
        let k = r + d;
        let mean_term = (k + self.sum.abs()).powi(2) / n;
        let underflow = (n + k + self.sum.abs()) * f64::from_bits(1);
        16.0 * (U * (k * k + self.sum_sq.abs() + mean_term) + underflow) / c
    }

    /// `Var = Σd²/n − (Σd/n)²`, clamped against the tiny negative values
    /// float cancellation can produce near zero variance.
    #[inline]
    fn variance_of(&self, sum: f64, sum_sq: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let mean = sum / n;
        (sum_sq / n - mean * mean).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
    }

    #[test]
    fn matches_exact_stddev_on_build() {
        let v = [1000.0, 750.0, 1000.0, 420.0];
        assert_close(
            ObjectiveAccumulator::new(&v).stddev(),
            population_stddev(&v),
        );
    }

    #[test]
    fn empty_is_zero() {
        let acc = ObjectiveAccumulator::new(&[]);
        assert!(acc.is_empty());
        assert_eq!(acc.stddev(), 0.0);
        assert_eq!(acc.stddev_after([]), 0.0);
    }

    #[test]
    fn apply_tracks_mutations_exactly_enough() {
        let mut v = vec![2000.0, 2000.0, 2000.0, 2000.0];
        let mut acc = ObjectiveAccumulator::new(&v);
        // Walk through a few hundred placements/removals.
        for i in 0..400usize {
            let idx = (i * 7) % v.len();
            let delta = if i % 3 == 0 { -137.5 } else { 61.25 };
            let old = v[idx];
            v[idx] += delta;
            acc.apply(old, v[idx]);
            assert_close(acc.stddev(), population_stddev(&v));
        }
    }

    #[test]
    fn perfectly_balanced_is_exactly_zero() {
        // Integer-valued doubles: the shifted sums cancel exactly, so a
        // balanced state reports 0.0 (the Migration tests rely on this).
        let mut acc = ObjectiveAccumulator::new(&[1000.0, 1000.0, 600.0, 1400.0]);
        acc.apply(600.0, 1000.0);
        acc.apply(1400.0, 1000.0);
        assert_eq!(acc.stddev(), 0.0);
    }

    #[test]
    fn stddev_after_is_hypothetical() {
        let v = [900.0, 1100.0, 1000.0];
        let acc = ObjectiveAccumulator::new(&v);
        let moved = [1000.0, 1000.0, 1000.0];
        assert_close(
            acc.stddev_after([(900.0, 1000.0), (1100.0, 1000.0)]),
            population_stddev(&moved),
        );
        // The accumulator itself is untouched.
        assert_close(acc.stddev(), population_stddev(&v));
    }

    #[test]
    fn negative_residuals_are_fine() {
        let v = [-100.0, 100.0];
        let acc = ObjectiveAccumulator::new(&v);
        assert_close(acc.stddev(), 100.0);
    }

    #[test]
    fn refresh_cycle_resets_update_counter() {
        let mut v = vec![1000.0; 8];
        let mut acc = ObjectiveAccumulator::new(&v);
        assert_eq!(acc.rebuilds(), 1);
        for i in 0..REFRESH_INTERVAL {
            let idx = (i as usize) % v.len();
            let old = v[idx];
            v[idx] = old + if i % 2 == 0 { 50.0 } else { -50.0 };
            acc.apply(old, v[idx]);
        }
        assert!(acc.needs_refresh());
        acc.refresh(&v);
        assert!(!acc.needs_refresh());
        assert_eq!(acc.rebuilds(), 2);
        assert_close(acc.stddev(), population_stddev(&v));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "drifted")]
    fn refresh_debug_asserts_against_drift() {
        let mut acc = ObjectiveAccumulator::new(&[1.0, 2.0, 3.0]);
        // Lie about a change; the next refresh must catch the divergence.
        acc.apply(1.0, 500.0);
        acc.refresh(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn rebuild_resyncs_to_replaced_state() {
        // `rebuild` (unlike `refresh`) accepts a wholesale replacement —
        // the reset path — without claiming continuity.
        let mut acc = ObjectiveAccumulator::new(&[1.0, 2.0, 3.0]);
        acc.apply(3.0, 10.0);
        acc.rebuild(&[5.0, 5.0]);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.stddev(), 0.0);
    }

    /// The smallest and the largest of `v`.
    fn bounds(v: &[f64]) -> (f64, f64) {
        v.iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// A move whose float margin is the smallest one past
        /// `move_tolerance` never lowers the float stddev, at scales up to
        /// 1e12 and with the sums drifted far from the shift.
        #[test]
        fn a_move_just_past_the_tolerance_never_lowers_the_stddev(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let scale = [1.0, 1e3, 1e6, 1e9, 1e12][rng.gen_range(0..5usize)];
            let n = rng.gen_range(2..200usize);
            let mut v: Vec<f64> = (0..n).map(|_| scale * rng.gen_range(0.0..2.0)).collect();
            let mut acc = ObjectiveAccumulator::new(&v);
            for _ in 0..rng.gen_range(0..4 * n) {
                let i = rng.gen_range(0..n);
                let old = v[i];
                v[i] -= scale * rng.gen_range(0.0..0.5);
                acc.apply(old, v[i]);
            }
            let c = scale * [1e-9, 1e-3, 0.1, 0.3][rng.gen_range(0..4usize)];
            let (from, to) = (0, 1 + rng.gen_range(0..n - 1));
            let top = v[from] + c;
            // Put the destination on the band edge, re-deriving the
            // tolerance from the state that holds it.
            for _ in 0..8 {
                let (lo, hi) = bounds(&v);
                let tol = acc.move_tolerance(lo, hi, c);
                let mut b = top - tol;
                while top - b <= tol {
                    b = b.next_down();
                }
                while top - b.next_up() > tol {
                    b = b.next_up();
                }
                let old = v[to];
                v[to] = b;
                acc.apply(old, b);
                let (lo, hi) = bounds(&v);
                if top - b > acc.move_tolerance(lo, hi, c) {
                    break;
                }
            }
            let (a, b) = (v[from], v[to]);
            let (lo, hi) = bounds(&v);
            prop_assume!(top - b > acc.move_tolerance(lo, hi, c));
            let after = acc.stddev_after([(a, a + c), (b, b - c)]);
            prop_assert!(after >= acc.stddev(), "{after} < {} (margin {})", acc.stddev(), top - b);
        }
    }
}
