//! Log-bucketed latency histograms.
//!
//! Per-record processing latency is the operational metric a streaming
//! deployment of the join actually watches (the paper reports only totals;
//! §4 discusses reporting *delay*, which `sssj_core::measure_report_delay`
//! covers). Buckets grow geometrically so that nanosecond-scale hits and
//! millisecond-scale re-indexing spikes land in one structure with
//! bounded error (≤ the bucket growth factor) on every quantile.

/// A geometric-bucket histogram over positive values (e.g. seconds).
///
/// ```
/// use sssj_metrics::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [1e-6, 2e-6, 3e-6, 1e-3] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile(0.5) <= 1e-5);     // median is micro-scale
/// assert!(h.quantile(1.0) >= 0.5e-3);   // max is the millisecond spike
/// ```
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts values in `[min_value·g^i, min_value·g^{i+1})`.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
    /// Values below this land in bucket 0.
    min_value: f64,
    /// Geometric growth factor per bucket.
    growth: f64,
}

impl LatencyHistogram {
    /// ~4 % relative bucket error from 10 ns up, 256 buckets ≈ 10⁵ s.
    pub fn new() -> Self {
        Self::with_shape(1e-8, 1.1)
    }

    /// A histogram with explicit smallest resolvable value and growth
    /// factor (> 1).
    pub fn with_shape(min_value: f64, growth: f64) -> Self {
        assert!(min_value > 0.0, "min_value must be positive");
        assert!(growth > 1.0, "growth must exceed 1");
        LatencyHistogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0.0,
            max: 0.0,
            min_value,
            growth,
        }
    }

    fn bucket_of(&self, v: f64) -> usize {
        if v <= self.min_value {
            return 0;
        }
        ((v / self.min_value).ln() / self.growth.ln()).floor() as usize
    }

    /// Lower edge of bucket `i`.
    fn bucket_value(&self, i: usize) -> f64 {
        self.min_value * self.growth.powi(i as i32)
    }

    /// Records one observation (non-negative; NaN is rejected).
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "cannot record NaN");
        let v = v.max(0.0);
        let b = self.bucket_of(v);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation seen (exact, not bucketed).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), as the upper edge of the bucket
    /// containing it — a ≤ `growth` overestimate, never an underestimate.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]: {q}");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Cap at the true max so q=1 is exact.
                return self.bucket_value(i + 1).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram with the same shape.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(
            (self.min_value, self.growth),
            (other.min_value, other.growth),
            "histogram shapes differ"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// A one-line summary: `count mean p50 p95 p99 max`, times in
    /// microseconds.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1}us p50={:.1}us p95={:.1}us p99={:.1}us max={:.1}us",
            self.count,
            self.mean() * 1e6,
            self.quantile(0.5) * 1e6,
            self.quantile(0.95) * 1e6,
            self.quantile(0.99) * 1e6,
            self.max * 1e6,
        )
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of exponent groups in a [`LogLinearHistogram`].
const LL_EXPONENTS: usize = 64;
/// Linear sub-buckets per exponent (top 5 mantissa bits).
const LL_SUBS: usize = 32;
/// Smallest resolvable value: 1 ns. 64 doublings cover ~584 years.
const LL_MIN: f64 = 1e-9;

/// A **fixed-footprint** log-linear histogram over non-negative values
/// (seconds): 64 power-of-two exponent groups from 1 ns, each split into
/// 32 linear sub-buckets keyed by the top 5 mantissa bits — 2048 `u64`
/// counters (16 KiB) allocated once at construction.
///
/// [`LatencyHistogram`]'s geometric buckets grow on demand, which is fine
/// for offline reporting but means `record` can allocate. The registry
/// `Recorder` (same bucket layout) records on the measured path itself, so
/// it needs recording to be a pure array increment. Quantiles report the
/// containing bucket's upper edge (≤ `1/32 ≈ 3.1 %` relative
/// overestimate, never an underestimate), capped at the exact max so
/// `q = 1` is exact.
///
/// ```
/// use sssj_metrics::LogLinearHistogram;
///
/// let mut h = LogLinearHistogram::new();
/// for v in [1e-6, 2e-6, 3e-6, 1e-3] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile(0.5) <= 2.1e-6);
/// assert_eq!(h.quantile(1.0), 1e-3);
/// ```
#[derive(Clone, Debug)]
pub struct LogLinearHistogram {
    buckets: Box<[u64]>,
    count: u64,
    sum: f64,
    max: f64,
}

impl LogLinearHistogram {
    /// An empty histogram (allocates its full 2048-counter table once).
    pub fn new() -> Self {
        LogLinearHistogram {
            buckets: vec![0; LL_EXPONENTS * LL_SUBS].into_boxed_slice(),
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Bucket index straight from the bit pattern of `v / 1 ns`: biased
    /// exponent selects the group, the top 5 mantissa bits the linear
    /// sub-bucket. No transcendentals, no branches beyond the underflow
    /// clamp.
    fn bucket_of(v: f64) -> usize {
        let r = v / LL_MIN;
        if r < 1.0 {
            return 0;
        }
        let bits = r.to_bits();
        let e = (((bits >> 52) as usize).wrapping_sub(1023)).min(LL_EXPONENTS - 1);
        let sub = ((bits >> 47) & (LL_SUBS as u64 - 1)) as usize;
        e * LL_SUBS + sub
    }

    /// Upper edge of bucket `i`, in seconds.
    fn bucket_upper(i: usize) -> f64 {
        let (e, sub) = (i / LL_SUBS, i % LL_SUBS);
        LL_MIN * (2.0f64).powi(e as i32) * (1.0 + (sub + 1) as f64 / LL_SUBS as f64)
    }

    /// Records one observation — a single array increment; never
    /// allocates. Negative values clamp to 0; NaN is rejected.
    #[inline]
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "cannot record NaN");
        let v = v.max(0.0);
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation seen (exact, not bucketed).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as the containing bucket's upper
    /// edge capped at the exact max; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]: {q}");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            // The top rank is the max itself — exact even for values
            // clamped into the last exponent group.
            return self.max;
        }
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(upper_edge_seconds, count)` pairs in
    /// ascending edge order — the compact form a Prometheus `_bucket`
    /// exposition needs (of 2048 buckets a latency recorder typically
    /// populates a few dozen; rendering only those plus `+Inf` keeps the
    /// scrape proportional to the data, not the geometry).
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
            .collect()
    }

    /// Merges another histogram (shapes are fixed, so always compatible).
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// One-line tail summary: `n mean p50 p99 p999 max`, microseconds.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1}us p50={:.1}us p99={:.1}us p999={:.1}us max={:.1}us",
            self.count,
            self.mean() * 1e6,
            self.quantile(0.5) * 1e6,
            self.quantile(0.99) * 1e6,
            self.quantile(0.999) * 1e6,
            self.max * 1e6,
        )
    }
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Total bucket count — the registry's striped atomic recorder mirrors
/// this geometry so its stripes merge losslessly into a
/// [`LogLinearHistogram`].
pub(crate) const LL_BUCKETS: usize = LL_EXPONENTS * LL_SUBS;

impl LogLinearHistogram {
    /// The bucket index `record(v)` would increment — exposed so the
    /// registry's atomic recorder uses the exact same geometry.
    pub(crate) fn bucket_index(v: f64) -> usize {
        Self::bucket_of(v)
    }

    /// Reassembles a histogram from raw bucket counts (as accumulated by
    /// the registry's atomic stripes) plus the exact sum and max.
    pub(crate) fn from_raw(buckets: Vec<u64>, sum: f64, max: f64) -> Self {
        assert_eq!(buckets.len(), LL_BUCKETS, "wrong bucket geometry");
        let count = buckets.iter().sum();
        LogLinearHistogram {
            buckets: buckets.into_boxed_slice(),
            count,
            sum,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_never_underestimate() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut h = LatencyHistogram::new();
        let mut values: Vec<f64> = (0..2000).map(|_| rng.random_range(1e-7..1e-2)).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.95, 0.99] {
            let exact =
                values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
            let est = h.quantile(q);
            assert!(est >= exact * 0.999, "q={q}: est={est} < exact={exact}");
            assert!(
                est <= exact * 1.1 + 1e-8,
                "q={q}: est={est} >> exact={exact}"
            );
        }
    }

    #[test]
    fn q1_is_exact_max() {
        let mut h = LatencyHistogram::new();
        for v in [1e-6, 5e-4, 3.3e-3] {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), 3.3e-3);
        assert_eq!(h.max(), 3.3e-3);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 1..100 {
            let v = i as f64 * 1e-5;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for q in [0.25, 0.5, 0.75, 0.99] {
            assert_eq!(a.quantile(q), c.quantile(q), "q={q}");
        }
    }

    #[test]
    fn zero_and_tiny_values_land_in_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record(0.0);
        h.record(1e-12);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.5) <= 1e-8 * 1.1);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        LatencyHistogram::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn mismatched_merge_rejected() {
        let mut a = LatencyHistogram::new();
        let b = LatencyHistogram::with_shape(1e-6, 2.0);
        a.merge(&b);
    }

    #[test]
    fn summary_mentions_count() {
        let mut h = LatencyHistogram::new();
        h.record(1e-5);
        assert!(h.summary().starts_with("n=1 "));
    }

    #[test]
    fn log_linear_quantiles_bound_exact_order_statistics() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut h = LogLinearHistogram::new();
        let mut values: Vec<f64> = (0..5000).map(|_| rng.random_range(5e-8..2e-2)).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact =
                values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
            let est = h.quantile(q);
            assert!(est >= exact, "q={q}: est={est} < exact={exact}");
            // Upper edge of the containing bucket: ≤ 1/32 above.
            assert!(est <= exact * (1.0 + 1.0 / 32.0), "q={q}: est={est} loose");
        }
        assert_eq!(h.quantile(1.0), *values.last().unwrap());
    }

    #[test]
    fn log_linear_tail_order_is_monotone() {
        let mut h = LogLinearHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-6);
        }
        let (p50, p99, p999) = (h.quantile(0.5), h.quantile(0.99), h.quantile(0.999));
        assert!(p50 <= p99 && p99 <= p999 && p999 <= h.max());
    }

    #[test]
    fn log_linear_merge_equals_combined_recording() {
        let (mut a, mut b, mut c) = (
            LogLinearHistogram::new(),
            LogLinearHistogram::new(),
            LogLinearHistogram::new(),
        );
        for i in 1..300 {
            let v = i as f64 * 3.7e-7;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for q in [0.25, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile(q), c.quantile(q), "q={q}");
        }
    }

    #[test]
    fn log_linear_extremes_are_absorbed() {
        let mut h = LogLinearHistogram::new();
        h.record(0.0);
        h.record(1e-15); // below 1 ns → bucket 0
        h.record(1e12); // beyond the top exponent → clamped, max exact
        assert_eq!(h.count(), 3);
        assert!(h.quantile(0.4) <= 2e-9);
        assert_eq!(h.quantile(1.0), 1e12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn log_linear_rejects_nan() {
        LogLinearHistogram::new().record(f64::NAN);
    }

    #[test]
    fn log_linear_summary_has_tail_fields() {
        let mut h = LogLinearHistogram::new();
        h.record(2e-6);
        let s = h.summary();
        assert!(s.contains("p999=") && s.contains("p50="), "{s}");
    }
}
