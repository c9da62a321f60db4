//! Order statistics and the order-independent pair-set hash.

/// The median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the rule the benchmark driver
/// applies to the ten-seed spread, so the harness's own noise figures
/// are directly comparable. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (f64::NAN, f64::NAN);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    100.0 * (q3 - q1) / median(values).abs()
}

/// Nearest-rank percentile of an ascending-sorted sample, reported only
/// when at least ten samples lie beyond it: a p99 read off fewer than a
/// thousand samples is the position of one or two outliers, not a
/// percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// Order-independent digest of a pair multiset: a wrapping sum of mixed
/// `(min, max)` id keys plus the count, so every rep, every ladder rung
/// and the over-the-wire run can be compared without holding or sorting
/// millions of pairs. (A sum, not an XOR: a pair emitted twice must not
/// cancel out.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairDigest {
    pub sum: u64,
    pub count: u64,
}

impl PairDigest {
    pub fn add(&mut self, left: u64, right: u64) {
        let (a, b) = (left.min(right), left.max(right));
        // splitmix64 finalizer over the packed key.
        let mut z = (a << 32 ^ b).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.sum = self.sum.wrapping_add(z ^ (z >> 31));
        self.count += 1;
    }

    pub fn hex(&self) -> String {
        format!("{:016x}/{}", self.sum, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_reps_is_the_middle_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild rep does not move a median of five.
        assert_eq!(median(&[10.0, 11.0, 9.0, 10.5, 400.0]), 10.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert!((iqr_pct(&v) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 samples is rank 990: exactly ten samples beyond.
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&v[..20], 0.5), Some(10));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn pair_digest_ignores_order_and_orientation_but_not_multiplicity() {
        let pairs = [(1u64, 2u64), (7, 3), (100_000, 99_999), (5, 6)];
        let mut fwd = PairDigest::default();
        let mut rev = PairDigest::default();
        for &(a, b) in &pairs {
            fwd.add(a, b);
        }
        for &(a, b) in pairs.iter().rev() {
            rev.add(b, a);
        }
        assert_eq!(fwd, rev);
        let mut dup = fwd;
        dup.add(1, 2);
        assert_ne!(dup.sum, fwd.sum);
        let mut other = PairDigest::default();
        for &(a, b) in &[(1u64, 2u64), (7, 3), (100_000, 99_998), (5, 6)] {
            other.add(a, b);
        }
        assert_ne!(other, fwd);
    }
}
