//! The lazily-decayed running maximum `m̂λ`.

/// Per-dimension decayed running maximum:
///
/// ```text
/// m̂λ_j(t) = max over all seen x with t(x) ≤ t of  x_j · e^{-λ·(t − t(x))}
/// ```
///
/// Because every candidate decays at the *same* rate, the running maximum
/// itself can be decayed lazily and stays exact:
/// `m̂λ_j(t) = max( m̂λ_j(t₀)·e^{-λ(t−t₀)}, new value )`. Each dimension
/// stores `(value, last_update_time)` and decays on read — O(1) per update
/// and per query, no deque needed.
///
/// This matches the paper's definition (a max over *all* past values, not
/// only those within the horizon), so it is a safe upper bound for the
/// `rs1` candidate-generation bound of STR-L2AP.
#[derive(Clone, Debug, Default)]
pub struct DecayedMaxVec {
    lambda: f64,
    // Parallel arrays indexed by dimension id.
    values: Vec<f64>,
    times: Vec<f64>,
}

impl DecayedMaxVec {
    /// Creates an empty decayed max with rate `λ ≥ 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda >= 0.0);
        DecayedMaxVec {
            lambda,
            values: Vec::new(),
            times: Vec::new(),
        }
    }

    /// The number of dimensions touched so far.
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Records `value` at dimension `dim` and time `t`.
    ///
    /// Times must be non-decreasing per dimension (stream order), which the
    /// caller guarantees by construction.
    pub fn update(&mut self, dim: u32, t: f64, value: f64) {
        let d = dim as usize;
        if d >= self.values.len() {
            self.values.resize(d + 1, 0.0);
            self.times.resize(d + 1, f64::NEG_INFINITY);
        }
        let decayed = self.decayed_to(d, t);
        if value >= decayed {
            self.values[d] = value;
            self.times[d] = t;
        }
        // else: the old max, decayed, still dominates; leave it be.
    }

    /// The decayed maximum at dimension `dim`, evaluated at time `t`.
    pub fn get(&self, dim: u32, t: f64) -> f64 {
        let d = dim as usize;
        if d >= self.values.len() {
            return 0.0;
        }
        self.decayed_to(d, t)
    }

    #[inline]
    fn decayed_to(&self, d: usize, t: f64) -> f64 {
        if self.lambda == 0.0 {
            // No decay (static APSS): a plain running maximum, with no
            // `exp` to pay and no time order to keep.
            return self.values[d];
        }
        let last = self.times[d];
        if last == f64::NEG_INFINITY {
            return 0.0;
        }
        debug_assert!(t >= last, "queries must move forward in time");
        self.values[d] * (-self.lambda * (t - last)).exp()
    }

    /// Forgets dimension `dim` in O(1), as if it had never been updated.
    pub fn reset(&mut self, dim: u32) {
        let d = dim as usize;
        if d < self.values.len() {
            self.values[d] = 0.0;
            self.times[d] = f64::NEG_INFINITY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_dim_is_zero() {
        let m = DecayedMaxVec::new(0.1);
        assert_eq!(m.get(7, 100.0), 0.0);
    }

    #[test]
    fn max_decays_exponentially() {
        let mut m = DecayedMaxVec::new(0.5);
        m.update(0, 0.0, 1.0);
        let at2 = m.get(0, 2.0);
        assert!((at2 - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn newer_smaller_value_can_win_later() {
        let mut m = DecayedMaxVec::new(1.0);
        m.update(0, 0.0, 1.0);
        // At t=1 the old max decayed to e^-1 ≈ 0.368; 0.5 now dominates.
        m.update(0, 1.0, 0.5);
        assert!((m.get(0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn older_larger_value_dominates_smaller_new_one() {
        let mut m = DecayedMaxVec::new(0.01);
        m.update(0, 0.0, 1.0);
        m.update(0, 1.0, 0.5); // decayed old max ≈ 0.990 > 0.5
        let expect = 1.0 * (-0.01f64 * 2.0).exp();
        assert!((m.get(0, 2.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn matches_bruteforce_max_on_random_sequence() {
        // Oracle check: lazy decayed max == max over all (v_i, t_i).
        let lambda = 0.3;
        let mut m = DecayedMaxVec::new(lambda);
        let events: Vec<(f64, f64)> = vec![
            (0.0, 0.2),
            (0.5, 0.9),
            (1.1, 0.1),
            (2.0, 0.85),
            (3.0, 0.3),
            (5.0, 0.05),
        ];
        for &(t, v) in &events {
            m.update(3, t, v);
        }
        let t_query = 6.0;
        let brute = events
            .iter()
            .map(|&(t, v)| v * (-lambda * (t_query - t)).exp())
            .fold(0.0f64, f64::max);
        assert!((m.get(3, t_query) - brute).abs() < 1e-12);
    }

    #[test]
    fn zero_lambda_is_plain_running_max() {
        let mut m = DecayedMaxVec::new(0.0);
        m.update(1, 0.0, 0.4);
        m.update(1, 10.0, 0.2);
        assert_eq!(m.get(1, 100.0), 0.4);
        // Without decay, time order does not matter.
        m.update(1, 5.0, 0.6);
        assert_eq!(m.get(1, 0.0), 0.6);
    }
}
