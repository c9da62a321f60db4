//! The plain per-dimension running maximum `m`.

/// Per-dimension running maximum over the vectors seen so far — the
/// paper's `m` (and, restricted to the indexed part, `m̂`).
///
/// Index-construction bounds of the AP family (`b1`) compare each new
/// coordinate against `m_j`; in the streaming setting an *increase* of
/// `m_j` breaks the prefix-filtering invariant and triggers re-indexing,
/// so [`MaxVector::update`] reports whether the maximum grew.
#[derive(Clone, Debug, Default)]
pub struct MaxVector {
    values: Vec<f64>,
}

impl MaxVector {
    /// Creates an empty max vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of dimensions touched.
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// The maximum seen at `dim` (0 when untouched).
    #[inline]
    pub fn get(&self, dim: u32) -> f64 {
        self.values.get(dim as usize).copied().unwrap_or(0.0)
    }

    /// Records `value` at `dim`; returns `true` iff the maximum increased.
    pub fn update(&mut self, dim: u32, value: f64) -> bool {
        let d = dim as usize;
        if d >= self.values.len() {
            self.values.resize(d + 1, 0.0);
        }
        if value > self.values[d] {
            self.values[d] = value;
            true
        } else {
            false
        }
    }

    /// Dense view of the maxima (index = dimension).
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Zeroes the maximum at `dim` in O(1); the vector keeps its length.
    pub fn reset(&mut self, dim: u32) {
        if let Some(v) = self.values.get_mut(dim as usize) {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_reports_growth() {
        let mut m = MaxVector::new();
        assert!(m.update(3, 0.5));
        assert!(!m.update(3, 0.4));
        assert!(m.update(3, 0.6));
        assert_eq!(m.get(3), 0.6);
        assert_eq!(m.get(99), 0.0);
    }

    #[test]
    fn reset_zeroes_one_dimension() {
        let mut m = MaxVector::new();
        m.update(1, 1.0);
        m.update(4, 0.5);
        m.reset(1);
        m.reset(99);
        assert_eq!((m.get(1), m.get(4), m.dims()), (0.0, 0.5, 5));
        assert!(m.update(1, 0.2));
    }
}
