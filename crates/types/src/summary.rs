//! Per-vector summary statistics used by the AP-family bounds.

use crate::{SparseVector, Weight};

/// The per-vector statistics the filtering framework consumes: `vm_x`
/// (maximum coordinate), `Σ_x` (coordinate sum) and `|x|` (number of
/// non-zeros). Computed once per vector and cached next to the index.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VectorSummary {
    /// `vm_x` — the maximum coordinate value.
    pub max_weight: Weight,
    /// `Σ_x` — the sum of coordinate values.
    pub sum: Weight,
    /// `|x|` — the number of non-zero coordinates.
    pub nnz: u32,
}

impl VectorSummary {
    /// Computes the summary of a vector.
    pub fn of(v: &SparseVector) -> Self {
        Self::of_weights(v.weights())
    }

    /// Computes the summary from a raw weight slice (the residual-prefix
    /// form the streaming hot path stores).
    pub fn of_weights(weights: &[Weight]) -> Self {
        let mut max_weight = 0.0f64;
        let mut sum = 0.0;
        for &w in weights {
            max_weight = max_weight.max(w);
            sum += w;
        }
        VectorSummary {
            max_weight,
            sum,
            nnz: weights.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::unit_vector;

    #[test]
    fn summary_matches_vector_accessors() {
        let v = unit_vector(&[(1, 1.0), (4, 3.0), (9, 2.0)]);
        let s = VectorSummary::of(&v);
        assert_eq!(s.nnz, 3);
        assert!((s.max_weight - v.max_weight()).abs() < 1e-15);
        assert!((s.sum - v.sum()).abs() < 1e-15);
    }

    #[test]
    fn empty_vector_summary() {
        let s = VectorSummary::of(&SparseVector::empty());
        assert_eq!(s, VectorSummary::default());
    }
}
