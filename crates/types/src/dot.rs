//! Dot products between sparse vectors.
//!
//! The arithmetic lives in `sssj_kernels` (runtime-dispatched SIMD with
//! a scalar reference); this module owns the probe↔merge dispatch
//! heuristic and the `SparseVector`-typed entry points.

use crate::{DimId, SparseVector, Weight};

/// The probe↔merge crossover: when the longer side is at least this many
/// times the shorter, binary-search probing beats merging.
///
/// Recalibrated for the SIMD kernels (measured with
/// `crates/kernels/examples/crossover.rs` on this container, 1 vCPU):
/// the vectorized gallop (8 packed dim compares per step) pulls the
/// AVX2 break-even down to ≈5–8× where the old scalar-tuned constant
/// was `16`, while the pure-scalar lane's break-even sits at ≈12–16×.
/// `12` favours the dispatched lane — from `12×` up the AVX2 probe wins
/// 2–3× over merging — and costs the scalar fallback at most ~15 % in
/// its narrow 12–16× band. Dispatch is a performance choice only: both
/// paths return results within the documented kernel tolerance, and
/// `probe_crossover_boundary_is_consistent` pins exact agreement at the
/// boundary.
pub const PROBE_CROSSOVER: usize = 12;

/// Dot product of two sparse vectors.
///
/// Dispatches between a linear merge and a binary-search ("galloping")
/// strategy depending on the size imbalance: when one vector is much
/// shorter, probing the longer one is cheaper than merging.
#[inline]
pub fn dot(a: &SparseVector, b: &SparseVector) -> Weight {
    dot_sorted(a.dims(), a.weights(), b.dims(), b.weights())
}

/// [`dot`] over raw parallel `(dims, weights)` slices (each sorted by
/// dimension), for callers that keep residuals as slices rather than
/// `SparseVector`s.
#[inline]
pub fn dot_sorted(ad: &[DimId], aw: &[Weight], bd: &[DimId], bw: &[Weight]) -> Weight {
    let (sd, sw, ld, lw) = if ad.len() <= bd.len() {
        (ad, aw, bd, bw)
    } else {
        (bd, bw, ad, aw)
    };
    if sd.is_empty() {
        return 0.0;
    }
    if ld.len() >= PROBE_CROSSOVER * sd.len() {
        sssj_kernels::dot_probe(sd, sw, ld, lw)
    } else {
        sssj_kernels::dot_merge(sd, sw, ld, lw)
    }
}

/// Dot product by simultaneous scan over the two sorted dimension
/// arrays. O(|a| + |b|).
pub fn dot_merge(a: &SparseVector, b: &SparseVector) -> Weight {
    sssj_kernels::dot_merge(a.dims(), a.weights(), b.dims(), b.weights())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::unit_vector;
    use crate::SparseVectorBuilder;

    fn raw(entries: &[(u32, f64)]) -> SparseVector {
        let mut b = SparseVectorBuilder::new();
        for &(d, w) in entries {
            b.push(d, w);
        }
        b.build().unwrap()
    }

    #[test]
    fn merge_dot_basic() {
        let a = raw(&[(1, 2.0), (3, 1.0), (5, 4.0)]);
        let b = raw(&[(3, 3.0), (5, 0.5), (9, 7.0)]);
        assert_eq!(dot_merge(&a, &b), 3.0 + 2.0);
    }

    #[test]
    fn disjoint_vectors_dot_zero() {
        let a = raw(&[(1, 2.0), (3, 1.0)]);
        let b = raw(&[(2, 3.0), (4, 0.5)]);
        assert_eq!(dot(&a, &b), 0.0);
    }

    #[test]
    fn probe_path_matches_merge() {
        let long = raw(&(0..200)
            .map(|d| (d * 2, 1.0 + d as f64))
            .collect::<Vec<_>>());
        let short = raw(&[(4, 2.0), (100, 3.0), (399, 5.0)]);
        // 200 ≥ PROBE_CROSSOVER·3 so `dot` takes the probe path.
        assert_eq!(dot(&short, &long), dot_merge(&short, &long));
        assert_eq!(dot(&long, &short), dot_merge(&short, &long));
    }

    #[test]
    fn dot_with_empty_is_zero() {
        let a = raw(&[(1, 2.0)]);
        let e = SparseVector::empty();
        assert_eq!(dot(&a, &e), 0.0);
        assert_eq!(dot(&e, &a), 0.0);
    }

    #[test]
    fn dense_dot() {
        let a = unit_vector(&[(0, 3.0), (2, 4.0)]);
        let dense = [1.0, 9.0, 0.5];
        let expect = a.get(0) * 1.0 + a.get(2) * 0.5;
        let dense_dot = |v: &SparseVector| sssj_kernels::dot_dense(v.dims(), v.weights(), &dense);
        assert!((dense_dot(&a) - expect).abs() < 1e-12);
        // Dimensions past the dense array contribute nothing.
        assert_eq!(dense_dot(&unit_vector(&[(10, 1.0)])), 0.0);
    }

    #[test]
    fn probe_crossover_boundary_is_consistent() {
        // Pin the crossover boundary: both paths must agree exactly on
        // each side of it, keeping dispatch purely a performance choice.
        // Exactness holds because with a short side of ≤ 3 dims the
        // merge kernel's 4-wide window never engages (scalar tail only)
        // and the probe kernel is bit-exact by contract.
        for short_n in [1usize, 2, 3] {
            for delta in [-1i64, 0, 1] {
                let long_n = (PROBE_CROSSOVER * short_n) as i64 + delta;
                let long: Vec<(u32, f64)> = (0..long_n)
                    .map(|d| (d as u32 * 2, 1.0 + d as f64))
                    .collect();
                let short: Vec<(u32, f64)> = (0..short_n)
                    .map(|i| (i as u32 * 20, 2.0 + i as f64))
                    .collect();
                let (a, b) = (raw(&short), raw(&long));
                assert_eq!(dot(&a, &b), dot_merge(&a, &b), "{short_n} vs {long_n}");
                assert_eq!(dot(&b, &a), dot_merge(&a, &b), "{short_n} vs {long_n}");
            }
        }
        // The boundary itself is observable only through timing;
        // correctness equality above is the contract.
    }

    #[test]
    fn dot_sorted_matches_dot_on_slices() {
        let a = raw(&[(1, 2.0), (3, 1.0), (5, 4.0)]);
        let b = raw(&[(3, 3.0), (5, 0.5), (9, 7.0)]);
        assert_eq!(
            dot_sorted(a.dims(), a.weights(), b.dims(), b.weights()),
            dot(&a, &b)
        );
        assert_eq!(dot_sorted(&[], &[], b.dims(), b.weights()), 0.0);
    }

    #[test]
    fn self_dot_of_unit_vector_is_one() {
        let v = unit_vector(&[(2, 1.0), (7, 2.0), (40, 0.3)]);
        assert!((dot(&v, &v) - 1.0).abs() < 1e-12);
    }
}
