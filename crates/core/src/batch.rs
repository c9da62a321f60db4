//! Static all-pairs similarity search (APSS): the problem of §4, with no
//! time in it.
//!
//! Given a dataset of unit-normalised sparse vectors and a threshold `θ`,
//! find every pair with `dot(x, y) ≥ θ`. [`all_pairs`] runs the static
//! index of Algorithms 2–4 — [`Streaming`] with time filtering off and
//! `λ = 0` — over the dataset, querying each vector before inserting it,
//! so every pair is found exactly once.
//!
//! ```
//! use sssj_core::batch::all_pairs;
//! use sssj_index::IndexKind;
//! use sssj_types::{vector::unit_vector, StreamRecord, Timestamp};
//!
//! let records: Vec<StreamRecord> = vec![
//!     StreamRecord::new(0, Timestamp::ZERO, unit_vector(&[(1, 1.0), (2, 1.0)])),
//!     StreamRecord::new(1, Timestamp::ZERO, unit_vector(&[(1, 1.0), (2, 1.0)])),
//!     StreamRecord::new(2, Timestamp::ZERO, unit_vector(&[(7, 1.0)])),
//! ];
//! let (pairs, _stats) = all_pairs(&records, 0.9, IndexKind::L2);
//! assert_eq!(pairs.len(), 1); // only the identical pair (0, 1)
//! ```

use sssj_index::IndexKind;
use sssj_metrics::JoinStats;
use sssj_types::{DecayModel, SimilarPair, StreamRecord};

use crate::{StreamJoin, Streaming};

/// Finds all pairs with plain cosine similarity ≥ θ in `records` — the
/// static APSS problem, solved by incremental query-then-insert over the
/// chosen index. Timestamps are ignored.
///
/// Panics unless `θ ∈ (0, 1]`.
pub fn all_pairs(
    records: &[StreamRecord],
    theta: f64,
    kind: IndexKind,
) -> (Vec<SimilarPair>, JoinStats) {
    let mut index = Streaming::untimed(theta, kind, DecayModel::exponential(0.0));
    index.seed_max(records.iter().flat_map(|r| r.vector.iter()));
    let mut pairs = Vec::new();
    for r in records {
        index.process(r, &mut pairs);
    }
    (pairs, index.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_types::{vector::unit_vector, SparseVector, Timestamp};

    fn rec(id: u64, entries: &[(u32, f64)]) -> StreamRecord {
        StreamRecord::new(id, Timestamp::ZERO, unit_vector(entries))
    }

    fn run(kind: IndexKind, data: &[StreamRecord], theta: f64) -> Vec<(u64, u64)> {
        let (pairs, _) = all_pairs(data, theta, kind);
        let mut keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn all_pairs_reports_each_pair_once() {
        let data = vec![
            rec(0, &[(1, 1.0)]),
            rec(1, &[(1, 1.0)]),
            rec(2, &[(1, 1.0)]),
        ];
        let (pairs, stats) = all_pairs(&data, 0.9, IndexKind::L2);
        let mut keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(stats.pairs_output, 3);
    }

    #[test]
    fn kinds_agree_on_output() {
        let data = vec![
            rec(0, &[(1, 1.0), (2, 1.0), (3, 1.0)]),
            rec(1, &[(2, 1.0), (3, 1.0), (4, 1.0)]),
            rec(2, &[(5, 1.0)]),
            rec(3, &[(3, 1.0), (4, 1.0), (5, 1.0)]),
        ];
        let reference = run(IndexKind::Inv, &data, 0.5);
        for kind in [IndexKind::Ap, IndexKind::L2ap, IndexKind::L2] {
            assert_eq!(run(kind, &data, 0.5), reference, "{kind}");
        }
    }

    #[test]
    fn identical_vectors_found_by_all_policies() {
        let data = vec![
            rec(0, &[(1, 1.0), (2, 2.0)]),
            rec(1, &[(1, 1.0), (2, 2.0)]),
            rec(2, &[(9, 1.0)]),
        ];
        for kind in IndexKind::ALL {
            assert_eq!(run(kind, &data, 0.99), vec![(0, 1)], "{kind}");
        }
    }

    #[test]
    fn orthogonal_vectors_never_pair() {
        let data = vec![
            rec(0, &[(1, 1.0)]),
            rec(1, &[(2, 1.0)]),
            rec(2, &[(3, 1.0)]),
        ];
        for kind in IndexKind::ALL {
            assert!(run(kind, &data, 0.1).is_empty(), "{kind}");
        }
    }

    #[test]
    fn partial_overlap_respects_threshold() {
        // dot = 0.5 for two unit vectors sharing one of two equal coords.
        let data = vec![rec(0, &[(1, 1.0), (2, 1.0)]), rec(1, &[(1, 1.0), (3, 1.0)])];
        for kind in IndexKind::ALL {
            assert_eq!(run(kind, &data, 0.4), vec![(0, 1)], "{kind}");
            assert!(run(kind, &data, 0.6).is_empty(), "{kind}");
        }
    }

    #[test]
    fn all_policies_agree_on_small_random_dataset() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<StreamRecord> = (0..80)
            .map(|i| {
                let nnz = rng.random_range(1..6);
                let entries: Vec<(u32, f64)> = (0..nnz)
                    .map(|_| (rng.random_range(0..12u32), rng.random_range(0.1..1.0)))
                    .collect();
                rec(i, &entries)
            })
            .collect();
        for theta in [0.3, 0.6, 0.9] {
            let reference = run(IndexKind::Inv, &data, theta);
            for kind in [IndexKind::Ap, IndexKind::L2ap, IndexKind::L2] {
                assert_eq!(run(kind, &data, theta), reference, "θ={theta} {kind}");
            }
        }
    }

    #[test]
    fn pruning_reduces_traversal() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<StreamRecord> = (0..200)
            .map(|i| {
                let entries: Vec<(u32, f64)> = (0..8)
                    .map(|_| (rng.random_range(0..40u32), rng.random_range(0.1..1.0)))
                    .collect();
                rec(i, &entries)
            })
            .collect();
        let (_, inv) = all_pairs(&data, 0.8, IndexKind::Inv);
        let (_, l2) = all_pairs(&data, 0.8, IndexKind::L2);
        assert!(
            l2.postings_added < inv.postings_added,
            "L2 should index fewer entries than INV"
        );
        assert!(
            l2.entries_traversed < inv.entries_traversed,
            "L2 should traverse fewer entries than INV"
        );
    }

    #[test]
    fn l2ap_stats_accumulate_monotonically() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let data: Vec<StreamRecord> = (0..100)
            .map(|i| {
                let entries: Vec<(u32, f64)> = (0..5)
                    .map(|_| (rng.random_range(0..15u32), rng.random_range(0.05..1.0)))
                    .collect();
                rec(i, &entries)
            })
            .collect();
        let mut index = Streaming::untimed(0.5, IndexKind::L2ap, DecayModel::exponential(0.0));
        index.seed_max(data.iter().flat_map(|r| r.vector.iter()));
        let (mut out, mut prev) = (Vec::new(), index.stats());
        for r in &data {
            index.process(r, &mut out);
            let now = index.stats();
            assert!(now.entries_traversed >= prev.entries_traversed);
            assert!(now.postings_added >= prev.postings_added);
            assert!(now.full_sims >= prev.full_sims);
            prev = now;
        }
        assert!(prev.postings_added > 0 && prev.full_sims > 0);
    }

    #[test]
    fn empty_vector_is_ignored() {
        let empty = |id| StreamRecord::new(id, Timestamp::ZERO, SparseVector::empty());
        for kind in IndexKind::ALL {
            let (pairs, stats) = all_pairs(&[empty(0), empty(1)], 0.5, kind);
            assert!(pairs.is_empty(), "{kind}");
            assert_eq!((stats.postings_added, stats.residual_coords), (0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zero_theta_rejected() {
        all_pairs(&[], 0.0, IndexKind::L2);
    }
}
