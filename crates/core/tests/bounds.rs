//! Targeted tests of the filtering bounds' observable behaviour in static
//! all-pairs search: how the threshold shapes what gets indexed and
//! verified.

use sssj_core::batch::all_pairs;
use sssj_index::IndexKind;
use sssj_types::{SparseVectorBuilder, StreamRecord, Timestamp};

use rand::{RngExt, SeedableRng};

fn random_dataset(n: usize, dims: u32, nnz: usize, seed: u64) -> Vec<StreamRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut b = SparseVectorBuilder::new();
            for _ in 0..nnz {
                b.push(rng.random_range(0..dims), rng.random_range(0.05..1.0));
            }
            StreamRecord::new(
                i as u64,
                Timestamp::ZERO,
                b.build_normalized().expect("positive weights"),
            )
        })
        .collect()
}

#[test]
fn higher_theta_indexes_fewer_postings() {
    let data = random_dataset(300, 40, 8, 1);
    let mut last = u64::MAX;
    for theta in [0.3, 0.5, 0.7, 0.9, 0.99] {
        let (_, stats) = all_pairs(&data, theta, IndexKind::L2);
        assert!(
            stats.postings_added <= last,
            "θ={theta}: postings {} should not exceed {} at lower θ",
            stats.postings_added,
            last
        );
        last = stats.postings_added;
    }
}

#[test]
fn higher_theta_stores_more_residual() {
    // What is not indexed lands in the residual: the two must trade off.
    let data = random_dataset(300, 40, 8, 2);
    let (_, loose) = all_pairs(&data, 0.3, IndexKind::L2);
    let (_, tight) = all_pairs(&data, 0.95, IndexKind::L2);
    assert!(tight.residual_coords > loose.residual_coords);
    assert!(tight.postings_added < loose.postings_added);
    // Nothing is lost: indexed + residual = total coords, at any θ.
    let total: u64 = data.iter().map(|r| r.vector.nnz() as u64).sum();
    assert_eq!(loose.postings_added + loose.residual_coords, total);
    assert_eq!(tight.postings_added + tight.residual_coords, total);
}

#[test]
fn inv_indexes_everything_with_no_residual() {
    let data = random_dataset(100, 20, 6, 3);
    let (_, stats) = all_pairs(&data, 0.8, IndexKind::Inv);
    let total: u64 = data.iter().map(|r| r.vector.nnz() as u64).sum();
    assert_eq!(stats.postings_added, total);
    assert_eq!(stats.residual_coords, 0);
}

#[test]
fn l2ap_verifies_no_more_candidates_than_l2() {
    // The extra AP bounds can only reject more candidates before the
    // exact dot product.
    let data = random_dataset(400, 30, 8, 4);
    for theta in [0.4, 0.6, 0.8] {
        let (_, l2) = all_pairs(&data, theta, IndexKind::L2);
        let (_, l2ap) = all_pairs(&data, theta, IndexKind::L2ap);
        assert!(
            l2ap.full_sims <= l2.full_sims,
            "θ={theta}: L2AP verified {} > L2 {}",
            l2ap.full_sims,
            l2.full_sims
        );
    }
}

#[test]
fn query_then_insert_is_incremental() {
    // Each record queries exactly the prefix indexed before it: every
    // pair is reported by its later member, against an earlier one, and
    // each prefix's pairs are a prefix of the whole run's.
    let data = random_dataset(50, 10, 4, 5);
    let (pairs, _) = all_pairs(&data, 0.2, IndexKind::L2);
    assert!(!pairs.is_empty(), "θ=0.2 on overlapping vectors must match");
    for p in &pairs {
        assert!(p.left < p.right, "{} must precede {}", p.left, p.right);
    }
    for n in [10, 25, 40] {
        let (prefix, _) = all_pairs(&data[..n], 0.2, IndexKind::L2);
        let want: Vec<_> = pairs.iter().filter(|p| p.right < n as u64).collect();
        assert_eq!(prefix.iter().collect::<Vec<_>>(), want, "prefix {n}");
    }
}

#[test]
fn stats_accumulate_monotonically() {
    // L2 needs no dataset-wide max vector, so the run over each prefix is
    // the whole run's state after that many records.
    let data = random_dataset(100, 15, 5, 6);
    let (_, mut prev) = all_pairs(&data[..0], 0.5, IndexKind::L2);
    for n in 1..=data.len() {
        let (_, now) = all_pairs(&data[..n], 0.5, IndexKind::L2);
        assert!(now.entries_traversed >= prev.entries_traversed);
        assert!(now.postings_added >= prev.postings_added);
        assert!(now.full_sims >= prev.full_sims);
        prev = now;
    }
}
