//! End-to-end oracle tests: every framework × index combination must
//! produce exactly the brute-force streaming join output, and every
//! index exactly the brute-force static all-pairs output.

use proptest::prelude::*;
use sssj_baseline::{brute_force_all_pairs, brute_force_stream};
use sssj_core::batch::all_pairs;
use sssj_core::{run_stream, Framework, JoinSpec, SssjConfig};
use sssj_index::IndexKind;
use sssj_types::{SimilarPair, SparseVectorBuilder, StreamRecord, Timestamp};

/// Random stream strategy: n records, arbitrary gaps, sparse vectors.
fn stream(n: usize, dims: u32, max_nnz: usize) -> impl Strategy<Value = Vec<StreamRecord>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0..dims, 0.05f64..1.0), 1..=max_nnz),
            0.0f64..5.0, // inter-arrival gap
        ),
        1..=n,
    )
    .prop_map(|items| {
        let mut t = 0.0;
        items
            .into_iter()
            .enumerate()
            .map(|(i, (entries, gap))| {
                t += gap;
                let mut b = SparseVectorBuilder::new();
                for (d, w) in entries {
                    b.push(d, w);
                }
                StreamRecord::new(
                    i as u64,
                    Timestamp::new(t),
                    b.build_normalized().expect("positive weights"),
                )
            })
            .collect()
    })
}

/// Pair keys whose similarity is safely away from the θ boundary, and —
/// for robustness against float noise in Δt-boundary cases — away from
/// the horizon boundary too.
fn robust_keys(pairs: &[SimilarPair], theta: f64) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = pairs
        .iter()
        .filter(|p| (p.similarity - theta).abs() > 1e-9)
        .map(|p| p.key())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All eight algorithms equal the brute-force oracle.
    #[test]
    fn all_algorithms_match_bruteforce(
        records in stream(50, 20, 5),
        theta in 0.25f64..0.95,
        lambda in 0.0f64..0.5,
    ) {
        let config = SssjConfig::new(theta, lambda);
        let expected = robust_keys(&brute_force_stream(&records, theta, lambda), theta);
        for framework in Framework::ALL {
            for kind in IndexKind::ALL {
                let mut join = JoinSpec::classic(framework, kind, config).build().unwrap();
                let got = robust_keys(&run_stream(join.as_mut(), &records), theta);
                prop_assert_eq!(
                    &got, &expected,
                    "{}-{} disagrees at θ={} λ={}", framework, kind, theta, lambda
                );
            }
        }
    }

    /// Reported similarity scores equal the oracle's decayed scores.
    #[test]
    fn scores_match_bruteforce(
        records in stream(40, 16, 4),
        theta in 0.3f64..0.9,
        lambda in 0.001f64..0.3,
    ) {
        let config = SssjConfig::new(theta, lambda);
        let mut expected = brute_force_stream(&records, theta, lambda);
        expected.sort_by_key(|a| a.key());
        for framework in Framework::ALL {
            for kind in [IndexKind::L2, IndexKind::L2ap] {
                let mut join = JoinSpec::classic(framework, kind, config).build().unwrap();
                let mut got = run_stream(join.as_mut(), &records);
                got.sort_by_key(|a| a.key());
                for (e, g) in expected.iter().zip(got.iter()) {
                    if e.key() == g.key() {
                        prop_assert!(
                            (e.similarity - g.similarity).abs() < 1e-9,
                            "{}-{}: score mismatch on {:?}", framework, kind, e.key()
                        );
                    }
                }
            }
        }
    }

    /// No duplicates: each pair is reported exactly once.
    #[test]
    fn pairs_are_unique(
        records in stream(60, 10, 4),
        theta in 0.3f64..0.9,
        lambda in 0.0f64..0.3,
    ) {
        let config = SssjConfig::new(theta, lambda);
        for framework in Framework::ALL {
            let mut join = JoinSpec::classic(framework, IndexKind::L2, config).build().unwrap();
            let out = run_stream(join.as_mut(), &records);
            let mut keys: Vec<_> = out.iter().map(|p| p.key()).collect();
            keys.sort_unstable();
            let before = keys.len();
            keys.dedup();
            prop_assert_eq!(before, keys.len(), "{} duplicated pairs", framework);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Static APSS: all four index variants find exactly the brute-force
    /// pairs (timestamps play no part).
    #[test]
    fn all_kinds_match_bruteforce(
        records in stream(60, 24, 6),
        theta in 0.2f64..0.95,
    ) {
        let expected = robust_keys(&brute_force_all_pairs(&records, theta), theta);
        for kind in IndexKind::ALL {
            let (pairs, _) = all_pairs(&records, theta, kind);
            prop_assert_eq!(&robust_keys(&pairs, theta), &expected, "{} at θ={}", kind, theta);
            // `robust_keys` dedups; a pair reported twice must still fail.
            let mut keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(keys.len(), pairs.len(), "{} reported a pair twice", kind);
        }
    }

    /// Static APSS similarity scores, not only pair identities, match the
    /// oracle.
    #[test]
    fn all_pairs_scores_match_bruteforce(
        records in stream(40, 16, 5),
        theta in 0.3f64..0.9,
    ) {
        let mut expected = brute_force_all_pairs(&records, theta);
        expected.sort_by_key(|a| a.key());
        for kind in IndexKind::ALL {
            let (mut pairs, _) = all_pairs(&records, theta, kind);
            pairs.sort_by_key(|a| a.key());
            // Compare scores on the common (robust) subset.
            for (e, g) in expected.iter().zip(pairs.iter()) {
                if e.key() == g.key() {
                    prop_assert!((e.similarity - g.similarity).abs() < 1e-9, "{}", kind);
                }
            }
        }
    }

    /// Work ordering: pruning indexes never traverse more posting entries
    /// than INV, nor index more.
    #[test]
    fn pruning_never_increases_inv_traversal(
        records in stream(50, 16, 6),
        theta in 0.5f64..0.95,
    ) {
        let (_, inv) = all_pairs(&records, theta, IndexKind::Inv);
        for kind in [IndexKind::L2, IndexKind::L2ap] {
            let (_, s) = all_pairs(&records, theta, kind);
            prop_assert!(
                s.entries_traversed <= inv.entries_traversed,
                "{} traversed {} > INV {}", kind, s.entries_traversed, inv.entries_traversed
            );
            prop_assert!(s.postings_added <= inv.postings_added);
        }
    }
}

/// Deterministic regression: a preset-generated stream across a parameter
/// grid, STR-L2 vs oracle — the headline configuration of the paper.
#[test]
fn preset_streams_match_oracle_on_grid() {
    use sssj_data::{generate, preset, Preset};
    for p in [Preset::Rcv1, Preset::Tweets] {
        let records = generate(&preset(p, 250));
        for theta in [0.5, 0.7, 0.9] {
            for lambda in [0.001, 0.01, 0.1] {
                let config = SssjConfig::new(theta, lambda);
                let expected = robust_keys(&brute_force_stream(&records, theta, lambda), theta);
                for framework in Framework::ALL {
                    for kind in IndexKind::ALL {
                        let mut join = JoinSpec::classic(framework, kind, config).build().unwrap();
                        let got = robust_keys(&run_stream(join.as_mut(), &records), theta);
                        assert_eq!(
                            got, expected,
                            "{framework}-{kind} on {p} θ={theta} λ={lambda}"
                        );
                    }
                }
            }
        }
    }
}
