//! Adversarial streams: ties in time, bursts, gaps, degenerate
//! parameters — every algorithm must agree with the oracle and never
//! panic.

use sssj::baseline::brute_force_stream;
use sssj::prelude::*;

fn keys(pairs: &[SimilarPair], theta: f64) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = pairs
        .iter()
        .filter(|p| (p.similarity - theta).abs() > 1e-9)
        .map(|p| p.key())
        .collect();
    keys.sort_unstable();
    keys
}

fn check_all(records: &[StreamRecord], theta: f64, lambda: f64, label: &str) {
    let expected = keys(&brute_force_stream(records, theta, lambda), theta);
    for framework in Framework::ALL {
        for kind in IndexKind::ALL {
            let mut join = JoinSpec::classic(framework, kind, SssjConfig::new(theta, lambda))
                .build()
                .unwrap();
            let got = keys(&run_stream(join.as_mut(), records), theta);
            assert_eq!(got, expected, "{label}: {framework}-{kind}");
        }
    }
}

fn rec(id: u64, t: f64, entries: &[(u32, f64)]) -> StreamRecord {
    StreamRecord::new(id, Timestamp::new(t), unit_vector(entries))
}

#[test]
fn all_items_at_the_same_instant() {
    let records: Vec<_> = (0..30)
        .map(|i| rec(i, 0.0, &[(i as u32 % 3, 1.0), (10 + i as u32 % 5, 0.5)]))
        .collect();
    check_all(&records, 0.6, 0.1, "simultaneous burst");
}

#[test]
fn single_item_stream() {
    let records = vec![rec(0, 5.0, &[(1, 1.0)])];
    check_all(&records, 0.5, 0.1, "singleton");
}

#[test]
fn identical_items_repeated() {
    let records: Vec<_> = (0..25)
        .map(|i| rec(i, i as f64 * 0.2, &[(7, 1.0)]))
        .collect();
    check_all(&records, 0.8, 0.05, "repeated identical");
}

#[test]
fn alternating_bursts_and_silences() {
    let mut records = Vec::new();
    let mut id = 0;
    for burst in 0..5 {
        let t0 = burst as f64 * 1000.0;
        for k in 0..8 {
            records.push(rec(
                id,
                t0 + k as f64 * 0.1,
                &[(burst, 1.0), (100 + k, 0.4)],
            ));
            id += 1;
        }
    }
    check_all(&records, 0.6, 0.01, "bursts with silences");
}

#[test]
fn single_dimension_heavy_collisions() {
    // Everything shares dimension 0 — maximal posting-list pressure.
    let records: Vec<_> = (0..40)
        .map(|i| rec(i, i as f64, &[(0, 1.0), (1 + i as u32, 0.8)]))
        .collect();
    check_all(&records, 0.5, 0.02, "hot dimension");
}

#[test]
fn theta_one_exact_duplicates_only() {
    let records = vec![
        rec(0, 0.0, &[(1, 1.0), (2, 1.0)]),
        rec(1, 0.0, &[(1, 1.0), (2, 1.0)]),
        rec(2, 0.0, &[(1, 1.0), (3, 1.0)]),
    ];
    // θ = 1.0 admits only exact duplicates at Δt = 0; float dot of the
    // identical pair is 1.0 − ε, so accept either outcome but require
    // consistency and no panic across algorithms.
    let config = SssjConfig::new(1.0, 0.1);
    let mut outputs = Vec::new();
    for framework in Framework::ALL {
        for kind in IndexKind::ALL {
            let mut join = JoinSpec::classic(framework, kind, config).build().unwrap();
            let mut got: Vec<_> = run_stream(join.as_mut(), &records)
                .iter()
                .map(|p| p.key())
                .collect();
            got.sort_unstable();
            outputs.push(got);
        }
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
}

#[test]
fn tiny_theta_reports_every_overlapping_pair() {
    let records: Vec<_> = (0..15)
        .map(|i| rec(i, i as f64 * 0.1, &[(0, 1.0), (i as u32 + 1, 1.0)]))
        .collect();
    check_all(&records, 0.05, 0.001, "tiny theta");
}

#[test]
fn growing_max_weights_stress_reindexing() {
    // Coordinate magnitudes on a shared dimension grow over time, forcing
    // repeated m increases (STR-L2AP re-indexing) while pairs exist.
    let mut records = Vec::new();
    for i in 0..30u64 {
        let w = 0.1 + (i as f64) * 0.2; // growing weight on dim 0
        records.push(rec(i, i as f64 * 0.5, &[(0, w), (1 + (i % 4) as u32, 1.0)]));
    }
    check_all(&records, 0.4, 0.01, "growing maxima");
}

#[test]
fn shrinking_max_weights() {
    let mut records = Vec::new();
    for i in 0..30u64 {
        let w = 5.0 / (1.0 + i as f64);
        records.push(rec(i, i as f64 * 0.5, &[(0, w), (1 + (i % 4) as u32, 1.0)]));
    }
    check_all(&records, 0.4, 0.01, "shrinking maxima");
}

#[test]
fn empty_stream_is_fine() {
    for framework in Framework::ALL {
        for kind in IndexKind::ALL {
            let mut join = JoinSpec::classic(framework, kind, SssjConfig::new(0.5, 0.1))
                .build()
                .unwrap();
            let out = run_stream(join.as_mut(), &[]);
            assert!(out.is_empty());
        }
    }
}

#[test]
fn disjoint_vectors_produce_no_work_pairs() {
    let records: Vec<_> = (0..50)
        .map(|i| rec(i, i as f64, &[(i as u32, 1.0)]))
        .collect();
    for framework in Framework::ALL {
        let mut join = JoinSpec::classic(framework, IndexKind::L2, SssjConfig::new(0.5, 0.01))
            .build()
            .unwrap();
        let out = run_stream(join.as_mut(), &records);
        assert!(out.is_empty());
        assert_eq!(join.stats().pairs_output, 0);
    }
}
