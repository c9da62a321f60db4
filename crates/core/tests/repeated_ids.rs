//! A vector id that arrives twice names two vectors. The brute-force
//! oracle pairs each arrival on its own, and so must every STR and MB
//! index and the decay engine: one pair per arrival, each with its own
//! similarity, never one merged pair scoring the sum of both.

use rand::{RngExt, SeedableRng};
use sssj_baseline::brute_force_stream;
use sssj_core::{run_stream, JoinSpec};
use sssj_types::{vector::unit_vector, SimilarPair, StreamRecord, Timestamp};

/// Every STR and MB index, STR-L2 behind a reorder buffer and under the
/// online oracle check, and the decay engine under the exponential model
/// with and without its window-max bound. `{l}` stands for λ.
const SPECS: [&str; 12] = [
    "str-inv?lambda={l}",
    "str-ap?lambda={l}",
    "str-l2ap?lambda={l}",
    "str-l2?lambda={l}",
    "mb-inv?lambda={l}",
    "mb-ap?lambda={l}",
    "mb-l2ap?lambda={l}",
    "mb-l2?lambda={l}",
    "str-l2?lambda={l}&reorder=2",
    "str-l2?lambda={l}&checked",
    "decay?model=exp:{l}",
    "decay?model=exp:{l}&bounds=l2",
];

fn rec(id: u64, t: f64, dims: &[u32]) -> StreamRecord {
    let entries: Vec<(u32, f64)> = dims.iter().map(|&d| (d, 1.0)).collect();
    StreamRecord::new(id, Timestamp::new(t), unit_vector(&entries))
}

/// `(left, right, similarity)` sorted, pairs within `1e-9` of `θ`
/// dropped (float noise may put them on either side).
fn sorted(pairs: &[SimilarPair], theta: f64) -> Vec<(u64, u64, f64)> {
    let mut v: Vec<(u64, u64, f64)> = pairs
        .iter()
        .filter(|p| (p.similarity - theta).abs() > 1e-9)
        .map(|p| (p.left, p.right, p.similarity))
        .collect();
    v.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
    v
}

fn assert_matches_oracle(records: &[StreamRecord], theta: f64, lambda: f64) {
    let want = sorted(&brute_force_stream(records, theta, lambda), theta);
    for template in SPECS {
        let spec = format!(
            "{}&theta={theta}",
            template.replace("{l}", &lambda.to_string())
        );
        let parsed: JoinSpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
        let mut join = parsed.build().expect("spec builds");
        let got = sorted(&run_stream(join.as_mut(), records), theta);
        let same = |g: &(u64, u64, f64), w: &(u64, u64, f64)| {
            (g.0, g.1) == (w.0, w.1) && (g.2 - w.2).abs() < 1e-9
        };
        if let Some(i) = (0..got.len().max(want.len()))
            .find(|&i| !matches!((got.get(i), want.get(i)), (Some(g), Some(w)) if same(g, w)))
        {
            panic!(
                "{spec}: {} pairs, oracle {}; first difference at {i}: got {:?}, want {:?}",
                got.len(),
                want.len(),
                got.get(i),
                want.get(i)
            );
        }
    }
}

#[test]
fn a_repeated_id_pairs_once_per_arrival() {
    let stream = [
        rec(0, 0.0, &[1, 2]),
        rec(0, 1.0, &[3, 4]),
        rec(7, 2.0, &[1, 2, 3, 4]),
    ];
    let (theta, lambda) = (0.3, 0.01);
    let oracle = sorted(&brute_force_stream(&stream, theta, lambda), theta);
    // Each arrival of id 0 meets id 7 at cosine 1/√2, decayed over 2
    // and over 1 time units; a merged pair would score their sum.
    assert_eq!(oracle.len(), 2);
    assert!((oracle[0].2 - 0.5f64.sqrt() * (-0.02f64).exp()).abs() < 1e-12);
    assert!((oracle[1].2 - 0.5f64.sqrt() * (-0.01f64).exp()).abs() < 1e-12);
    assert_matches_oracle(&stream, theta, lambda);
}

#[test]
fn random_streams_with_repeated_ids_match_the_oracle() {
    for seed in 0..12u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let stream: Vec<StreamRecord> = (0..250)
            .map(|_| {
                t += rng.random_range(0.0..1.0);
                let entries: Vec<(u32, f64)> = (0..rng.random_range(1..6))
                    .map(|_| (rng.random_range(0..12u32), rng.random_range(0.1..1.0)))
                    .collect();
                // Ids from a small range: most arrive several times, in
                // no particular order.
                let id = rng.random_range(0..40u64);
                StreamRecord::new(id, Timestamp::new(t), unit_vector(&entries))
            })
            .collect();
        for (theta, lambda) in [(0.5, 0.05), (0.7, 0.2), (0.3, 0.01)] {
            assert_matches_oracle(&stream, theta, lambda);
        }
    }
}
