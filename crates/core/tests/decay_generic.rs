//! Property tests for the generalised-decay streaming join: for every
//! decay model, [`Streaming::with_decay`] must produce exactly the
//! brute-force oracle output on randomised streams.

use proptest::prelude::*;
use sssj_baseline::brute_force_stream_model;
use sssj_core::{DecaySpec, StreamJoin, Streaming};
use sssj_types::{DecayModel, SimilarPair, SparseVectorBuilder, StreamRecord, Timestamp};

fn stream(n: usize, dims: u32, max_nnz: usize) -> impl Strategy<Value = Vec<StreamRecord>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0..dims, 0.05f64..1.0), 1..=max_nnz),
            0.0f64..3.0,
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

fn model_strategy() -> impl Strategy<Value = DecayModel> {
    prop_oneof![
        (0.01f64..1.0).prop_map(DecayModel::exponential),
        (0.5f64..20.0).prop_map(DecayModel::sliding_window),
        (0.5f64..20.0).prop_map(DecayModel::linear),
        ((0.5f64..3.0), (0.5f64..5.0)).prop_map(|(a, s)| DecayModel::polynomial(a, s)),
    ]
}

/// Keys away from the θ decision boundary and (for the discontinuous
/// sliding window) away from the horizon edge, so float noise cannot flip
/// membership between implementation and oracle.
fn robust_keys(
    pairs: &[SimilarPair],
    theta: f64,
    stream: &[StreamRecord],
    model: DecayModel,
) -> Vec<(u64, u64)> {
    let tau = model.horizon(theta);
    let time_of = |id: u64| {
        stream
            .iter()
            .find(|r| r.id == id)
            .expect("pair ids come from the stream")
            .t
    };
    let mut keys: Vec<(u64, u64)> = pairs
        .iter()
        .filter(|p| (p.similarity - theta).abs() > 1e-9)
        .filter(|p| (time_of(p.left).delta(time_of(p.right)) - tau).abs() > 1e-9)
        .map(|p| p.key())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn decay_streaming_matches_oracle(
        stream in stream(60, 10, 4),
        model in model_strategy(),
        theta in 0.3f64..0.95,
    ) {
        let oracle = brute_force_stream_model(&stream, theta, model);
        let mut join = Streaming::with_decay(theta, DecaySpec::new(model));
        let mut got = Vec::new();
        for r in &stream {
            join.process(r, &mut got);
        }
        join.finish(&mut got);
        prop_assert_eq!(
            robust_keys(&got, theta, &stream, model),
            robust_keys(&oracle, theta, &stream, model)
        );
    }

    #[test]
    fn ablation_never_changes_output(
        stream in stream(50, 8, 3),
        model in model_strategy(),
        theta in 0.3f64..0.95,
    ) {
        let mut with = Streaming::with_decay(theta, DecaySpec::new(model));
        let mut without = Streaming::with_decay(theta, DecaySpec { model, window_max: false });
        let mut a = Vec::new();
        let mut b = Vec::new();
        for r in &stream {
            with.process(r, &mut a);
            without.process(r, &mut b);
        }
        let mut ka: Vec<_> = a.iter().map(|p| p.key()).collect();
        let mut kb: Vec<_> = b.iter().map(|p| p.key()).collect();
        ka.sort_unstable();
        kb.sort_unstable();
        prop_assert_eq!(ka, kb);
        prop_assert!(with.stats().candidates <= without.stats().candidates);
    }

    #[test]
    fn reported_similarity_is_exact(
        stream in stream(40, 8, 3),
        model in model_strategy(),
        theta in 0.3f64..0.9,
    ) {
        let mut join = Streaming::with_decay(theta, DecaySpec::new(model));
        let mut got = Vec::new();
        for r in &stream {
            join.process(r, &mut got);
        }
        let by_id: std::collections::HashMap<u64, &StreamRecord> =
            stream.iter().map(|r| (r.id, r)).collect();
        for p in &got {
            let a = by_id[&p.left];
            let b = by_id[&p.right];
            let expected = model.apply(
                sssj_types::dot(&a.vector, &b.vector),
                a.t.delta(b.t),
            );
            prop_assert!((p.similarity - expected).abs() < 1e-9);
            prop_assert!(p.similarity >= theta);
        }
    }
}
