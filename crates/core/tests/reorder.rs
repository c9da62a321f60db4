//! Property tests for [`sssj_core::ReorderBuffer`]: a slack-bounded
//! shuffle of a stream, fed through the buffer, must produce exactly the
//! output of the same join over the stably time-sorted stream.

use proptest::prelude::*;
use sssj_core::{
    run_stream, Framework, JoinSpec, ReorderBuffer, SssjConfig, StreamJoin, Streaming,
};
use sssj_index::IndexKind;
use sssj_types::{SimilarPair, SparseVectorBuilder, StreamRecord, Timestamp};

/// A sorted random stream plus per-record backward jitters bounded by
/// `slack`: record i is presented at *position* order of `t_i − jitter_i`
/// while keeping its true timestamp, which models network-delayed
/// delivery. The result is a stream whose disorder is within `slack`.
fn jittered_stream(
    n: usize,
    dims: u32,
    slack: f64,
) -> impl Strategy<Value = (Vec<StreamRecord>, Vec<StreamRecord>)> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0..dims, 0.05f64..1.0), 1..=4),
            0.0f64..3.0,  // inter-arrival gap
            0.0f64..=1.0, // jitter fraction of slack
        ),
        2..=n,
    )
    .prop_map(move |items| {
        let mut t = 0.0;
        let mut sorted = Vec::with_capacity(items.len());
        let mut delivery: Vec<(f64, usize)> = Vec::with_capacity(items.len());
        for (i, (entries, gap, jitter)) in items.into_iter().enumerate() {
            t += gap;
            let mut b = SparseVectorBuilder::new();
            for (d, w) in entries {
                b.push(d, w);
            }
            let r = StreamRecord::new(
                i as u64,
                Timestamp::new(t),
                b.build_normalized().expect("positive weights"),
            );
            sorted.push(r);
            // Deliver at time t − jitter·slack (never before t=0); ties
            // broken by original index so delivery order is deterministic.
            delivery.push(((t - jitter * slack).max(0.0), i));
        }
        delivery.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let shuffled: Vec<StreamRecord> = delivery
            .into_iter()
            .map(|(_, i)| sorted[i].clone())
            .collect();
        (sorted, shuffled)
    })
}

fn keys(pairs: &[SimilarPair], theta: f64) -> Vec<(u64, u64)> {
    let mut k: Vec<(u64, u64)> = pairs
        .iter()
        .filter(|p| (p.similarity - theta).abs() > 1e-9)
        .map(|p| p.key())
        .collect();
    k.sort_unstable();
    k.dedup();
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Reordered delivery within slack == sorted-stream output, for every
    /// framework × index combination.
    #[test]
    fn slack_bounded_disorder_is_transparent(
        (sorted, shuffled) in jittered_stream(40, 12, 6.0),
        theta in 0.3f64..0.9,
        lambda in 0.01f64..0.4,
    ) {
        let config = SssjConfig::new(theta, lambda);
        for framework in Framework::ALL {
            for kind in IndexKind::ALL {
                let mut reference = JoinSpec::classic(framework, kind, config).build().unwrap();
                let want = keys(&run_stream(reference.as_mut(), &sorted), theta);

                let inner = JoinSpec::classic(framework, kind, config).build().unwrap();
                let mut buffered = ReorderBuffer::new(inner, 6.0);
                let mut got = Vec::new();
                for r in &shuffled {
                    buffered
                        .push(r, &mut got)
                        .expect("jitter is within slack; nothing may be late");
                }
                let _ = buffered.into_inner(&mut got);
                prop_assert_eq!(
                    keys(&got, theta), want,
                    "{}-{} disagrees under reordering", framework, kind
                );
            }
        }
    }

    /// With arbitrary (unbounded) shuffling and the permissive drop
    /// policy, the output is still a sound subset: every reported pair is
    /// genuinely θ-similar under the decayed measure.
    #[test]
    fn dropped_late_records_never_create_false_positives(
        (sorted, _) in jittered_stream(30, 10, 0.0),
        theta in 0.3f64..0.9,
        lambda in 0.01f64..0.4,
        seed in 0u64..1000,
    ) {
        // Deterministic Fisher–Yates from the seed: full shuffle, far
        // beyond any slack.
        let mut shuffled = sorted.clone();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }

        let config = SssjConfig::new(theta, lambda);
        let inner = Streaming::new(config, IndexKind::L2);
        let mut buffered = ReorderBuffer::new(inner, 1.0);
        let mut got = Vec::new();
        for r in &shuffled {
            buffered.process(r, &mut got); // late ones dropped, counted
        }
        buffered.finish(&mut got);

        let by_id: std::collections::HashMap<u64, &StreamRecord> =
            sorted.iter().map(|r| (r.id, r)).collect();
        for p in &got {
            let (x, y) = (by_id[&p.left], by_id[&p.right]);
            let sim = x.vector.dot(&y.vector) * (-lambda * x.t.delta(y.t)).exp();
            prop_assert!(
                sim >= theta - 1e-9,
                "pair ({}, {}) reported at sim {} < θ={}", p.left, p.right, sim, theta
            );
        }
    }
}
