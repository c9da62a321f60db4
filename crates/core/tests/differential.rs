//! Differential property tests: the optimized STR hot path (dense epoch
//! accumulator, flat packed posting blocks, memoized decay bounds, the
//! arrival-ordered row store) must emit exactly the same pair set as the naive
//! O(n²) sliding-window baseline on random decayed streams.

use proptest::prelude::*;
use sssj_baseline::brute_force_stream;
use sssj_core::{SssjConfig, StreamJoin, Streaming};
use sssj_index::IndexKind;
use sssj_types::{SimilarPair, SparseVectorBuilder, StreamRecord, Timestamp};

/// A random decayed stream: ids strictly increasing, timestamps
/// non-decreasing with random gaps, vectors with up to 5 random positive
/// coordinates over a small vocabulary (small → dense collisions → many
/// near-threshold pairs).
fn stream_strategy() -> impl Strategy<Value = Vec<StreamRecord>> {
    proptest::collection::vec(
        (
            0.0f64..0.8,                                               // arrival gap
            proptest::collection::vec((0u32..18, 0.05f64..1.0), 1..6), // coords
        ),
        1..120,
    )
    .prop_map(|raw| {
        let mut t = 0.0;
        raw.into_iter()
            .enumerate()
            .filter_map(|(i, (gap, coords))| {
                t += gap;
                let mut b = SparseVectorBuilder::with_capacity(coords.len());
                for (d, w) in coords {
                    b.push(d, w);
                }
                let v = b.build_normalized().ok()?;
                Some(StreamRecord::new(i as u64, Timestamp::new(t), v))
            })
            .collect()
    })
}

fn sorted_keys(pairs: &[SimilarPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
    keys.sort_unstable();
    keys
}

fn run_streaming(
    kind: IndexKind,
    records: &[StreamRecord],
    theta: f64,
    lambda: f64,
) -> Vec<SimilarPair> {
    let mut join = Streaming::new(SssjConfig::new(theta, lambda), kind);
    let mut out = Vec::new();
    for r in records {
        join.process(r, &mut out);
    }
    join.finish(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// STR-L2 and STR-L2AP equal the brute-force oracle: identical pair
    /// sets, and per-pair similarities equal to 1e-9.
    #[test]
    fn optimized_str_paths_match_naive_baseline(
        records in stream_strategy(),
        theta in 0.3f64..0.95,
        lambda in 0.01f64..1.0,
    ) {
        let expected = brute_force_stream(&records, theta, lambda);
        let expected_keys = sorted_keys(&expected);
        for kind in [IndexKind::L2, IndexKind::L2ap, IndexKind::Inv, IndexKind::Ap] {
            let got = run_streaming(kind, &records, theta, lambda);
            prop_assert_eq!(
                sorted_keys(&got),
                expected_keys.clone(),
                "pair set mismatch for {} θ={} λ={}",
                kind,
                theta,
                lambda
            );
            // Similarities must match the oracle, not just the keys: the
            // decay table may only influence *pruning*, never values.
            let mut got_sims: Vec<(u64, u64, f64)> =
                got.iter().map(|p| (p.key().0, p.key().1, p.similarity)).collect();
            got_sims.sort_by_key(|s| (s.0, s.1));
            let mut want_sims: Vec<(u64, u64, f64)> = expected
                .iter()
                .map(|p| (p.key().0, p.key().1, p.similarity))
                .collect();
            want_sims.sort_by_key(|s| (s.0, s.1));
            for (g, w) in got_sims.iter().zip(&want_sims) {
                prop_assert!(
                    (g.2 - w.2).abs() < 1e-9,
                    "similarity drift on pair ({}, {}): {} vs {}",
                    g.0, g.1, g.2, w.2
                );
            }
        }
    }

    /// The decomposed query/insert halves (the sharded-execution API)
    /// agree with the fused process path.
    #[test]
    fn query_insert_decomposition_matches_process(
        records in stream_strategy(),
        theta in 0.3f64..0.9,
        lambda in 0.05f64..1.0,
    ) {
        let config = SssjConfig::new(theta, lambda);
        let fused = run_streaming(IndexKind::L2, &records, theta, lambda);
        let mut join = Streaming::new(config, IndexKind::L2);
        let mut split = Vec::new();
        for r in &records {
            join.query(r, &mut split);
            join.insert_record(r);
        }
        prop_assert_eq!(sorted_keys(&split), sorted_keys(&fused));
    }

    /// End-to-end lane differential: every engine emits the same pair set
    /// with the SIMD kernels forced to their scalar references as with
    /// runtime dispatch. This is the whole-join counterpart of the
    /// per-kernel tests in `sssj-kernels` — it catches dispatch-boundary
    /// mistakes (wrong slack rearrangement, order-dependent accumulation)
    /// no micro test can see.
    #[test]
    fn forced_scalar_lane_matches_auto_dispatch(
        records in stream_strategy(),
        theta in 0.3f64..0.9,
        lambda in 0.05f64..1.0,
    ) {
        // The lane override is process-global; serialize with any other
        // test that touches it and always restore.
        static LANE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LANE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                sssj_kernels::force_lane(None);
            }
        }
        let _restore = Restore;

        for kind in [IndexKind::L2, IndexKind::Inv] {
            sssj_kernels::force_lane(None);
            let auto = run_streaming(kind, &records, theta, lambda);
            sssj_kernels::force_lane(Some(sssj_kernels::Lane::Scalar));
            let scalar = run_streaming(kind, &records, theta, lambda);
            sssj_kernels::force_lane(None);
            prop_assert_eq!(
                sorted_keys(&scalar),
                sorted_keys(&auto),
                "lane-dependent pair set for {} θ={} λ={}",
                kind,
                theta,
                lambda
            );
        }
    }
}
