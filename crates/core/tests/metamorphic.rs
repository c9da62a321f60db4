//! Metamorphic properties of the streaming join: transformations of the
//! input with a predictable effect on the output.

use proptest::prelude::*;
use sssj_core::{run_stream, Framework, JoinSpec, SssjConfig};
use sssj_index::IndexKind;
use sssj_types::{SimilarPair, SparseVectorBuilder, StreamRecord, Timestamp};

fn stream(n: usize) -> impl Strategy<Value = Vec<StreamRecord>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0u32..16, 0.05f64..1.0), 1..5),
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

fn run(records: &[StreamRecord], theta: f64, lambda: f64) -> Vec<SimilarPair> {
    let mut join = JoinSpec::classic(
        Framework::Streaming,
        IndexKind::L2,
        SssjConfig::new(theta, lambda),
    )
    .build()
    .unwrap();
    let mut out = run_stream(join.as_mut(), records);
    out.sort_by_key(|p| p.key());
    out
}

fn shift_times(records: &[StreamRecord], dt: f64) -> Vec<StreamRecord> {
    records
        .iter()
        .map(|r| StreamRecord::new(r.id, r.t.plus(dt), r.vector.clone()))
        .collect()
}

fn scale_times(records: &[StreamRecord], c: f64) -> Vec<StreamRecord> {
    records
        .iter()
        .map(|r| StreamRecord::new(r.id, Timestamp::new(r.t.seconds() * c), r.vector.clone()))
        .collect()
}

/// Drops pairs whose similarity sits within float slack of θ — those can
/// legitimately flip under re-association of the decay arithmetic.
fn robust(pairs: Vec<SimilarPair>, theta: f64) -> Vec<(u64, u64)> {
    pairs
        .into_iter()
        .filter(|p| (p.similarity - theta).abs() > 1e-9)
        .map(|p| p.key())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Translating all timestamps leaves the join unchanged (only gaps
    /// matter).
    #[test]
    fn time_shift_invariance(
        records in stream(40),
        theta in 0.3f64..0.9,
        lambda in 0.001f64..0.3,
        dt in 0.0f64..1e4,
    ) {
        let base = run(&records, theta, lambda);
        let shifted = run(&shift_times(&records, dt), theta, lambda);
        prop_assert_eq!(base.len(), shifted.len());
        for (a, b) in base.iter().zip(&shifted) {
            prop_assert_eq!(a.key(), b.key());
            prop_assert!((a.similarity - b.similarity).abs() < 1e-9);
        }
    }

    /// Dilating time by c while dividing λ by c leaves the join
    /// unchanged: sim depends only on λ·Δt.
    #[test]
    fn time_scale_invariance(
        records in stream(40),
        theta in 0.3f64..0.9,
        lambda in 0.001f64..0.3,
        c in 0.1f64..10.0,
    ) {
        let base = robust(run(&records, theta, lambda), theta);
        let scaled = robust(run(&scale_times(&records, c), theta, lambda / c), theta);
        prop_assert_eq!(base, scaled);
    }

    /// Raising θ can only shrink the output, and the survivors keep
    /// their scores.
    #[test]
    fn theta_monotonicity(
        records in stream(40),
        theta in 0.3f64..0.7,
        bump in 0.01f64..0.25,
        lambda in 0.0f64..0.2,
    ) {
        let loose = run(&records, theta, lambda);
        let tight = run(&records, theta + bump, lambda);
        let loose_keys: std::collections::HashSet<_> =
            loose.iter().map(|p| p.key()).collect();
        for p in &tight {
            prop_assert!(
                loose_keys.contains(&p.key()),
                "pair {:?} appears only at the higher threshold", p.key()
            );
        }
        prop_assert!(tight.len() <= loose.len());
    }

    /// Raising λ can only shrink the output (decay is monotone), and
    /// shared pairs decay at least as much.
    #[test]
    fn lambda_monotonicity(
        records in stream(40),
        theta in 0.3f64..0.9,
        lambda in 0.001f64..0.1,
        factor in 1.0f64..5.0,
    ) {
        let slow = run(&records, theta, lambda);
        let fast = run(&records, theta, lambda * factor);
        let slow_map: std::collections::HashMap<_, f64> =
            slow.iter().map(|p| (p.key(), p.similarity)).collect();
        for p in &fast {
            match slow_map.get(&p.key()) {
                Some(&s) => prop_assert!(p.similarity <= s + 1e-9),
                None => prop_assert!(
                    false,
                    "pair {:?} appears only at the faster decay", p.key()
                ),
            }
        }
        prop_assert!(fast.len() <= slow.len());
    }

    /// Appending items to a stream never changes the pairs already
    /// reported among the original prefix (online property: the past is
    /// immutable).
    #[test]
    fn prefix_stability(
        records in stream(40),
        theta in 0.3f64..0.9,
        lambda in 0.001f64..0.2,
        cut in 1usize..39,
    ) {
        let cut = cut.min(records.len());
        let full = run(&records, theta, lambda);
        let prefix = run(&records[..cut], theta, lambda);
        let last_id = records[cut - 1].id;
        let full_within_prefix: Vec<_> = full
            .iter()
            .filter(|p| p.right <= last_id)
            .map(|p| p.key())
            .collect();
        let prefix_keys: Vec<_> = prefix.iter().map(|p| p.key()).collect();
        prop_assert_eq!(full_within_prefix, prefix_keys);
    }
}
