//! Differential tests for candidate-aware sharded execution: for every
//! inner engine and shard count, the sharded pair set must equal the
//! sequential engine's pair set — routing may only skip shards that
//! cannot produce pairs, never drop one.

use proptest::prelude::*;
use sssj_core::{run_stream, DecaySpec, JoinSpec, MiniBatch, SssjConfig, Streaming};
use sssj_index::IndexKind;
use sssj_lsh::{LshJoin, LshParams};
use sssj_parallel::{run_sharded, RoutingMode};
use sssj_types::{DecayModel, SimilarPair, SparseVectorBuilder, StreamRecord, Timestamp};

fn sorted_keys(pairs: &[SimilarPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
    keys.sort_unstable();
    keys
}

/// A clustered random stream: each record draws its dimensions from one
/// of `clusters` disjoint dimension ranges (plus occasional cross-cluster
/// noise), Zipf-ish over clusters. Disjoint clusters are what gives the
/// router shards to skip.
fn clustered_stream(seed: u64, n: usize, clusters: u32) -> Vec<StreamRecord> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n as u64)
        .map(|i| {
            t += rng.random_range(0.0..0.4);
            // Zipf-ish cluster choice: squaring a uniform skews low.
            let u: f64 = rng.random_range(0.0..1.0);
            let cluster = ((u * u) * clusters as f64) as u32;
            let base = cluster * 32;
            let entries: Vec<(u32, f64)> = (0..rng.random_range(1..6))
                .map(|_| {
                    let dim = if rng.random_range(0.0..1.0) < 0.05 {
                        rng.random_range(0..clusters * 32) // cross-cluster noise
                    } else {
                        base + rng.random_range(0..12u32)
                    };
                    (dim, rng.random_range(0.1..1.0))
                })
                .collect();
            let mut b = SparseVectorBuilder::with_capacity(entries.len());
            for (d, w) in entries {
                b.push(d, w);
            }
            StreamRecord::new(i, Timestamp::new(t), b.build_normalized().unwrap())
        })
        .collect()
}

fn run_spec(
    spec: &str,
    stream: &[StreamRecord],
    mode: RoutingMode,
) -> sssj_parallel::ShardedOutput {
    sssj_lsh::register_spec_builder(); // inner=lsh workers
    let spec: JoinSpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
    run_sharded(stream, &spec, mode).unwrap_or_else(|e| panic!("{spec:?}: {e}"))
}

#[test]
fn routed_str_matches_sequential_across_shards_and_indexes() {
    let stream = clustered_stream(11, 600, 8);
    for kind in ["l2", "inv"] {
        let index = IndexKind::parse(kind).unwrap();
        let mut seq = Streaming::new(SssjConfig::new(0.6, 0.1), index);
        let expected = sorted_keys(&run_stream(&mut seq, &stream));
        for shards in [1usize, 2, 4] {
            let spec = format!("sharded?theta=0.6&lambda=0.1&shards={shards}&inner=str-{kind}");
            let out = run_spec(&spec, &stream, RoutingMode::CandidateAware);
            assert_eq!(sorted_keys(&out.pairs), expected, "{spec}");
            assert!(out.report.candidate_aware, "{spec}");
        }
    }
}

#[test]
fn routed_str_l2ap_reindexing_survives_partial_m() {
    // The AP path is the delicate one: per-shard max vectors are smaller
    // than the sequential one (skipped queries never raise them), and
    // correctness relies on the query-time m update + re-index.
    let stream = clustered_stream(13, 500, 6);
    let mut seq = Streaming::new(SssjConfig::new(0.55, 0.1), IndexKind::L2ap);
    let expected = sorted_keys(&run_stream(&mut seq, &stream));
    for shards in [2usize, 4] {
        let spec = format!("sharded?theta=0.55&lambda=0.1&shards={shards}&inner=str-l2ap");
        let out = run_spec(&spec, &stream, RoutingMode::CandidateAware);
        assert_eq!(sorted_keys(&out.pairs), expected, "{spec}");
    }
}

#[test]
fn routed_mb_matches_sequential() {
    let stream = clustered_stream(17, 500, 8);
    let mut seq = MiniBatch::new(SssjConfig::new(0.6, 0.1), IndexKind::L2);
    let expected = sorted_keys(&run_stream(&mut seq, &stream));
    for shards in [1usize, 2, 4] {
        let spec = format!("sharded?theta=0.6&lambda=0.1&shards={shards}&inner=mb-l2");
        let out = run_spec(&spec, &stream, RoutingMode::CandidateAware);
        assert_eq!(sorted_keys(&out.pairs), expected, "{spec}");
    }
}

#[test]
fn routed_decay_matches_sequential() {
    let stream = clustered_stream(19, 400, 8);
    let mut seq = Streaming::with_decay(0.6, DecaySpec::new(DecayModel::sliding_window(5.0)));
    let expected = sorted_keys(&run_stream(&mut seq, &stream));
    for shards in [2usize, 4] {
        let spec = format!("sharded?theta=0.6&shards={shards}&inner=decay&model=window:5");
        let out = run_spec(&spec, &stream, RoutingMode::CandidateAware);
        assert_eq!(sorted_keys(&out.pairs), expected, "{spec}");
    }
}

#[test]
fn lsh_inner_falls_back_to_broadcast_and_matches_sequential() {
    let stream = clustered_stream(23, 400, 4);
    let mut seq = LshJoin::new(0.6, 0.1, LshParams::default());
    let expected = sorted_keys(&run_stream(&mut seq, &stream));
    for shards in [1usize, 3] {
        let spec = format!("sharded?theta=0.6&lambda=0.1&shards={shards}&inner=lsh");
        // CandidateAware was *requested*, but the LSH worker exposes no
        // dimension occupancy: the driver must broadcast.
        let out = run_spec(&spec, &stream, RoutingMode::CandidateAware);
        assert!(!out.report.candidate_aware, "{spec}: must fall back");
        assert_eq!(out.report.skipped_sends, 0, "{spec}");
        assert_eq!(sorted_keys(&out.pairs), expected, "{spec}");
    }
}

#[test]
fn delivery_balancing_does_not_regress_the_hottest_shard() {
    // PR-3 open item: two-choice owner balancing compared *insert*
    // counts, blind to the query traffic hot dimension slices attract.
    // Balancing on *delivery* counts (queries included) must not make
    // the hottest shard's share worse — on a Zipfian clustered stream it
    // should shave it.
    use sssj_parallel::Router;
    let stream = clustered_stream(31, 4000, 12);
    let hottest_share = |mut router: Router| -> f64 {
        let mut total = 0u64;
        for r in &stream {
            let (mask, _) = router.route(r);
            total += mask.count_ones() as u64;
        }
        *router.delivered().iter().max().unwrap() as f64 / total as f64
    };
    let insert_balanced = hottest_share(Router::new(4, Some(5.0)).with_insert_balancing());
    let delivery_balanced = hottest_share(Router::new(4, Some(5.0)));
    assert!(
        delivery_balanced <= insert_balanced + 1e-9,
        "hottest-shard delivery share regressed: {delivery_balanced:.4} (delivery-balanced) \
         vs {insert_balanced:.4} (insert-balanced)"
    );
}

#[test]
fn epoch_occupancy_skip_rate_tracks_the_exact_stamp_oracle() {
    // PR-3 open item closed this PR: the per-(dim, shard) f32 stamp
    // table (vocab × shards × 4 B, never shrinking) became
    // epoch-rotated, hash-bounded bit-planes. The new table may only
    // *over*-approximate occupancy (sub-epoch granularity + row-hash
    // collisions), so (a) its mask must be a superset of the exact
    // answer — no pair can be lost — and (b) the skip rate must stay
    // within a few percent of an exact-stamp oracle, or routing has
    // regressed into broadcast.
    use sssj_parallel::Router;
    let horizon = 5.0;
    let shards = 4usize;
    let stream = clustered_stream(37, 3000, 10);
    let mut router = Router::new(shards, Some(horizon));
    // The oracle replays the router's own ownership decisions against
    // full-precision per-(dim, shard) stamps.
    let mut exact: std::collections::HashMap<(u32, usize), f64> = std::collections::HashMap::new();
    let (mut epoch_skip, mut exact_skip) = (0u64, 0u64);
    for r in &stream {
        let (mask, owner) = router.route(r);
        let now = r.t.seconds();
        let mut exact_mask = 1u64 << owner;
        for &dim in r.vector.dims() {
            for w in 0..shards {
                if let Some(&t) = exact.get(&(dim, w)) {
                    if now - t <= horizon {
                        exact_mask |= 1 << w;
                    }
                }
            }
        }
        for &dim in r.vector.dims() {
            exact.insert((dim, owner), now);
        }
        assert_eq!(
            mask & exact_mask,
            exact_mask,
            "epoch mask dropped a shard the exact oracle routes to (id {})",
            r.id
        );
        epoch_skip += shards as u64 - mask.count_ones() as u64;
        exact_skip += shards as u64 - exact_mask.count_ones() as u64;
    }
    let possible = (stream.len() * shards) as f64;
    let (epoch_rate, exact_rate) = (epoch_skip as f64 / possible, exact_skip as f64 / possible);
    assert!(
        exact_rate > 0.05,
        "workload sanity: the oracle itself must skip ({exact_rate:.3})"
    );
    assert!(
        epoch_rate >= exact_rate - 0.05,
        "skip-rate regression: epoch-rotated {epoch_rate:.3} vs exact {exact_rate:.3}"
    );
}

#[test]
fn zipfian_clusters_produce_a_positive_skip_rate() {
    // The acceptance property behind `--shard-stats`: on a clustered
    // (Zipfian) dimension stream, routing must actually avoid deliveries.
    let stream = clustered_stream(29, 800, 8);
    let out = run_spec(
        "sharded?theta=0.6&lambda=0.5&shards=4&inner=str-l2",
        &stream,
        RoutingMode::CandidateAware,
    );
    assert!(
        out.report.skip_rate() > 0.0,
        "skip rate {} on a clustered stream",
        out.report.skip_rate()
    );
    // Sanity: every (record, shard) slot is either delivered or skipped.
    let delivered: u64 = out.report.per_shard.iter().map(|l| l.routed).sum();
    assert_eq!(
        delivered + out.report.skipped_sends,
        out.report.records * out.report.per_shard.len() as u64
    );
}

/// The proptest half: random streams, random θ/λ, both routing modes,
/// shard counts {1, 2, 4}, STR-L2 and STR-INV inners — always the
/// sequential pair set.
fn stream_strategy() -> impl Strategy<Value = Vec<StreamRecord>> {
    proptest::collection::vec(
        (
            0.0f64..0.6,                                               // arrival gap
            proptest::collection::vec((0u32..24, 0.05f64..1.0), 1..5), // coords
        ),
        1..100,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_output_is_set_equal_to_sequential(
        records in stream_strategy(),
        theta in 0.3f64..0.9,
        lambda in 0.05f64..1.0,
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
        kind in prop_oneof![Just(IndexKind::L2), Just(IndexKind::Inv)],
        mode in prop_oneof![Just(RoutingMode::CandidateAware), Just(RoutingMode::Broadcast)],
    ) {
        let mut seq = Streaming::new(SssjConfig::new(theta, lambda), kind);
        let expected = sorted_keys(&run_stream(&mut seq, &records));
        let spec = format!(
            "sharded?theta={theta}&lambda={lambda}&shards={shards}&inner=str-{}",
            kind.to_string().to_ascii_lowercase()
        );
        let out = run_spec(&spec, &records, mode);
        prop_assert_eq!(sorted_keys(&out.pairs), expected, "{} mode={:?}", spec, mode);
    }
}
