//! Stop/resume correctness through the durable store: a join
//! checkpointed mid-stream, dropped and reopened from the same directory
//! must report exactly what the uninterrupted run reports from that point
//! on — for every index variant and across repeated stop/resume cycles.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use sssj_core::{run_stream, Framework, JoinSpec, SssjConfig, StreamJoin, Streaming};
use sssj_index::IndexKind;
use sssj_store::{DurableJoin, DurableOptions};
use sssj_types::{SimilarPair, SparseVectorBuilder, StreamRecord, Timestamp};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sssj-resume-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sorted_keys(pairs: &[SimilarPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
    keys.sort_unstable();
    keys
}

fn random_stream(seed: u64, n: usize, dims: u32) -> Vec<StreamRecord> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n as u64)
        .map(|i| {
            t += rng.random_range(0.0..0.6);
            let mut b = SparseVectorBuilder::new();
            for _ in 0..rng.random_range(1..6) {
                b.push(rng.random_range(0..dims), rng.random_range(0.1..1.0));
            }
            StreamRecord::new(i, Timestamp::new(t), b.build_normalized().unwrap())
        })
        .collect()
}

/// Full-run output from `cut` onwards, for the reference join.
fn reference_tail(
    stream: &[StreamRecord],
    config: SssjConfig,
    kind: IndexKind,
    cut: usize,
) -> Vec<(u64, u64)> {
    let mut join = Streaming::new(config, kind);
    let mut pre = Vec::new();
    for r in &stream[..cut] {
        join.process(r, &mut pre);
    }
    let mut tail = Vec::new();
    for r in &stream[cut..] {
        join.process(r, &mut tail);
    }
    join.finish(&mut tail);
    sorted_keys(&tail)
}

/// Opens the durable STR join rooted at `dir`, resuming it when the
/// directory already holds state.
fn open(config: SssjConfig, kind: IndexKind, dir: &Path) -> DurableJoin {
    let spec = JoinSpec::classic(Framework::Streaming, kind, config);
    DurableJoin::open(&spec, dir, DurableOptions::default()).unwrap()
}

/// Feeds `records`, then checkpoints and drops the join (the "stop").
fn run_and_stop(mut join: DurableJoin, records: &[StreamRecord]) {
    let mut out = Vec::new();
    for r in records {
        join.process(r, &mut out);
    }
    join.checkpoint(&mut out).unwrap();
}

#[test]
fn restored_join_continues_identically_for_all_kinds() {
    let stream = random_stream(21, 240, 15);
    let config = SssjConfig::new(0.6, 0.1);
    let cut = 120;
    for kind in IndexKind::ALL {
        let dir = tmp_dir("kinds");
        run_and_stop(open(config, kind, &dir), &stream[..cut]);
        let mut restored = open(config, kind, &dir);
        assert_eq!(
            restored.resume_point().map(|(n, _)| n),
            Some(cut as u64),
            "{kind}"
        );
        let tail = run_stream(&mut restored, &stream[cut..]);
        assert_eq!(
            sorted_keys(&tail),
            reference_tail(&stream, config, kind, cut),
            "{kind}"
        );
        drop(restored);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn snapshot_of_a_restored_join_still_works() {
    let stream = random_stream(33, 300, 12);
    let config = SssjConfig::new(0.55, 0.15);
    let kind = IndexKind::L2;
    let (c1, c2) = (100, 200);
    let dir = tmp_dir("twice");

    run_and_stop(open(config, kind, &dir), &stream[..c1]);
    run_and_stop(open(config, kind, &dir), &stream[c1..c2]);

    let mut third = open(config, kind, &dir);
    let tail = run_stream(&mut third, &stream[c2..]);
    assert_eq!(
        sorted_keys(&tail),
        reference_tail(&stream, config, kind, c2)
    );
    drop(third);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pre_snapshot_output_matches_uninterrupted_prefix() {
    let stream = random_stream(44, 200, 10);
    let config = SssjConfig::new(0.6, 0.1);
    let dir = tmp_dir("prefix");
    let mut durable = open(config, IndexKind::L2, &dir);
    let mut plain = Streaming::new(config, IndexKind::L2);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for r in &stream {
        durable.process(r, &mut a);
        plain.process(r, &mut b);
    }
    assert_eq!(sorted_keys(&a), sorted_keys(&b));
    assert_eq!(durable.stats().pairs_output, plain.stats().pairs_output);
    drop(durable);
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn roundtrip_equivalence_random_cut(
        seed in 0u64..500,
        cut_frac in 0.1f64..0.9,
        theta in 0.4f64..0.9,
        lambda in 0.02f64..0.5,
    ) {
        let stream = random_stream(seed, 120, 10);
        let cut = ((stream.len() as f64) * cut_frac) as usize;
        let config = SssjConfig::new(theta, lambda);
        let kind = IndexKind::L2;
        let dir = tmp_dir("cut");

        run_and_stop(open(config, kind, &dir), &stream[..cut]);
        let mut restored = open(config, kind, &dir);
        let tail = run_stream(&mut restored, &stream[cut..]);
        drop(restored);
        let _ = fs::remove_dir_all(&dir);
        prop_assert_eq!(sorted_keys(&tail), reference_tail(&stream, config, kind, cut));
    }
}

/// A `decay` store whose checkpoint carries an empty aux blob — what
/// the engine wrote before it ran on `Streaming` — still reopens, and
/// continues exactly like the uninterrupted join.
#[test]
fn decay_checkpoint_with_empty_aux_reopens() {
    let stream = random_stream(55, 240, 12);
    let cut = 120;
    let spec: JoinSpec = "decay?theta=0.6&model=linear:8".parse().unwrap();
    let dir = tmp_dir("decay-aux");
    let durable = DurableJoin::open(&spec, &dir, DurableOptions::default()).unwrap();
    run_and_stop(durable, &stream[..cut]);
    let mut ckpt = sssj_store::checkpoint::load_latest(&dir)
        .unwrap()
        .expect("a stopped store holds a checkpoint");
    ckpt.aux.clear();
    sssj_store::checkpoint::publish(&dir, &ckpt, false).unwrap();

    let mut restored = DurableJoin::open(&spec, &dir, DurableOptions::default())
        .expect("an empty aux blob reads as no maxima");
    assert_eq!(restored.resume_point().map(|(n, _)| n), Some(cut as u64));
    let tail = run_stream(&mut restored, &stream[cut..]);
    drop(restored);
    let _ = fs::remove_dir_all(&dir);

    let mut plain = spec.build().unwrap();
    run_stream(plain.as_mut(), &stream[..cut]);
    let reference = run_stream(plain.as_mut(), &stream[cut..]);
    assert!(!reference.is_empty());
    assert_eq!(sorted_keys(&tail), sorted_keys(&reference));
}

/// A vector id that arrives twice pairs once per arrival under one key.
/// A checkpoint taken after both pairs were delivered must suppress both
/// on replay: the reopened store owes nothing.
#[test]
fn repeated_id_pairs_delivered_before_the_checkpoint_stay_delivered() {
    let unit = |dims: &[u32]| {
        let mut b = SparseVectorBuilder::new();
        for &d in dims {
            b.push(d, 1.0);
        }
        b.build_normalized().unwrap()
    };
    let stream = [
        StreamRecord::new(0, Timestamp::new(0.0), unit(&[1, 2])),
        StreamRecord::new(0, Timestamp::new(1.0), unit(&[3, 4])),
        StreamRecord::new(7, Timestamp::new(2.0), unit(&[1, 2, 3, 4])),
    ];
    let config = SssjConfig::new(0.3, 0.01);
    let dir = tmp_dir("repeated-id");
    let mut durable = open(config, IndexKind::L2, &dir);
    let mut out = Vec::new();
    for r in &stream {
        durable.process(r, &mut out);
    }
    assert_eq!(sorted_keys(&out), vec![(0, 7), (0, 7)]);
    durable.checkpoint(&mut out).unwrap();
    drop(durable);

    let mut reopened = open(config, IndexKind::L2, &dir);
    assert!(reopened.take_recovered_pairs().is_empty());
    drop(reopened);
    let _ = fs::remove_dir_all(&dir);
}

/// The live checkpoint file of a stopped store.
fn live_checkpoint(dir: &Path) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".ckpt"))
        })
        .expect("a stopped store holds one checkpoint")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary corruption of the checkpoint must yield a clean error or
    /// a valid join on reopen — never a panic, never a malformed
    /// structure.
    #[test]
    fn corrupted_snapshots_never_panic(
        seed in 0u64..100,
        flips in proptest::collection::vec((0usize..4096, 0u8..=255), 1..8),
        cut in proptest::option::of(0usize..4096),
    ) {
        let stream = random_stream(seed, 40, 8);
        let config = SssjConfig::new(0.6, 0.1);
        let dir = tmp_dir("corrupt");
        run_and_stop(open(config, IndexKind::L2, &dir), &stream);

        let path = live_checkpoint(&dir);
        let mut bytes = fs::read(&path).unwrap();
        for &(pos, val) in &flips {
            let len = bytes.len().max(1);
            if let Some(b) = bytes.get_mut(pos % len) {
                *b ^= val;
            }
        }
        if let Some(c) = cut {
            bytes.truncate(c % (bytes.len() + 1));
        }
        fs::write(&path, &bytes).unwrap();

        // Either outcome is fine; panicking or looping is not.
        let spec = JoinSpec::classic(Framework::Streaming, IndexKind::L2, config);
        if let Ok(mut restored) = DurableJoin::open(&spec, &dir, DurableOptions::default()) {
            // A structurally-valid mutation must still yield a join
            // that processes records without panicking.
            let mut out = Vec::new();
            let last_t = stream.last().map_or(0.0, |r| r.t.seconds());
            restored.process(
                &StreamRecord::new(
                    9999,
                    Timestamp::new(last_t + 1.0),
                    sssj_types::vector::unit_vector(&[(1, 1.0)]),
                ),
                &mut out,
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
