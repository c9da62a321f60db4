//! Cross-crate integration tests for the extension components, driven
//! through the `sssj` facade: every extension must agree with the exact
//! core join on the cases they share, and behave sanely on adversarial
//! streams.

use sssj::baseline::{brute_force_stream, brute_force_stream_model};
use sssj::lsh::{LshJoin, LshParams};
use sssj::prelude::*;
use sssj::textsim::{StreamingJaccard, TimedSet, TokenSet};

fn rec(id: u64, t: f64, entries: &[(u32, f64)]) -> StreamRecord {
    StreamRecord::new(id, Timestamp::new(t), unit_vector(entries))
}

fn random_stream(seed: u64, n: usize) -> Vec<StreamRecord> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n as u64)
        .map(|i| {
            t += rng.random_range(0.0..0.7);
            let entries: Vec<(u32, f64)> = (0..rng.random_range(1..6))
                .map(|_| (rng.random_range(0..25u32), rng.random_range(0.1..1.0)))
                .collect();
            rec(i, t, &entries)
        })
        .collect()
}

fn sorted_keys(pairs: &[SimilarPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
    keys.sort_unstable();
    keys
}

/// A fresh directory for one durable store.
fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sssj-ext-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The five exact joins — STR, MB, sharded, durable, generic-decay —
/// must produce identical output on the same stream.
#[test]
fn all_exact_joins_agree() {
    let stream = random_stream(71, 300);
    let (theta, lambda) = (0.6, 0.1);
    let config = SssjConfig::new(theta, lambda);

    let mut variants: Vec<(String, Vec<(u64, u64)>)> = Vec::new();
    for framework in Framework::ALL {
        let mut join = JoinSpec::classic(framework, IndexKind::L2, config)
            .build()
            .unwrap();
        variants.push((
            join.name(),
            sorted_keys(&run_stream(join.as_mut(), &stream)),
        ));
    }
    let mut sharded = ShardedJoin::new(config, IndexKind::L2, 3);
    variants.push((
        sharded.name(),
        sorted_keys(&run_stream(&mut sharded, &stream)),
    ));
    let dir = tmp_dir("agree");
    let spec = JoinSpec::classic(Framework::Streaming, IndexKind::L2, config);
    let mut durable = DurableJoin::open(&spec, &dir, DurableOptions::default()).unwrap();
    variants.push((
        durable.name(),
        sorted_keys(&run_stream(&mut durable, &stream)),
    ));
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    let mut generic = Streaming::with_decay(theta, DecaySpec::new(DecayModel::exponential(lambda)));
    variants.push((
        generic.name(),
        sorted_keys(&run_stream(&mut generic, &stream)),
    ));

    let oracle = sorted_keys(&brute_force_stream(&stream, theta, lambda));
    for (name, keys) in &variants {
        assert_eq!(keys, &oracle, "{name} diverged from the oracle");
    }
}

/// LSH output is always a subset of the exact output (Exact verify mode).
#[test]
fn lsh_is_a_subset_of_exact() {
    let stream = random_stream(72, 400);
    let (theta, lambda) = (0.6, 0.1);
    let exact: std::collections::HashSet<(u64, u64)> =
        sorted_keys(&brute_force_stream(&stream, theta, lambda))
            .into_iter()
            .collect();
    for bands in [8u32, 32, 64] {
        let mut join = LshJoin::new(
            theta,
            lambda,
            LshParams {
                bits: 256,
                bands,
                ..LshParams::default()
            },
        );
        let got = run_stream(&mut join, &stream);
        for key in sorted_keys(&got) {
            assert!(exact.contains(&key), "LSH invented pair {key:?}");
        }
    }
}

/// TopK with k=1 yields a subset of TopK with k=3, which is a subset of
/// the full join.
#[test]
fn topk_is_monotone_in_k() {
    let stream = random_stream(73, 300);
    let config = SssjConfig::new(0.5, 0.1);
    let runs: Vec<std::collections::HashSet<(u64, u64)>> = [1usize, 3, usize::MAX >> 1]
        .iter()
        .map(|&k| {
            let mut join = TopKJoin::new(config, IndexKind::L2, k);
            sorted_keys(&run_stream(&mut join, &stream))
                .into_iter()
                .collect()
        })
        .collect();
    assert!(runs[0].is_subset(&runs[1]), "k=1 ⊄ k=3");
    assert!(runs[1].is_subset(&runs[2]), "k=3 ⊄ full");
}

/// A sliding-window decay model with window w must agree with the plain
/// cosine join restricted to pairs within w.
#[test]
fn sliding_window_model_is_undecayed_cosine_in_window() {
    let stream = random_stream(74, 250);
    let theta = 0.6;
    let w = 5.0;
    let model = DecayModel::sliding_window(w);
    let mut join = Streaming::with_decay(theta, DecaySpec::new(model));
    let got = sorted_keys(&run_stream(&mut join, &stream));
    let expected = sorted_keys(&brute_force_stream_model(&stream, theta, model));
    assert_eq!(got, expected);
    // Cross-check semantics by hand.
    let by_id: std::collections::HashMap<u64, &StreamRecord> =
        stream.iter().map(|r| (r.id, r)).collect();
    for &(a, b) in &got {
        let (x, y) = (by_id[&a], by_id[&b]);
        assert!(x.t.delta(y.t) <= w + 1e-9);
        assert!(sssj::types::dot(&x.vector, &y.vector) >= theta - 1e-9);
    }
}

/// Adversarial stream: long silence, then a dense burst, then silence.
/// Every component must stay bounded and correct.
#[test]
fn burst_and_silence_stress() {
    let mut stream = Vec::new();
    let mut id = 0;
    for burst in 0..5 {
        let t0 = burst as f64 * 10_000.0;
        for i in 0..30 {
            stream.push(rec(id, t0 + i as f64 * 0.01, &[(i % 5, 1.0), (99, 0.3)]));
            id += 1;
        }
    }
    let (theta, lambda) = (0.7, 0.05);
    let oracle = sorted_keys(&brute_force_stream(&stream, theta, lambda));
    assert!(!oracle.is_empty());

    let config = SssjConfig::new(theta, lambda);
    let mut join = Streaming::new(config, IndexKind::L2);
    let got = sorted_keys(&run_stream(&mut join, &stream));
    assert_eq!(got, oracle);
    // After the last burst the index retains only in-horizon state.
    assert!(join.live_postings() < 200, "live={}", join.live_postings());

    let sharded = sharded_run(&stream, config, IndexKind::L2, 4);
    assert_eq!(sorted_keys(&sharded.pairs), oracle);
}

/// Jaccard and cosine agree on the pairs where they provably coincide:
/// equal-size sets with J = 1 are also cosine-identical.
#[test]
fn jaccard_and_cosine_agree_on_exact_duplicates() {
    let tokens = [
        vec![1u32, 2, 3],
        vec![1, 2, 3],
        vec![7, 8, 9],
        vec![1, 2, 3],
    ];
    let times = [0.0, 1.0, 2.0, 3.0];
    let (theta, lambda) = (0.95, 0.01);

    let mut jaccard = StreamingJaccard::new(theta, lambda);
    let mut jpairs = Vec::new();
    for (i, (toks, &t)) in tokens.iter().zip(&times).enumerate() {
        jaccard.process(
            &TimedSet::new(i as u64, t, TokenSet::new(toks.clone())),
            &mut jpairs,
        );
    }
    let mut jkeys: Vec<(u64, u64)> = jpairs
        .iter()
        .map(|&(a, b, _)| (a.min(b), a.max(b)))
        .collect();
    jkeys.sort_unstable();

    let stream: Vec<StreamRecord> = tokens
        .iter()
        .zip(&times)
        .enumerate()
        .map(|(i, (toks, &t))| {
            let entries: Vec<(u32, f64)> = toks.iter().map(|&d| (d, 1.0)).collect();
            rec(i as u64, t, &entries)
        })
        .collect();
    let mut cosine = Streaming::new(SssjConfig::new(theta, lambda), IndexKind::L2);
    let ckeys = sorted_keys(&run_stream(&mut cosine, &stream));
    assert_eq!(jkeys, ckeys);
}

/// Stop/resume interoperates with the sharded runner: checkpoint, stop,
/// reopen, then compare head ∪ tail against sharded execution of the
/// full stream.
#[test]
fn snapshot_then_shard_consistency() {
    let stream = random_stream(75, 200);
    let config = SssjConfig::new(0.6, 0.1);
    let cut = 100;
    let dir = tmp_dir("resume");
    let spec = JoinSpec::classic(Framework::Streaming, IndexKind::L2, config);

    let mut join = DurableJoin::open(&spec, &dir, DurableOptions::default()).unwrap();
    let mut head = Vec::new();
    for r in &stream[..cut] {
        join.process(r, &mut head);
    }
    join.checkpoint(&mut head).unwrap();
    drop(join);
    let mut restored = DurableJoin::open(&spec, &dir, DurableOptions::default()).unwrap();
    let tail = run_stream(&mut restored, &stream[cut..]);
    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);

    let full = sharded_run(&stream, config, IndexKind::L2, 2);
    let mut expected = sorted_keys(&full.pairs);
    let mut got = sorted_keys(&head);
    got.extend(sorted_keys(&tail));
    got.sort_unstable();
    expected.sort_unstable();
    assert_eq!(got, expected);
}
