//! Golden work counts: the engines' cost-model counters and output pair
//! sets, pinned to literals over fixed-seed streams.
//!
//! Every optimisation of the candidate-generation hot path must leave
//! these numbers bit-identical: the traversal (`entries_traversed`), the
//! admission rule (`candidates`), the verification filter (`full_sims`),
//! the index shape (`postings_added`) and the output itself (pair count
//! plus a digest over the sorted pair ids). A change that moves any of
//! them is a behaviour change, not a speed-up.
//!
//! The literals hold on every kernel lane (run the suite once more with
//! `SSSJ_KERNELS=avx2` and with `SSSJ_KERNELS=scalar`). Similarity *bits* are deliberately left out of
//! the digest: the residual dot product sums in a lane-specific order, so
//! the last bit of a reported score may differ between lanes. When a
//! change is *meant* to move a count — a tighter bound, say — the failure
//! message prints the new row.

use sssj_core::{run_stream, JoinSpec};
use sssj_data::{generate, preset, Preset};
use sssj_types::{SimilarPair, StreamRecord};

/// `(entries_traversed, candidates, full_sims, postings_added)`.
type Counts = (u64, u64, u64, u64);

/// `(pairs_output, pair digest)`: every engine is exact, so one stream
/// has one pair set whatever the spec.
type Pairs = (u64, u64);

/// FNV-1a over the sorted `(left, right)` pair ids.
fn pair_digest(pairs: &[SimilarPair]) -> u64 {
    let mut keys: Vec<(u64, u64)> = pairs.iter().map(SimilarPair::key).collect();
    keys.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (l, r) in keys {
        for word in [l, r] {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        }
    }
    h
}

fn measure(spec: &str, records: &[StreamRecord]) -> (Counts, Pairs) {
    let spec: JoinSpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
    let mut join = spec.build().expect("spec builds");
    let pairs = run_stream(join.as_mut(), records);
    let s = join.stats();
    let counts = (
        s.entries_traversed,
        s.candidates,
        s.full_sims,
        s.postings_added,
    );
    (counts, (s.pairs_output, pair_digest(&pairs)))
}

fn check(records: &[StreamRecord], pairs: Pairs, cases: &[(&str, Counts)]) {
    let mut wrong = Vec::new();
    for &(spec, want) in cases {
        let (got, (n, digest)) = measure(spec, records);
        if (got, (n, digest)) != (want, pairs) {
            wrong.push(format!(
                "{spec}\n  want {want:?}, pairs {pairs:?}\n  got  {got:?}, pairs ({n}, {digest:#018x})"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "golden counts moved:\n{}",
        wrong.join("\n")
    );
}

/// The dense stress stream (`engine-dense`'s preset): about 2 000 index
/// entries traversed per record, so almost every chunk is a full batch.
#[test]
fn golden_counts_dense() {
    let records = generate(&preset(Preset::Dense, 2_000).with_seed(7));
    #[rustfmt::skip]
    check(&records, (10171, 0x4290_3ea1_f5ae_de90), &[
        // spec                              entries    cands     sims  postings
        ("str-l2?theta=0.5&lambda=0.001",   (3928460,  611180,   77248, 69558)),
        ("str-inv?theta=0.5&lambda=0.001",  (6273077, 1195241, 1195241, 86026)),
        ("str-l2ap?theta=0.5&lambda=0.001", (3906631,  591407,   66341, 69445)),
        ("mb-l2?theta=0.5&lambda=0.001",    (3926178,  595208,  185683, 69535)),
        ("decay?theta=0.5&model=exp:0.001", (3928460,  605390,   76937, 69558)),
    ]);
    // Each decay model has its own pair set, so each gets its own block.
    #[rustfmt::skip]
    check(&records, (9633, 0x88a1_59ca_3142_1773), &[
        ("decay?theta=0.5&model=linear:1000",  (3925163,  592337,   72368, 69558)),
    ]);
    #[rustfmt::skip]
    check(&records, (1882, 0x9d8b_ca84_f9fb_8038), &[
        ("decay?theta=0.5&model=poly:1.5:200", (1599195,  210464,   16783, 69558)),
    ]);
}

/// The sparse Tweets stream: short lists, mostly sub-8-entry chunks.
#[test]
fn golden_counts_tweets() {
    let records = generate(&preset(Preset::Tweets, 20_000).with_seed(7));
    #[rustfmt::skip]
    check(&records, (711, 0x9693_9122_da2d_5784), &[
        // spec                              entries    cands     sims  postings
        ("str-l2?theta=0.5&lambda=0.07",    (  55683,   18020,    2088, 125564)),
        ("str-inv?theta=0.5&lambda=0.07",   (  95236,   70814,   70814, 150763)),
        ("str-l2ap?theta=0.5&lambda=0.07",  ( 155248,    5445,    1110, 124036)),
        ("mb-l2?theta=0.5&lambda=0.07",     (  81928,   51132,   10127, 125028)),
        ("decay?theta=0.5&model=exp:0.07",  (  55683,    9542,    1601, 125564)),
    ]);
    #[rustfmt::skip]
    check(&records, (818, 0x28a5_36df_8eb9_ec29), &[
        ("decay?theta=0.5&model=linear:20",    (  56280,   10695,    1847, 125564)),
    ]);
    #[rustfmt::skip]
    check(&records, (778, 0x928d_2585_5b4b_c98c), &[
        ("decay?theta=0.5&model=poly:1.5:20",  (  65895,   11391,    1805, 125564)),
    ]);
}
