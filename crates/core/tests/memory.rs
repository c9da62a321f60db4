//! Sanity properties of the `memory_bytes` estimates: they must move in
//! the direction real memory moves, or the `harness memory` experiment
//! (Table 2's failure modes, quantified) would be meaningless.

use sssj_core::{MiniBatch, SssjConfig, StreamJoin, Streaming};
use sssj_index::IndexKind;
use sssj_types::{vector::unit_vector, StreamRecord, Timestamp};

fn uniform_stream(n: u64, gap: f64, dims: u32) -> Vec<StreamRecord> {
    (0..n)
        .map(|i| {
            let d1 = (i as u32 * 7) % dims;
            let d2 = (i as u32 * 13 + 1) % dims;
            let entries = if d1 == d2 {
                vec![(d1, 1.0)]
            } else {
                vec![(d1.min(d2), 0.8), (d1.max(d2), 0.6)]
            };
            StreamRecord::new(i, Timestamp::new(i as f64 * gap), unit_vector(&entries))
        })
        .collect()
}

fn peak_streaming(records: &[StreamRecord], theta: f64, lambda: f64, kind: IndexKind) -> u64 {
    let mut join = Streaming::new(SssjConfig::new(theta, lambda), kind);
    let mut out = Vec::new();
    let mut peak = 0;
    for r in records {
        join.process(r, &mut out);
        out.clear();
        peak = peak.max(join.memory_bytes());
    }
    peak
}

#[test]
fn empty_join_is_small_and_nonzero_after_first_record() {
    let mut join = Streaming::new(SssjConfig::new(0.7, 0.1), IndexKind::L2);
    let empty = join.memory_bytes();
    let mut out = Vec::new();
    join.process(
        &StreamRecord::new(0, Timestamp::new(0.0), unit_vector(&[(5, 1.0)])),
        &mut out,
    );
    assert!(join.memory_bytes() > empty, "indexing must cost something");
}

#[test]
fn streaming_state_is_bounded_by_the_horizon() {
    // On a uniform stream, state must plateau: bytes after 2n records are
    // not materially larger than after n (everything older is pruned).
    let records = uniform_stream(2_000, 1.0, 50);
    let mut join = Streaming::new(SssjConfig::new(0.5, 0.1), IndexKind::L2); // τ≈6.9
    let mut out = Vec::new();
    let mut at_half = 0;
    for (i, r) in records.iter().enumerate() {
        join.process(r, &mut out);
        out.clear();
        if i == records.len() / 2 {
            at_half = join.memory_bytes();
        }
    }
    let at_end = join.memory_bytes();
    assert!(
        at_end <= at_half * 2,
        "state must not keep growing: {at_half} → {at_end}"
    );
}

#[test]
fn streaming_memory_is_flat_over_a_long_short_horizon_stream() {
    // 40 000 records at one per time unit with τ ≈ 6.9: a handful of
    // rows live at a time. Once every structure has reached its size,
    // the estimate must not move again — expired rows and their
    // residuals are reclaimed in place, never accumulated.
    let records = uniform_stream(40_000, 1.0, 50);
    for kind in [IndexKind::Inv, IndexKind::L2, IndexKind::L2ap] {
        let mut join = Streaming::new(SssjConfig::new(0.5, 0.1), kind);
        let mut out = Vec::new();
        let mut settled = 0;
        for (i, r) in records.iter().enumerate() {
            join.process(r, &mut out);
            out.clear();
            if i == 3_999 {
                settled = join.memory_bytes();
            } else if i > 3_999 {
                assert!(
                    join.memory_bytes() <= settled,
                    "{kind}: {} B at record {i}, {settled} B at record 3 999",
                    join.memory_bytes()
                );
            }
        }
    }
}

#[test]
fn ap_residual_index_is_flat_over_a_long_steady_stream() {
    // Four coordinates per record over 29 dimensions, so the AP bound
    // leaves one or two of them in each row's residual, and every row
    // enters the re-indexing inverted index. Once `m` has settled nothing
    // re-indexes, so the expired ordinals must be dropped on insert or
    // that index grows with the stream instead of the horizon.
    let records: Vec<StreamRecord> = (0..40_000u64)
        .map(|i| {
            let base = (i * 7) % 29;
            let entries = [
                (base as u32, 0.7),
                ((base as u32 + 3) % 29, 0.5),
                ((base as u32 + 11) % 29, 0.4),
                ((base as u32 + 17) % 29, 0.3),
            ];
            StreamRecord::new(i, Timestamp::new(i as f64 * 0.25), unit_vector(&entries))
        })
        .collect();
    for kind in [IndexKind::Ap, IndexKind::L2ap] {
        let mut join = Streaming::new(SssjConfig::new(0.5, 0.1), kind);
        let mut out = Vec::new();
        let mut settled = 0;
        for (i, r) in records.iter().enumerate() {
            join.process(r, &mut out);
            out.clear();
            if i == 3_999 {
                settled = join.memory_bytes();
            } else if i > 3_999 {
                assert!(
                    join.memory_bytes() <= settled,
                    "{kind}: {} B at record {i}, {settled} B at record 3 999",
                    join.memory_bytes()
                );
            }
        }
        assert!(
            join.stats().residual_coords > 0,
            "{kind}: rows keep residuals"
        );
    }
}

#[test]
fn shorter_horizon_uses_less_memory() {
    let records = uniform_stream(1_500, 1.0, 50);
    let small = peak_streaming(&records, 0.5, 0.5, IndexKind::L2);
    let large = peak_streaming(&records, 0.5, 0.005, IndexKind::L2);
    assert!(
        small < large,
        "λ=0.5 ({small} B) must be leaner than λ=0.005 ({large} B)"
    );
}

#[test]
fn l2ap_carries_auxiliary_state_l2_avoids() {
    // The paper's L2 design argument: the AP-family bounds drag streaming
    // liabilities along — the whole-stream max vector m, the decayed max
    // m̂λ, and re-indexing churn when m grows — none of which L2 needs.
    // (A raw byte comparison is not meaningful here: L2AP's b1 bound also
    // *defers* indexing, so its posting lists can be smaller than L2's;
    // what the paper charges L2AP for is the auxiliary machinery.)
    let records = uniform_stream(1_000, 1.0, 50);
    let run = |kind| {
        let mut join = Streaming::new(SssjConfig::new(0.5, 0.01), kind);
        let mut out = Vec::new();
        for r in &records {
            join.process(r, &mut out);
            out.clear();
        }
        join
    };
    let l2 = run(IndexKind::L2);
    let l2ap = run(IndexKind::L2ap);
    assert!(
        l2.max_entries().is_empty(),
        "L2 must not maintain the AP max vector"
    );
    assert!(
        !l2ap.max_entries().is_empty(),
        "L2AP must maintain the AP max vector"
    );
    assert_eq!(l2.stats().reindexed_postings, 0);
    // Re-indexing churn needs m to grow past an indexed residual; a short
    // crafted stream shows L2AP pays it while L2 never does.
    // Vector 0 keeps (1, 0.6) in its residual (b1 = 0.36 < θ at insert);
    // vector 1 raises m[1] to 1.0, making the residual's replayed b1 =
    // 0.6 ≥ θ — the prefix-filter invariant breaks and 0 is re-indexed.
    let churn = vec![
        StreamRecord::new(0, Timestamp::new(0.0), unit_vector(&[(1, 3.0), (2, 4.0)])),
        StreamRecord::new(1, Timestamp::new(1.0), unit_vector(&[(1, 1.0)])),
    ];
    let mut join = Streaming::new(SssjConfig::new(0.5, 0.001), IndexKind::L2ap);
    let mut out = Vec::new();
    for r in &churn {
        join.process(r, &mut out);
    }
    assert!(
        join.stats().reindexed_vectors > 0,
        "L2AP must re-index when m grows"
    );
    // And the memory estimate must at least see L2AP's extra structures:
    // equal-posting-load state, m, m̂λ and the inverted index included.
    assert!(l2ap.memory_bytes() > 0 && l2.memory_bytes() > 0);
}

#[test]
fn minibatch_state_is_bounded_too() {
    let records = uniform_stream(2_000, 1.0, 50);
    let mut join = MiniBatch::new(SssjConfig::new(0.5, 0.1), IndexKind::L2);
    let mut out = Vec::new();
    let mut peak_early = 0u64;
    for (i, r) in records.iter().enumerate() {
        join.process(r, &mut out);
        out.clear();
        if i < records.len() / 2 {
            peak_early = peak_early.max(join.memory_bytes());
        } else {
            assert!(
                join.memory_bytes() <= peak_early * 2,
                "MB state exceeded twice its first-half peak at record {i}"
            );
        }
    }
}
