//! Cross-crate integration: presets → all algorithms → oracle, plus
//! work-counter sanity across index variants.

use sssj::baseline::brute_force_stream;
use sssj::data::{generate, preset, Preset};
use sssj::prelude::*;

fn keys(pairs: &[SimilarPair], theta: f64) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = pairs
        .iter()
        .filter(|p| (p.similarity - theta).abs() > 1e-9)
        .map(|p| p.key())
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn all_presets_all_algorithms_match_oracle() {
    for p in Preset::ALL {
        let n = if p == Preset::WebSpam { 120 } else { 400 };
        let records = generate(&preset(p, n));
        let (theta, lambda) = (0.65, 0.01);
        let expected = keys(&brute_force_stream(&records, theta, lambda), theta);
        for framework in Framework::ALL {
            for kind in IndexKind::ALL {
                let mut join = JoinSpec::classic(framework, kind, SssjConfig::new(theta, lambda))
                    .build()
                    .unwrap();
                let got = keys(&run_stream(join.as_mut(), &records), theta);
                assert_eq!(got, expected, "{framework}-{kind} on {p}");
            }
        }
    }
}

#[test]
fn str_l2_traverses_no_more_than_str_inv() {
    // The L2 index stores a subset of INV's postings, so with identical
    // time filtering it can never traverse more entries.
    let records = generate(&preset(Preset::Rcv1, 800));
    for (theta, lambda) in [(0.5, 0.001), (0.7, 0.01), (0.9, 0.1)] {
        let config = SssjConfig::new(theta, lambda);
        let run = |kind: IndexKind| {
            let mut join = Streaming::new(config, kind);
            run_stream(&mut join, &records);
            join.stats()
        };
        let inv = run(IndexKind::Inv);
        let l2 = run(IndexKind::L2);
        assert!(
            l2.entries_traversed <= inv.entries_traversed,
            "θ={theta} λ={lambda}: L2 {} > INV {}",
            l2.entries_traversed,
            inv.entries_traversed
        );
        assert!(l2.postings_added <= inv.postings_added);
        assert_eq!(l2.pairs_output, inv.pairs_output);
    }
}

#[test]
fn mb_and_str_report_identical_scores() {
    let records = generate(&preset(Preset::Blogs, 500));
    let config = SssjConfig::new(0.6, 0.005);
    let collect = |mut join: Box<dyn StreamJoin>| {
        let mut out = run_stream(join.as_mut(), &records);
        out.sort_by_key(|a| a.key());
        out
    };
    let mb = collect(
        JoinSpec::classic(Framework::MiniBatch, IndexKind::L2, config)
            .build()
            .unwrap(),
    );
    let st = collect(
        JoinSpec::classic(Framework::Streaming, IndexKind::L2, config)
            .build()
            .unwrap(),
    );
    assert_eq!(mb.len(), st.len());
    for (a, b) in mb.iter().zip(&st) {
        assert_eq!(a.key(), b.key());
        assert!((a.similarity - b.similarity).abs() < 1e-9);
    }
}

#[test]
fn horizon_bounds_streaming_state() {
    // With a short horizon, the live index must stay far smaller than the
    // total postings added — the whole point of time filtering.
    let records = generate(&preset(Preset::Tweets, 3000));
    let config = SssjConfig::new(0.7, 0.05);
    let mut join = Streaming::new(config, IndexKind::L2);
    run_stream(&mut join, &records);
    let stats = join.stats();
    // Pruning is lazy (only lists the query touches are truncated), so
    // the live index trails the ideal window size; it must still stay
    // well below the total volume ever indexed.
    assert!(
        stats.peak_postings < stats.postings_added * 3 / 4,
        "peak {} vs added {}",
        stats.peak_postings,
        stats.postings_added
    );
    assert!(stats.entries_pruned > 0);
}

#[test]
fn serialisation_roundtrip_preserves_join_output() {
    use sssj::data::{binary, text};
    let records = generate(&preset(Preset::Rcv1, 300));
    let config = SssjConfig::new(0.7, 0.01);
    let reference = {
        let mut join = Streaming::new(config, IndexKind::L2);
        keys(&run_stream(&mut join, &records), config.theta)
    };

    let mut buf = Vec::new();
    binary::write_binary(&records, &mut buf).unwrap();
    let via_binary = binary::read_binary(&buf[..]).unwrap();
    let mut buf = Vec::new();
    text::write_text(&records, &mut buf).unwrap();
    let via_text = text::read_text(&buf[..]).unwrap();

    for (label, stream) in [("binary", via_binary), ("text", via_text)] {
        let mut join = Streaming::new(config, IndexKind::L2);
        let got = keys(&run_stream(&mut join, &stream), config.theta);
        assert_eq!(got, reference, "{label} roundtrip changed the join");
    }
}
