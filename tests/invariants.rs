//! Cross-algorithm invariants on the work counters and on extension
//! features (dimension ordering).

use sssj::data::{generate, preset, DimOrdering, Preset};
use sssj::prelude::*;

fn run(
    framework: Framework,
    kind: IndexKind,
    config: SssjConfig,
    records: &[StreamRecord],
) -> (Vec<(u64, u64)>, sssj::metrics::JoinStats) {
    let mut join = JoinSpec::classic(framework, kind, config).build().unwrap();
    let mut keys: Vec<_> = run_stream(join.as_mut(), records)
        .iter()
        .map(|p| p.key())
        .collect();
    keys.sort_unstable();
    (keys, join.stats())
}

#[test]
fn pair_counts_agree_across_all_algorithms() {
    let records = generate(&preset(Preset::Blogs, 600));
    let config = SssjConfig::new(0.6, 0.01);
    let (reference, _) = run(Framework::Streaming, IndexKind::L2, config, &records);
    assert!(!reference.is_empty(), "workload must produce pairs");
    for framework in Framework::ALL {
        for kind in IndexKind::ALL {
            let (keys, stats) = run(framework, kind, config, &records);
            assert_eq!(keys, reference, "{framework}-{kind}");
            assert_eq!(
                stats.pairs_output as usize,
                keys.len(),
                "{framework}-{kind}"
            );
        }
    }
}

#[test]
fn candidate_funnel_is_monotone() {
    // candidates ≥ full_sims ≥ pairs for every algorithm: the funnel
    // narrows at each phase.
    let records = generate(&preset(Preset::Rcv1, 600));
    let config = SssjConfig::new(0.7, 0.005);
    for framework in Framework::ALL {
        for kind in IndexKind::ALL {
            let (_, s) = run(framework, kind, config, &records);
            assert!(
                s.candidates >= s.full_sims,
                "{framework}-{kind}: candidates {} < full_sims {}",
                s.candidates,
                s.full_sims
            );
            assert!(
                s.full_sims >= s.pairs_output,
                "{framework}-{kind}: full_sims {} < pairs {}",
                s.full_sims,
                s.pairs_output
            );
        }
    }
}

#[test]
fn l2_prunes_the_candidate_funnel_vs_inv() {
    let records = generate(&preset(Preset::Rcv1, 600));
    let config = SssjConfig::new(0.8, 0.005);
    let (_, inv) = run(Framework::Streaming, IndexKind::Inv, config, &records);
    let (_, l2) = run(Framework::Streaming, IndexKind::L2, config, &records);
    assert!(l2.candidates < inv.candidates);
    assert!(l2.full_sims <= inv.full_sims);
    assert!(l2.postings_added < inv.postings_added);
}

#[test]
fn dimension_reordering_preserves_output() {
    let records = generate(&preset(Preset::Tweets, 800));
    let config = SssjConfig::new(0.6, 0.01);
    let (reference, base_stats) = run(Framework::Streaming, IndexKind::L2, config, &records);
    for (label, ordering) in [
        ("freq-desc", DimOrdering::frequency_descending(&records)),
        ("freq-asc", DimOrdering::frequency_ascending(&records)),
        ("shuffled", DimOrdering::shuffled(&records, 3)),
    ] {
        let mapped = ordering.apply(&records);
        let (keys, stats) = run(Framework::Streaming, IndexKind::L2, config, &mapped);
        assert_eq!(keys, reference, "{label} changed the join output");
        // Same pairs, possibly different work.
        assert_eq!(stats.pairs_output, base_stats.pairs_output, "{label}");
    }
}

#[test]
fn frequency_descending_indexes_fewer_frequent_postings_than_ascending() {
    // The all-pairs ordering heuristic: frequent dimensions in the
    // prefix (un-indexed) lead to fewer entries traversed than the
    // adversarial order.
    let records = generate(&preset(Preset::Rcv1, 800));
    let config = SssjConfig::new(0.7, 0.01);
    let desc = DimOrdering::frequency_descending(&records).apply(&records);
    let asc = DimOrdering::frequency_ascending(&records).apply(&records);
    let (_, s_desc) = run(Framework::Streaming, IndexKind::L2, config, &desc);
    let (_, s_asc) = run(Framework::Streaming, IndexKind::L2, config, &asc);
    assert!(
        s_desc.entries_traversed < s_asc.entries_traversed,
        "desc {} !< asc {}",
        s_desc.entries_traversed,
        s_asc.entries_traversed
    );
}
