//! The paper's count-based claims (§7), checked at the scale `harness`
//! reproduces them at.
//!
//! Each test names its figure. Where this implementation departs from
//! the paper on purpose, the test asserts the departure as a named
//! deviation with its cause, not a loosened bound.

use sssj_bench::{default_n, LAMBDAS, THETAS};
use sssj_core::{run_stream, Framework, JoinSpec, SssjConfig};
use sssj_data::{generate, preset, Preset};
use sssj_index::IndexKind;

/// The scale of `harness fig6 --scale 0.2`.
const FIG6_SCALE: f64 = 0.2;

/// Figure 6's cells: `(λ, θ, INV, L2AP, L2)` entries traversed by STR
/// on Tweets, over the harness grid.
fn fig6_rows() -> Vec<(f64, f64, u64, u64, u64)> {
    let records = generate(&preset(
        Preset::Tweets,
        default_n(Preset::Tweets, FIG6_SCALE),
    ));
    let entries = |kind, theta, lambda| {
        let spec = JoinSpec::classic(Framework::Streaming, kind, SssjConfig::new(theta, lambda));
        let mut join = spec.build().expect("classic specs build");
        run_stream(join.as_mut(), &records);
        join.stats().entries_traversed
    };
    let mut rows = Vec::new();
    for &lambda in &LAMBDAS {
        for &theta in &THETAS {
            rows.push((
                lambda,
                theta,
                entries(IndexKind::Inv, theta, lambda),
                entries(IndexKind::L2ap, theta, lambda),
                entries(IndexKind::L2, theta, lambda),
            ));
        }
    }
    rows
}

/// Figure 6: the L2 index traverses no more posting entries than INV in
/// any (λ, θ) cell: it indexes a subset of INV's postings under the same
/// time filtering.
///
/// Named deviation: the paper's STR-L2AP traverses more than INV at the
/// shortest horizon (λ = 0.1), because re-indexing (§5.3) appends
/// postings out of time order and its lists must then be scanned whole.
/// Here a re-indexed posting goes in at its arrival ordinal, so lists
/// stay time-ordered and expired postings are cut, not visited: L2AP
/// traverses no more than INV in every cell.
#[test]
fn fig6_traversal_order() {
    let rows = fig6_rows();
    assert_eq!(rows.len(), 24);
    for &(lambda, theta, inv, l2ap, l2) in &rows {
        assert!(l2 <= inv, "λ={lambda} θ={theta}: L2 {l2} > INV {inv}");
        assert!(
            l2ap <= inv,
            "λ={lambda} θ={theta}: L2AP {l2ap} > INV {inv} (time-ordered lists cut expired postings)"
        );
    }
}
