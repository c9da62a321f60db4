//! The horizon boundary, to the last bit: a vector parked at `now − τ`
//! and one ulp either side must pair (or not) exactly as the brute-force
//! oracle says.
//!
//! The oracle forgets a vector when `now − t > τ`, and so does an STR
//! engine's per-vector metadata. A time-ordered posting list instead
//! drops its prefix below a cutoff time. With the naive cutoff
//! `t < now − τ` the two tests round differently: in about one probe in
//! thirty below, a posting died while its metadata (and the oracle's
//! copy) still lived, and the engine lost a pair the oracle reported.

use sssj_baseline::{brute_force_stream, brute_force_stream_model};
use sssj_core::{run_stream, JoinSpec, SssjConfig};
use sssj_types::{vector::unit_vector, DecayModel, StreamRecord, Timestamp};

/// The sorted pair keys of `records` under `spec`.
fn keys(spec: &str, records: &[StreamRecord]) -> Vec<(u64, u64)> {
    let spec: JoinSpec = spec.parse().expect("spec parses");
    let mut join = spec.build().expect("spec builds");
    let mut keys: Vec<_> = run_stream(join.as_mut(), records)
        .iter()
        .map(|p| p.key())
        .collect();
    keys.sort_unstable();
    keys
}

/// xorshift64 mapped to `[0, 1)`: a fixed sweep, reproducible anywhere.
fn unit_sweep(mut state: u64) -> impl FnMut() -> f64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Two identical one-coordinate vectors (dot product exactly 1.0), the
/// first at `t`, the second at `now`.
fn probe(t: f64, now: f64) -> [StreamRecord; 2] {
    let v = unit_vector(&[(1, 1.0)]);
    [
        StreamRecord::new(0, Timestamp::new(t), v.clone()),
        StreamRecord::new(1, Timestamp::new(now), v),
    ]
}

#[test]
fn a_vector_at_the_horizon_pairs_exactly_as_the_oracle_says() {
    let mut unit = unit_sweep(0x2545_f491_4f6c_dd1d);
    let mut oracle_pairs = 0;
    let mut naive_cut_disagrees = 0;
    let mut mismatches = Vec::new();
    for _ in 0..400 {
        let theta = 0.05 + 0.9 * unit();
        let lambda = 0.001 + 0.5 * unit();
        let tau = SssjConfig::new(theta, lambda).tau();
        // `now` within a few horizons of the stream start, where `t` and
        // `now` differ in magnitude and `now − t` rounds.
        let now = tau * (1.0 + 2.0 * unit());
        let edge = now - tau;
        for t in [edge.next_down(), edge, edge.next_up()] {
            let records = probe(t, now);
            let want: Vec<_> = brute_force_stream(&records, theta, lambda)
                .iter()
                .map(|p| p.key())
                .collect();
            oracle_pairs += want.len();
            if !want.is_empty() && t < now - tau {
                naive_cut_disagrees += 1;
            }
            for engine in ["str-l2", "str-inv", "str-l2ap"] {
                let spec = format!("{engine}?theta={theta}&lambda={lambda}");
                let got = keys(&spec, &records);
                if got != want {
                    mismatches.push(format!(
                        "{spec} now={now} t={t}: got {got:?}, oracle {want:?}"
                    ));
                }
            }
            let spec = format!("decay?theta={theta}&model=exp:{lambda}");
            let got = keys(&spec, &records);
            if got != want {
                mismatches.push(format!(
                    "{spec} now={now} t={t}: got {got:?}, oracle {want:?}"
                ));
            }
        }
    }
    // Not vacuous: the sweep reaches pairs right at the edge, including
    // ones the naive cutoff `t < now − τ` would have expired.
    assert!(oracle_pairs > 100, "only {oracle_pairs} boundary pairs");
    assert!(
        naive_cut_disagrees > 10,
        "only {naive_cut_disagrees} split probes"
    );
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The same probe for the `decay` engine under the other decay models,
/// against the model oracle. Its pruning bound comes from a table of the
/// model's factors, and each model meets the horizon differently: the
/// window's factor is still 1 there, the linear and polynomial ones are
/// about `θ`.
#[test]
fn every_decay_model_pairs_at_the_horizon_exactly_as_the_oracle_says() {
    let mut unit = unit_sweep(0x9e37_79b9_7f4a_7c15);
    let mut oracle_pairs = [0usize; 3];
    let mut mismatches = Vec::new();
    for _ in 0..300 {
        let theta = 0.05 + 0.9 * unit();
        let scale = 0.01 + 50.0 * unit();
        let alpha = 0.2 + 3.0 * unit();
        let models = [
            DecayModel::sliding_window(scale),
            DecayModel::linear(scale),
            DecayModel::polynomial(alpha, scale),
        ];
        for (m, model) in models.into_iter().enumerate() {
            let tau = model.horizon(theta);
            let now = tau * (1.0 + 2.0 * unit());
            let edge = now - tau;
            for t in [edge.next_down(), edge, edge.next_up()] {
                let records = probe(t, now);
                let want: Vec<_> = brute_force_stream_model(&records, theta, model)
                    .iter()
                    .map(|p| p.key())
                    .collect();
                oracle_pairs[m] += want.len();
                let spec = format!("decay?theta={theta}&model={model}");
                let got = keys(&spec, &records);
                if got != want {
                    mismatches.push(format!(
                        "{spec} now={now} t={t}: got {got:?}, oracle {want:?}"
                    ));
                }
            }
        }
    }
    // Not vacuous: every model reaches pairs right at the edge.
    for (m, pairs) in oracle_pairs.iter().enumerate() {
        assert!(*pairs > 100, "model {m}: only {pairs} boundary pairs");
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
