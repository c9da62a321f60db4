//! Brute-force streaming join under an arbitrary decay model.

use std::collections::VecDeque;

use sssj_types::{dot, DecayModel, SimilarPair, StreamRecord};

/// Solves the generalised SSSJ problem exactly: reports every pair with
/// `dot(x, y)·f(Δt) ≥ θ` for an arbitrary [`DecayModel`] `f`, keeping a
/// window of the model's horizon `τ(θ)` and comparing each arrival against
/// everything in it.
///
/// The ground truth for [`sssj_core`'s `Streaming::with_decay`] and the
/// naive baseline of the decay-model benches.
///
/// [`sssj_core`'s `Streaming::with_decay`]: https://docs.rs/sssj-core
pub fn brute_force_stream_model(
    records: &[StreamRecord],
    theta: f64,
    model: DecayModel,
) -> Vec<SimilarPair> {
    assert!(theta > 0.0, "theta must be positive");
    let tau = model.horizon(theta);
    let mut window: VecDeque<&StreamRecord> = VecDeque::new();
    let mut out = Vec::new();
    for r in records {
        while let Some(front) = window.front() {
            if r.t.delta(front.t) > tau {
                window.pop_front();
            } else {
                break;
            }
        }
        for old in &window {
            let dt = r.t.delta(old.t);
            let sim = model.apply(dot(&r.vector, &old.vector), dt);
            if sim >= theta {
                out.push(SimilarPair::new(old.id, r.id, sim));
            }
        }
        window.push_back(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_types::{vector::unit_vector, Timestamp};

    fn rec(id: u64, t: f64, entries: &[(u32, f64)]) -> StreamRecord {
        StreamRecord::new(id, Timestamp::new(t), unit_vector(entries))
    }

    fn ids(pairs: &[SimilarPair]) -> Vec<(u64, u64)> {
        pairs.iter().map(|p| p.key()).collect()
    }

    #[test]
    fn exponential_model_matches_legacy_oracle() {
        let stream = vec![
            rec(0, 0.0, &[(1, 1.0), (2, 1.0)]),
            rec(1, 1.0, &[(1, 1.0), (2, 1.0)]),
            rec(2, 3.0, &[(1, 1.0)]),
            rec(3, 50.0, &[(1, 1.0), (2, 1.0)]),
        ];
        let legacy = crate::brute_force_stream(&stream, 0.6, 0.1);
        let model = brute_force_stream_model(&stream, 0.6, DecayModel::exponential(0.1));
        assert_eq!(ids(&legacy), ids(&model));
    }

    #[test]
    fn sliding_window_keeps_full_similarity_inside() {
        let stream = vec![rec(0, 0.0, &[(1, 1.0)]), rec(1, 9.0, &[(1, 1.0)])];
        let pairs = brute_force_stream_model(&stream, 0.99, DecayModel::sliding_window(10.0));
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].similarity - 1.0).abs() < 1e-12); // undecayed
    }

    #[test]
    fn sliding_window_cuts_hard_at_edge() {
        let stream = vec![rec(0, 0.0, &[(1, 1.0)]), rec(1, 10.5, &[(1, 1.0)])];
        let pairs = brute_force_stream_model(&stream, 0.5, DecayModel::sliding_window(10.0));
        assert!(pairs.is_empty());
    }

    #[test]
    fn polynomial_keeps_distant_pairs_exponential_drops() {
        let stream = vec![rec(0, 0.0, &[(1, 1.0)]), rec(1, 30.0, &[(1, 1.0)])];
        let exp = brute_force_stream_model(&stream, 0.3, DecayModel::exponential(0.1));
        let poly = brute_force_stream_model(&stream, 0.3, DecayModel::polynomial(0.5, 10.0));
        assert!(exp.is_empty()); // e^{-3} ≈ 0.05 < 0.3
        assert_eq!(poly.len(), 1); // 4^{-0.5} = 0.5 ≥ 0.3
    }
}
