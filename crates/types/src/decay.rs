//! Exponential time decay, the time horizon, and the quantized decay
//! bound the engines prune with.

use crate::{DecayModel, Timestamp};

/// The exponential decay `e^{-λ·Δt}` that turns cosine similarity into the
/// paper's *time-dependent similarity*:
///
/// ```text
/// sim_Δt(x, y) = dot(x, y) · exp(-λ·|t(x) − t(y)|)
/// ```
///
/// Because `dot(x, y) ≤ 1` for unit vectors, any pair further apart than
/// the *time horizon* `τ = ln(1/θ)/λ` cannot reach threshold `θ`; this is
/// the *time-filtering* property every algorithm in this workspace builds
/// on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decay {
    lambda: f64,
}

impl Decay {
    /// Creates a decay with rate `λ ≥ 0`. `λ = 0` disables forgetting and
    /// reverts to plain cosine similarity (with an infinite horizon).
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "decay rate must be finite and non-negative: {lambda}"
        );
        Decay { lambda }
    }

    /// The decay rate λ.
    #[inline]
    pub fn lambda(self) -> f64 {
        self.lambda
    }

    /// The decay factor `e^{-λ·Δt}` for a time gap `Δt ≥ 0`.
    #[inline]
    pub fn factor(self, dt: f64) -> f64 {
        debug_assert!(dt >= 0.0, "time gap must be non-negative: {dt}");
        (-self.lambda * dt).exp()
    }

    /// The decay factor between two timestamps.
    #[inline]
    pub fn factor_between(self, a: Timestamp, b: Timestamp) -> f64 {
        self.factor(a.delta(b))
    }

    /// Time-dependent similarity of a pair with plain similarity `sim` and
    /// time gap `Δt`.
    #[inline]
    pub fn apply(self, sim: f64, dt: f64) -> f64 {
        sim * self.factor(dt)
    }

    /// The time horizon `τ = ln(1/θ)/λ`: a vector older than `τ` cannot be
    /// `θ`-similar to the current one. Infinite when `λ = 0` or `θ ≤ 0`;
    /// zero when `θ ≥ 1`.
    pub fn horizon(self, theta: f64) -> f64 {
        assert!(theta.is_finite() && theta > 0.0, "theta must be positive");
        if self.lambda == 0.0 {
            return f64::INFINITY;
        }
        if theta >= 1.0 {
            return 0.0;
        }
        (1.0 / theta).ln() / self.lambda
    }

    /// Solves the parameter-setting recipe of §3: given the content
    /// threshold `θ` and the largest acceptable gap `τ` between two
    /// *identical* items, returns `λ = ln(1/θ)/τ`.
    pub fn from_horizon(theta: f64, tau: f64) -> Decay {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        assert!(tau > 0.0, "tau must be positive");
        Decay::new((1.0 / theta).ln() / tau)
    }
}

/// A quantized upper-bound table for a decay factor `f(Δt)`.
///
/// Candidate generation needs the decay factor once per posting entry.
/// Pruning only needs an **upper bound** on it (a larger factor prunes
/// *less*, never more, so no pair can be lost); the exact factor is
/// reserved for the final verification of surviving candidates.
///
/// The table stores `f(i·step)` for `i·step` spanning `[0, τ]`, for any
/// non-increasing [`DecayModel`]: the value at a bin's left edge bounds
/// every `Δt` inside the bin from above. For the exponential, with the
/// default 1024 bins, the slack per lookup is a factor of `e^{λτ/1024} =
/// (1/θ)^{1/1024}` — below 0.7 % even at `θ = 0.001` — which only admits a
/// sliver of extra candidates; exactness is untouched.
///
/// When the horizon is not finite or not positive the table has one bin,
/// `[1.0]`, with `1/step = 1`. That is exact wherever an engine looks: a
/// model that never forgets (exponential with `λ = 0`) has factor 1 at
/// every gap, and a zero horizon (`θ = 1`) leaves only postings at
/// `Δt = 0` live.
#[derive(Clone, Debug)]
pub struct DecayTable {
    factors: Box<[f64]>,
    /// `1/step`, i.e. `bins/τ`; 1 for the one-bin table.
    inv_step: f64,
}

/// Default bin count for [`DecayTable`]. 1024 keeps the per-bin slack
/// `(1/θ)^{1/1024}` below 0.7 % even at θ = 0.001 while the table builds
/// in ~10 µs and occupies 8 KB (half the L1d) — join construction shows
/// up in benchmark loops, so the table must be cheap to build too.
const DECAY_TABLE_BINS: usize = 1024;

impl DecayTable {
    /// Builds a table for `model` covering gaps in `[0, horizon]`, or the
    /// one-bin table when `horizon` is not finite or not positive.
    pub fn new(model: DecayModel, horizon: f64) -> Self {
        if !horizon.is_finite() || horizon <= 0.0 {
            return DecayTable {
                factors: vec![1.0].into_boxed_slice(),
                inv_step: 1.0,
            };
        }
        let step = horizon / DECAY_TABLE_BINS as f64;
        let factors: Vec<f64> = (0..=DECAY_TABLE_BINS)
            .map(|i| model.factor(i as f64 * step))
            .collect();
        DecayTable {
            factors: factors.into_boxed_slice(),
            inv_step: 1.0 / step,
        }
    }

    /// An upper bound on `f(Δt)`, exact at bin edges.
    ///
    /// Gaps beyond the horizon clamp to the last bin — still an upper
    /// bound there is not guaranteed, but callers discard such entries by
    /// time filtering before scoring them.
    #[inline]
    pub fn upper(&self, dt: f64) -> f64 {
        let idx = (dt * self.inv_step) as usize;
        // `as usize` saturates negative/NaN to 0 and huge to MAX; the
        // unconditional min keeps the lookup branch-light.
        self.factors[idx.min(self.factors.len() - 1)]
    }

    /// The raw quantized table, `(factors, 1/step)`. The batched kernels
    /// (`sssj_kernels::l2_candidate_batch`, `decay_upper_batch`) and the
    /// accumulator's list pass consume this pair and reproduce
    /// [`Self::upper`] bit for bit over every non-NaN gap.
    #[inline]
    pub fn lookup(&self) -> (&[f64], f64) {
        (&self.factors, self.inv_step)
    }

    /// Estimated heap footprint in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.factors.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_at_zero_gap_is_one() {
        let d = Decay::new(0.5);
        assert_eq!(d.factor(0.0), 1.0);
    }

    #[test]
    fn zero_lambda_never_decays() {
        let d = Decay::new(0.0);
        assert_eq!(d.factor(1e9), 1.0);
        assert_eq!(d.horizon(0.5), f64::INFINITY);
    }

    #[test]
    fn horizon_roundtrip() {
        // τ = ln(1/θ)/λ, so sim of an identical pair at exactly τ is θ.
        let theta = 0.7;
        let d = Decay::new(0.01);
        let tau = d.horizon(theta);
        assert!((d.apply(1.0, tau) - theta).abs() < 1e-12);
    }

    #[test]
    fn from_horizon_matches_recipe() {
        let d = Decay::from_horizon(0.5, 100.0);
        assert!((d.horizon(0.5) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn decay_monotone_in_gap() {
        let d = Decay::new(0.1);
        assert!(d.factor(1.0) > d.factor(2.0));
        assert!(d.factor(2.0) > 0.0);
    }

    #[test]
    fn horizon_zero_at_theta_one() {
        assert_eq!(Decay::new(0.1).horizon(1.0), 0.0);
    }

    #[test]
    fn factor_between_timestamps() {
        let d = Decay::new(1.0);
        let a = Timestamp::new(2.0);
        let b = Timestamp::new(3.0);
        assert!((d.factor_between(a, b) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn table_upper_bounds_exact_factor() {
        let models = [
            DecayModel::exponential(0.1),
            DecayModel::sliding_window(7.0),
            DecayModel::linear(13.0),
            DecayModel::polynomial(1.5, 2.0),
        ];
        for model in models {
            for theta in [0.05, 0.3, 0.5, 0.9, 0.999] {
                let tau = model.horizon(theta);
                let table = DecayTable::new(model, tau);
                let (factors, inv_step) = table.lookup();
                assert_eq!(factors.len(), DECAY_TABLE_BINS + 1, "{model} θ={theta}");
                // The last bin is the factor at the horizon itself.
                assert_eq!(
                    factors[DECAY_TABLE_BINS].to_bits(),
                    model.factor(tau).to_bits(),
                    "{model} θ={theta}"
                );
                let step = tau / DECAY_TABLE_BINS as f64;
                for i in 0..=DECAY_TABLE_BINS {
                    let edge = i as f64 * step;
                    for dt in [edge.next_down().max(0.0), edge, edge.next_up().min(tau)] {
                        let upper = table.upper(dt);
                        let exact = model.factor(dt);
                        // `dt·inv_step` can round up across a bin edge,
                        // so a gap an ulp left of an edge may read the
                        // next bin. The engines' pruning slack
                        // (`PRUNE_EPS` = 1e-12) absorbs exactly this.
                        assert!(
                            upper >= exact - 1e-12,
                            "{model} θ={theta}: upper({dt}) = {upper} < exact {exact} \
                             (inv_step {inv_step})"
                        );
                    }
                }
                if model.is_exponential() {
                    // …and tight: within the per-bin slack.
                    let mut dt = 0.0;
                    while dt <= tau {
                        assert!(
                            table.upper(dt) <= model.factor(dt) * 1.01,
                            "upper({dt}) too loose"
                        );
                        dt += tau / 1000.0;
                    }
                }
            }
        }
    }

    #[test]
    fn table_is_exact_at_bin_edges() {
        // A power-of-two horizon makes `step` and `inv_step` exact, so
        // every edge lands on its own bin.
        let model = DecayModel::exponential(0.5);
        let table = DecayTable::new(model, 16.0);
        let (factors, inv_step) = table.lookup();
        assert_eq!(inv_step, 64.0);
        assert_eq!(table.upper(0.0), 1.0);
        for (i, f) in factors.iter().enumerate() {
            let edge = i as f64 / 64.0;
            assert_eq!(f.to_bits(), model.factor(edge).to_bits(), "bin {i}");
            assert_eq!(table.upper(edge).to_bits(), f.to_bits(), "edge {edge}");
        }
        // The exponential model's table is the one `Decay` would build.
        assert_eq!(
            model.factor(3.0).to_bits(),
            Decay::new(0.5).factor(3.0).to_bits()
        );
    }

    #[test]
    fn degenerate_tables_fall_back_to_exact() {
        // No decay, an unbounded or a zero horizon: one bin, `[1.0]`,
        // which is the exact factor wherever an engine can look.
        for (model, horizon) in [
            (DecayModel::exponential(0.0), f64::INFINITY),
            (DecayModel::exponential(0.3), f64::INFINITY),
            (DecayModel::exponential(0.3), 0.0),
            (DecayModel::linear(4.0), f64::NAN),
        ] {
            let table = DecayTable::new(model, horizon);
            assert_eq!(table.lookup(), (&[1.0][..], 1.0), "{model} τ={horizon}");
            for dt in [-1.0, 0.0, 2.0, 1e12] {
                assert_eq!(table.upper(dt), 1.0, "{model} τ={horizon} Δt={dt}");
            }
        }
        // λ = 0 never decays, so the one bin is exact at every gap.
        assert_eq!(DecayModel::exponential(0.0).factor(1e12), 1.0);
    }

    #[test]
    fn lookup_exposes_table_iff_quantized() {
        // Every table, one-bin ones included, exposes its lookup pair,
        // and the batched kernel over that pair reproduces `upper` bit
        // for bit — the contract the engines' list pass relies on.
        let dts: Vec<f64> = (-3..40).map(|i| i as f64 * 0.7).collect();
        for (table, bins) in [
            (
                DecayTable::new(DecayModel::exponential(0.1), 20.0),
                DECAY_TABLE_BINS + 1,
            ),
            (
                DecayTable::new(DecayModel::polynomial(2.0, 3.0), 20.0),
                DECAY_TABLE_BINS + 1,
            ),
            (
                DecayTable::new(DecayModel::exponential(0.0), f64::INFINITY),
                1,
            ),
        ] {
            let (factors, inv_step) = table.lookup();
            assert_eq!(factors.len(), bins);
            assert!(inv_step > 0.0);
            let mut out = vec![0.0; dts.len()];
            sssj_kernels::decay_upper_batch(&dts, inv_step, factors, &mut out);
            for (dt, got) in dts.iter().zip(&out) {
                assert_eq!(got.to_bits(), table.upper(*dt).to_bits(), "dt={dt}");
            }
        }
    }

    #[test]
    fn table_clamps_past_horizon() {
        let d = DecayModel::exponential(0.1);
        let table = DecayTable::new(d, 5.0);
        // Beyond the horizon the clamp returns the last bin.
        assert!((table.upper(100.0) - d.factor(5.0)).abs() < 1e-12);
        // Negative / NaN gaps saturate to the first bin (factor 1).
        assert_eq!(table.upper(-3.0), 1.0);
    }
}
