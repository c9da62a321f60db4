//! Generalised time-decay models (the paper's §8 future work: "extending
//! our model for different definitions of time-dependent similarity").
//!
//! The streaming algorithms need only three properties from a decay
//! function `f(Δt)`:
//!
//! 1. `f(0) = 1` — simultaneous arrivals revert to cosine similarity;
//! 2. `f` is non-increasing in `Δt` and bounded by 1;
//! 3. a finite *horizon* `τ(θ)` exists with `f(Δt) < θ` for all `Δt > τ`.
//!
//! Any such `f` supports time filtering, so the L2-bound machinery carries
//! over verbatim (the Cauchy–Schwarz proof of Appendix A multiplies the
//! bound by `f(Δt) ≤ 1` exactly as it does for the exponential). Only the
//! `m̂λ` maintenance trick of §5.3 is exponential-specific — it relies on
//! the semigroup property `e^{-λ(a+b)} = e^{-λa}·e^{-λb}` — which is why
//! the generic join ([`sssj_core::Streaming::with_decay`]) replaces it
//! with an undecayed windowed maximum.
//!
//! [`sssj_core::Streaming::with_decay`]: https://docs.rs/sssj-core

use std::fmt;

/// A time-decay model: maps an arrival-time gap `Δt ≥ 0` to a factor in
/// `[0, 1]` that multiplies the content similarity.
///
/// All variants satisfy `factor(0) = 1` and are non-increasing, and all
/// have a finite horizon for `θ > 0` (except [`DecayModel::Exponential`]
/// with `λ = 0`, which never forgets).
///
/// ```
/// use sssj_types::DecayModel;
///
/// let exp = DecayModel::exponential(0.1);
/// let win = DecayModel::sliding_window(10.0);
/// assert_eq!(win.factor(9.0), 1.0);
/// assert_eq!(win.factor(11.0), 0.0);
/// assert!(exp.factor(5.0) < 1.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DecayModel {
    /// The paper's `e^{-λ·Δt}`. Horizon `τ(θ) = ln(1/θ)/λ`.
    Exponential {
        /// Decay rate `λ ≥ 0`; `0` disables forgetting.
        lambda: f64,
    },
    /// A hard sliding window: factor `1` within `window`, `0` beyond —
    /// the classical sliding-window join semantics (cf. Lian & Chen, and
    /// Valari & Papadopoulos in related work). Horizon `τ(θ) = window`.
    SlidingWindow {
        /// Window length in stream-time units (> 0).
        window: f64,
    },
    /// Linear ramp `max(0, 1 − Δt/window)`. Horizon `τ(θ) = window·(1−θ)`.
    Linear {
        /// Gap at which the factor reaches zero (> 0).
        window: f64,
    },
    /// Polynomial (heavy-tailed) decay `(1 + Δt/scale)^{-α}`. Horizon
    /// `τ(θ) = scale·(θ^{-1/α} − 1)`.
    Polynomial {
        /// Tail exponent `α > 0`; larger decays faster.
        alpha: f64,
        /// Time scale (> 0) at which the factor first halves-ish.
        scale: f64,
    },
}

impl DecayModel {
    /// Exponential decay with rate `λ ≥ 0` (the paper's model).
    pub fn exponential(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be finite and non-negative: {lambda}"
        );
        DecayModel::Exponential { lambda }
    }

    /// Hard sliding window of the given length.
    pub fn sliding_window(window: f64) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be finite and positive: {window}"
        );
        DecayModel::SlidingWindow { window }
    }

    /// Linear decay reaching zero at `window`.
    pub fn linear(window: f64) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be finite and positive: {window}"
        );
        DecayModel::Linear { window }
    }

    /// Polynomial decay `(1 + Δt/scale)^{-α}`.
    pub fn polynomial(alpha: f64, scale: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "alpha must be finite and positive: {alpha}"
        );
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be finite and positive: {scale}"
        );
        DecayModel::Polynomial { alpha, scale }
    }

    /// The decay factor for a gap `Δt ≥ 0`; always in `[0, 1]`.
    #[inline]
    pub fn factor(self, dt: f64) -> f64 {
        debug_assert!(dt >= 0.0, "time gap must be non-negative: {dt}");
        match self {
            DecayModel::Exponential { lambda } => (-lambda * dt).exp(),
            DecayModel::SlidingWindow { window } => {
                if dt <= window {
                    1.0
                } else {
                    0.0
                }
            }
            DecayModel::Linear { window } => (1.0 - dt / window).max(0.0),
            DecayModel::Polynomial { alpha, scale } => (1.0 + dt / scale).powf(-alpha),
        }
    }

    /// Time-dependent similarity of a pair with content similarity `sim`
    /// and gap `Δt`.
    #[inline]
    pub fn apply(self, sim: f64, dt: f64) -> f64 {
        sim * self.factor(dt)
    }

    /// The time horizon `τ(θ)`: the largest gap at which a pair of
    /// *identical* vectors still reaches `θ`. Any vector older than this
    /// can be forgotten.
    ///
    /// Infinite only for `Exponential { lambda: 0 }`.
    pub fn horizon(self, theta: f64) -> f64 {
        assert!(
            theta.is_finite() && theta > 0.0 && theta <= 1.0,
            "theta must be in (0, 1]: {theta}"
        );
        match self {
            DecayModel::Exponential { lambda } => {
                if lambda == 0.0 {
                    f64::INFINITY
                } else {
                    (1.0 / theta).ln() / lambda
                }
            }
            DecayModel::SlidingWindow { window } => window,
            DecayModel::Linear { window } => window * (1.0 - theta),
            DecayModel::Polynomial { alpha, scale } => scale * (theta.powf(-1.0 / alpha) - 1.0),
        }
    }

    /// Whether this is the exponential model (for which the `m̂λ`
    /// lazy-maximum trick of §5.3 is exact).
    pub fn is_exponential(self) -> bool {
        matches!(self, DecayModel::Exponential { .. })
    }

    /// A short machine-friendly name (`exp`, `window`, `linear`, `poly`).
    pub fn kind_name(self) -> &'static str {
        match self {
            DecayModel::Exponential { .. } => "exp",
            DecayModel::SlidingWindow { .. } => "window",
            DecayModel::Linear { .. } => "linear",
            DecayModel::Polynomial { .. } => "poly",
        }
    }

    /// Parses the CLI syntax: `exp:<lambda>`, `window:<w>`, `linear:<w>`,
    /// `poly:<alpha>:<scale>`.
    pub fn parse(s: &str) -> Option<DecayModel> {
        let mut parts = s.split(':');
        let kind = parts.next()?;
        let a: f64 = parts.next()?.parse().ok()?;
        match (kind, parts.next()) {
            ("exp", None) if a >= 0.0 => Some(DecayModel::exponential(a)),
            ("window", None) if a > 0.0 => Some(DecayModel::sliding_window(a)),
            ("linear", None) if a > 0.0 => Some(DecayModel::linear(a)),
            ("poly", Some(b)) => {
                let scale: f64 = b.parse().ok()?;
                if a > 0.0 && scale > 0.0 && parts.next().is_none() {
                    Some(DecayModel::polynomial(a, scale))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl fmt::Display for DecayModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecayModel::Exponential { lambda } => write!(f, "exp:{lambda}"),
            DecayModel::SlidingWindow { window } => write!(f, "window:{window}"),
            DecayModel::Linear { window } => write!(f, "linear:{window}"),
            DecayModel::Polynomial { alpha, scale } => write!(f, "poly:{alpha}:{scale}"),
        }
    }
}

impl From<crate::Decay> for DecayModel {
    fn from(d: crate::Decay) -> Self {
        DecayModel::exponential(d.lambda())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODELS: [DecayModel; 4] = [
        DecayModel::Exponential { lambda: 0.1 },
        DecayModel::SlidingWindow { window: 10.0 },
        DecayModel::Linear { window: 10.0 },
        DecayModel::Polynomial {
            alpha: 2.0,
            scale: 5.0,
        },
    ];

    #[test]
    fn factor_at_zero_is_one() {
        for m in MODELS {
            assert_eq!(m.factor(0.0), 1.0, "{m}");
        }
    }

    #[test]
    fn factor_is_monotone_and_bounded() {
        for m in MODELS {
            let mut prev = 1.0;
            for i in 0..200 {
                let f = m.factor(i as f64 * 0.37);
                assert!(f <= prev + 1e-15, "{m} not monotone at {i}");
                assert!((0.0..=1.0).contains(&f), "{m} out of range");
                prev = f;
            }
        }
    }

    #[test]
    fn horizon_is_tight() {
        // factor(τ) ≥ θ and factor(τ + ε) < θ (strictly below, except the
        // flat sliding window which drops discontinuously).
        for m in MODELS {
            for theta in [0.3, 0.5, 0.9] {
                let tau = m.horizon(theta);
                assert!(m.factor(tau) >= theta - 1e-12, "{m} θ={theta}");
                assert!(m.factor(tau + 1e-6) < theta, "{m} θ={theta}");
            }
        }
    }

    #[test]
    fn exponential_matches_decay() {
        let d = crate::Decay::new(0.25);
        let m = DecayModel::from(d);
        for dt in [0.0, 0.5, 3.0, 42.0] {
            assert!((m.factor(dt) - d.factor(dt)).abs() < 1e-15);
        }
        assert!((m.horizon(0.5) - d.horizon(0.5)).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_is_flat_then_zero() {
        let m = DecayModel::sliding_window(5.0);
        assert_eq!(m.factor(5.0), 1.0);
        assert_eq!(m.factor(5.0 + 1e-9), 0.0);
        assert_eq!(m.horizon(0.99), 5.0);
        assert_eq!(m.horizon(0.01), 5.0);
    }

    #[test]
    fn linear_horizon_scales_with_theta() {
        let m = DecayModel::linear(10.0);
        assert!((m.horizon(0.2) - 8.0).abs() < 1e-12);
        assert!((m.horizon(0.9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn polynomial_has_heavy_tail() {
        let p = DecayModel::polynomial(1.0, 1.0);
        let e = DecayModel::exponential(1.0);
        // At large gaps the polynomial retains far more weight.
        assert!(p.factor(20.0) > 100.0 * e.factor(20.0));
    }

    #[test]
    fn zero_lambda_exponential_never_forgets() {
        let m = DecayModel::exponential(0.0);
        assert_eq!(m.factor(1e12), 1.0);
        assert_eq!(m.horizon(0.5), f64::INFINITY);
    }

    #[test]
    fn parse_roundtrips_display() {
        let models = [
            DecayModel::exponential(0.01),
            DecayModel::sliding_window(30.0),
            DecayModel::linear(12.5),
            DecayModel::polynomial(1.5, 4.0),
        ];
        for m in models {
            assert_eq!(DecayModel::parse(&m.to_string()), Some(m), "{m}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "exp",
            "exp:-1",
            "window:0",
            "linear:-2",
            "poly:1",
            "poly:1:0",
            "poly:1:2:3",
            "gauss:1",
        ] {
            assert_eq!(DecayModel::parse(s), None, "{s:?}");
        }
    }

    #[test]
    fn apply_multiplies() {
        let m = DecayModel::linear(10.0);
        assert!((m.apply(0.8, 5.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn bad_window_rejected() {
        DecayModel::sliding_window(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn bad_theta_rejected() {
        DecayModel::exponential(1.0).horizon(0.0);
    }
}
