#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Approximate streaming similarity self-join via SimHash LSH.
//!
//! The exact algorithms of `sssj-core` guarantee no false negatives; this
//! crate trades that guarantee for index probes whose cost is independent
//! of vector density — the regime (very dense vectors, short horizons)
//! where §7 shows even STR-L2's posting-list scans getting expensive.
//!
//! The pipeline is the classic random-hyperplane sketch of Charikar
//! (SimHash) combined with banding, adapted to the paper's streaming,
//! time-decayed setting:
//!
//! 1. each vector is sketched into a `b`-bit [`Signature`]
//!    ([`SimHasher`]): bit `i` is the sign of a projection onto a pseudo
//!    random ±1 hyperplane, so
//!    `P[bit differs] = angle(x, y)/π`;
//! 2. the signature is cut into [`Bands`]; two vectors *collide* when
//!    they agree on all rows of at least one band, and only colliding
//!    pairs are examined;
//! 3. collision buckets hold `(id, t)` entries in arrival order and are
//!    pruned at the time horizon `τ = ln(1/θ)/λ`, exactly like the exact
//!    algorithms' posting lists (*time filtering* carries over
//!    unchanged);
//! 4. surviving candidates are either verified exactly
//!    ([`VerifyMode::Exact`] — no false positives, the default) or scored
//!    from signature Hamming distance ([`VerifyMode::Estimate`] — no
//!    stored vectors at all).
//!
//! [`measure_accuracy`] quantifies the recall/precision trade-off against
//! the exact oracle; the `lsh_recall` bench sweeps it.

pub mod bands;
pub mod eval;
pub mod join;
pub mod simhash;

pub use bands::Bands;
pub use eval::{measure_accuracy, AccuracyReport};
pub use join::{LshJoin, LshParams, VerifyMode};
pub use simhash::{Signature, SimHasher};

/// Registers the LSH constructor with the [`sssj_core::spec`] factory
/// ([`sssj_core::spec::register`]), so `lsh?…` [`sssj_core::JoinSpec`]
/// strings build an [`LshJoin`] and `sharded?inner=lsh&…` specs can
/// spawn LSH workers (the shard driver in `sssj-parallel` does not link
/// this crate). Idempotent; every workspace binary calls it at startup.
pub fn register_spec_builder() {
    use sssj_core::spec::{register, Extensions};
    register(Extensions {
        lsh: Some(|theta, lambda, p| Box::new(LshJoin::new(theta, lambda, LshParams::from(p)))),
        ..Extensions::NONE
    });
}

impl From<sssj_core::LshSpec> for LshParams {
    fn from(p: sssj_core::LshSpec) -> LshParams {
        LshParams {
            bits: p.bits,
            bands: p.bands,
            seed: p.seed,
            verify: if p.estimate {
                VerifyMode::Estimate
            } else {
                VerifyMode::Exact
            },
        }
    }
}

impl From<LshParams> for sssj_core::LshSpec {
    fn from(p: LshParams) -> sssj_core::LshSpec {
        sssj_core::LshSpec {
            bits: p.bits,
            bands: p.bands,
            seed: p.seed,
            estimate: p.verify == VerifyMode::Estimate,
        }
    }
}

#[cfg(test)]
mod spec_tests {
    use sssj_core::StreamJoin;

    #[test]
    fn lsh_spec_builds_through_the_factory() {
        super::register_spec_builder();
        let spec: sssj_core::JoinSpec = "lsh?theta=0.7&lambda=0.1&bits=128&bands=16&verify=est"
            .parse()
            .unwrap();
        let join = spec.build().unwrap();
        assert_eq!(join.name(), "LSH-16x8-est");
    }
}
