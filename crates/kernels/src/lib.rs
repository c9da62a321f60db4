#![warn(missing_docs)]
//! Runtime-dispatched SIMD kernels for the join's sparse inner loops.
//!
//! Every engine in this workspace funnels its per-record work through a
//! handful of primitives: the sorted-merge / probe dot products, the
//! sparse·dense dot against the running-max vector, the fused
//! decay-bound + score-delta + prune-threshold computation over a
//! posting batch, and the time/similarity scans over packed
//! `TimedBlock` entries. This crate implements each of them once, with
//! a portable scalar **reference** and wider x86-64 paths selected at
//! runtime — the `crates/store/src/crc.rs` hardware/fallback pattern,
//! grown into a module.
//!
//! # Dispatch rules
//!
//! [`active_lane`] picks the lane per call (a relaxed atomic load plus a
//! cached feature probe — noise next to any kernel body):
//!
//! 1. an in-process [`force_lane`] override, if set (benchmark A/B);
//! 2. the `SSSJ_KERNELS` environment variable — `scalar`, `sse4.1`,
//!    `avx2`, `avx512`, or `auto`, read once;
//! 3. otherwise the widest lane the CPU reports via
//!    `is_x86_feature_detected!` (`avx512` needs AVX-512 F and VL).
//!
//! Requests are clamped to the hardware maximum, and any kernel without
//! an implementation at the selected lane silently uses the next lower
//! one (e.g. the batch kernels are AVX2-or-scalar). Every kernel of this
//! crate runs its AVX2 body on the `avx512` lane; the one AVX-512 body
//! is STR-L2's list pass in `sssj_collections`, which dispatches on the
//! same [`Lane`]. On non-x86-64 targets everything is scalar and the
//! SIMD modules compile away.
//!
//! # Tolerance contract
//!
//! Each public kernel documents one of two guarantees, and the
//! differential tests enforce them per lane:
//!
//! * **bit-exact** — the wide path performs the same floating-point
//!   operations in the same order as the scalar reference (no FMA, no
//!   reassociation); outputs are identical bits. This holds for
//!   [`dot_probe`], all batch kernels, and the scans (pure compares).
//! * **summation-order tolerance** — multi-lane accumulators reassociate
//!   the reduction; results differ from the reference only by rounding,
//!   within `1e-12` relative for unit-normalised inputs. This holds for
//!   [`dot_merge`] and [`dot_dense`]. The join's pruning math already
//!   carries a `PRUNE_EPS = 1e-12` slack precisely so that ulp-level
//!   rearrangements cannot change the output pair set.
//!
//! # How to add a kernel
//!
//! 1. Write the scalar version first and export it from [`mod@reference`];
//!    it is the spec, the portable fallback, and the test oracle.
//! 2. Add `#[cfg(target_arch = "x86_64")] #[target_feature(enable =
//!    "...")] unsafe fn` variants, with a `# Safety` note saying the
//!    caller verified the feature; dispatch on [`active_lane`] in the
//!    public wrapper, validating slice lengths *before* the unsafe call.
//! 3. State the contract (bit-exact or tolerance) in the doc, and add a
//!    differential test in `tests/differential.rs` that exercises every
//!    lane via [`force_lane`] across lengths, alignments and edge values.
//! 4. Keep preconditions explicit: sortedness, stride layout, non-NaN
//!    gaps. Debug-assert the cheap ones.

pub mod dispatch;

mod batch;
mod dot;
mod scan;

#[cfg(target_arch = "x86_64")]
pub use batch::avx2;
pub use batch::{
    decay_upper_batch, l2_candidate, l2_candidate_batch, posting_products, L2BatchParams,
    L2Candidate, POSTING_ID, POSTING_PREFIX, POSTING_TIME, POSTING_WEIGHT, POSTING_WORDS,
};
pub use dispatch::{active_lane, force_lane, Lane};
pub use dot::{dot_dense, dot_merge, dot_probe};
pub use scan::{partition_time_strided, select_ge_strided};

/// The scalar reference implementations, exported for differential
/// testing and for callers that need reproducible-order arithmetic
/// regardless of dispatch (the batch and scan kernels are bit-exact on
/// every lane, so only the dot kernels appear here).
pub mod reference {
    pub use crate::dot::{
        dot_dense_scalar as dot_dense, dot_merge_scalar as dot_merge, dot_probe_scalar as dot_probe,
    };
}
