#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Core types for the streaming similarity self-join (SSSJ).
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`SparseVector`] — an immutable, dimension-sorted, sparse vector with
//!   `f64` weights, built through [`SparseVectorBuilder`];
//! * dot products ([`dot()`], [`dot_merge`]) and norms ([`norm()`],
//!   [`prefix_norms`]);
//! * [`Timestamp`] and the exponential [`Decay`] that defines the paper's
//!   *time-dependent similarity*
//!   `sim_Δt(x, y) = dot(x, y) · exp(-λ·|t(x) − t(y)|)`;
//! * [`StreamRecord`] — a timestamped vector flowing through a stream;
//! * [`SimilarPair`] — one element of the join output.
//!
//! All vectors handled by the join algorithms are expected to be
//! unit-normalised (`‖x‖₂ = 1`); [`SparseVectorBuilder::build_normalized`]
//! enforces this.

pub mod decay;
pub mod decay_model;
pub mod dot;
pub mod error;
pub mod forward_decay;
pub mod norm;
pub mod pair;
pub mod record;
pub mod summary;
pub mod time;
pub mod vector;

pub use decay::{Decay, DecayTable};
pub use decay_model::DecayModel;
pub use dot::{dot, dot_merge, dot_sorted, PROBE_CROSSOVER};
pub use error::TypesError;
pub use forward_decay::ForwardDecay;
pub use norm::{norm, prefix_norms, prefix_norms_into};
pub use pair::{SimilarPair, VectorId};
pub use record::StreamRecord;
pub use summary::VectorSummary;
pub use time::Timestamp;
pub use vector::{SparseVector, SparseVectorBuilder};

/// A dimension (coordinate) identifier. Dimensionality in the target
/// applications is large (10⁵–10⁶) but comfortably fits in 32 bits.
pub type DimId = u32;

/// A coordinate weight. `f64` keeps the geometric bounds numerically tight,
/// which matters for the safety proofs exercised by the property tests.
pub type Weight = f64;
