#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Set-similarity (Jaccard) self-join — batch and streaming.
//!
//! The paper's related work leans on the set-similarity join line
//! (Chaudhuri et al.'s SSJoin, Arasu et al., Xiao et al.'s
//! prefix-filtering near-duplicate joins); this crate brings that
//! semantics into the same streaming, time-decayed framework:
//!
//! ```text
//! J_Δt(x, y) = |x ∩ y| / |x ∪ y| · e^{-λ·|t(x) − t(y)|} ≥ θ
//! ```
//!
//! Because `J(x, y) ≤ 1`, the paper's *time-filtering* argument carries
//! over verbatim: nothing older than `τ = ln(1/θ)/λ` can join, so the
//! streaming index prunes exactly like STR does for cosine.
//!
//! The filtering stack is the classic one:
//!
//! * **prefix filter** — under a global token order, two sets with
//!   `J ≥ θ` must share a token among the first
//!   `|x| − ⌈θ·|x|⌉ + 1` tokens of each; only those are indexed/probed;
//! * **length filter** — `J(x, y) ≥ θ` forces
//!   `θ·|x| ≤ |y| ≤ |x|/θ`; applied per posting entry;
//! * **verification** — an early-exit merge intersection.
//!
//! Entry points: [`Tokenizer`] (text → tokens, hashing trick),
//! [`OnlineIdf`] (streaming TF–IDF weighting),
//! [`TokenSet`], [`jaccard`], [`batch_jaccard_join`] (static),
//! [`StreamingJaccard`] (the STR analogue) and
//! [`brute_force_jaccard_stream`] (the oracle).

pub mod batch;
pub mod set;
pub mod streaming;
pub mod tokenize;
pub mod weighting;

pub use batch::{batch_jaccard_join, brute_force_jaccard};
pub use set::{jaccard, overlap, TokenSet};
pub use streaming::{brute_force_jaccard_stream, StreamingJaccard, TimedSet};
pub use tokenize::Tokenizer;
pub use weighting::OnlineIdf;
