#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]
//! Substrate data structures for the streaming similarity self-join.
//!
//! Section 6.2 of the paper names three implementation ingredients, all
//! built here from scratch:
//!
//! * [`PostingBlock`] — flat posting-list blocks of packed 32-byte
//!   entries in one allocation, with O(1) truncation from the old end
//!   (time filtering) and O(log n) horizon expiry for time-ordered
//!   lists: the cache-dense layout candidate generation scans (chosen
//!   over fully-columnar splits by measurement — see [`posting`]);
//! * [`ArrivalStore`] — the residual direct index `R` and the `Q`
//!   array of STR as one arrival-ordered store keyed by row ordinal:
//!   `id`/`t`/`Q` columns and a FIFO arena of residual coordinates,
//!   pruned from the front in amortised O(1) and sized by the live
//!   horizon;
//! * [`DecayedMaxVec`] — the lazily-decayed per-dimension running maximum
//!   `m̂λ` (exact for uniform exponential decay), plus the plain running
//!   maximum [`MaxVector`] `m` used by the AP-family bounds;
//! * [`ScoreAccumulator`] — the candidate score array `C[ι(y)]`: a dense,
//!   epoch-stamped sliding window over live keys (STR's row ordinals,
//!   the other engines' vector ids) with O(1) reset (no hashing, no
//!   per-query sweep), a spill table for arbitrary keys, and the
//!   survivor filter that opens STR's verification over the store's
//!   columns.
//!
//! Extensions beyond the paper's inventory:
//!
//! * [`WindowedMaxVec`] — exact per-dimension maxima over a sliding time
//!   window (monotonic deques), replacing `m̂λ` for non-exponential decay
//!   models where the lazy-decay trick does not apply;
//! * [`varint`] — LEB128 integer coding, the substrate of the
//!   max-vector checkpoint aux in `sssj-core` and the checkpoint and
//!   manifest bodies in `sssj-store`;
//! * [`TimedBlock`] — the posting-block storage discipline generalised
//!   over the entry payload (append + binary-search horizon expiry +
//!   compaction/hysteresis policy), backing both [`PostingBlock`] and
//!   the adjacency lists of the live similarity graph in `sssj-graph`;
//! * [`BloomFilter`] — a split-block bloom filter over `u64` keys with
//!   a serialisable word layout, gating the per-node segment probes of
//!   the historical tier in `sssj-segments`.

pub mod accumulator;
pub mod arrival;
pub mod bloom;
pub mod decayed_max;
pub mod hash;
pub mod max_vector;
pub mod posting;
pub mod timed_block;
pub mod varint;
pub mod windowed_max;

pub use accumulator::{Accumulated, ScoreAccumulator, SurvivorFilter, Survivors};
pub use arrival::{ArrivalStore, Row};
pub use bloom::BloomFilter;
pub use decayed_max::DecayedMaxVec;
pub use hash::{FxBuildHasher, FxHasher};
pub use max_vector::MaxVector;
pub use posting::{PackedPosting, PostingBlock};
pub use timed_block::{TimedBlock, TimedEntry};
pub use windowed_max::WindowedMaxVec;
