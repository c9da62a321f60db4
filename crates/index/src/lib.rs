#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Batch all-pairs similarity search (APSS) — the filtering framework of
//! §5 of the paper.
//!
//! Given a dataset of unit-normalised sparse vectors and a threshold `θ`,
//! find every pair with `dot(x, y) ≥ θ`. All methods follow the same
//! three-phase skeleton introduced by Chaudhuri et al. and refined by
//! Bayardo et al. (AP) and Anastasiu & Karypis (L2AP):
//!
//! * **index construction (IC)** — add (part of) each vector to an
//!   inverted index, keeping the un-indexed prefix in a residual store;
//! * **candidate generation (CG)** — scan the posting lists of the query's
//!   dimensions, accumulating partial dot products and pruning with upper
//!   bounds;
//! * **candidate verification (CV)** — finish surviving candidates with an
//!   exact residual dot product and apply the threshold.
//!
//! The four index variants of the paper — [`IndexKind::Inv`],
//! [`IndexKind::Ap`], [`IndexKind::L2ap`] and the paper's streamlined
//! [`IndexKind::L2`] — share a single engine ([`BatchIndex`]) whose bounds
//! are toggled by a [`BoundPolicy`], mirroring the red/green pseudocode
//! colour convention of Algorithms 2–4.
//!
//! ```
//! use sssj_index::{all_pairs, IndexKind};
//! use sssj_types::{vector::unit_vector, StreamRecord, Timestamp};
//!
//! let records: Vec<StreamRecord> = vec![
//!     StreamRecord::new(0, Timestamp::ZERO, unit_vector(&[(1, 1.0), (2, 1.0)])),
//!     StreamRecord::new(1, Timestamp::ZERO, unit_vector(&[(1, 1.0), (2, 1.0)])),
//!     StreamRecord::new(2, Timestamp::ZERO, unit_vector(&[(7, 1.0)])),
//! ];
//! let (pairs, _stats) = all_pairs(&records, 0.9, IndexKind::L2);
//! assert_eq!(pairs.len(), 1); // only the identical pair (0, 1)
//! ```

pub mod batch;
pub mod driver;
pub mod entry;
pub mod policy;

pub use batch::{BatchIndex, BatchScratch, Match};
pub use driver::{all_pairs, max_vector_of};
pub use entry::PostingEntry;
pub use policy::{BoundPolicy, IndexKind};
