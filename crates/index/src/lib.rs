#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The filtering index variants of all-pairs similarity search (APSS):
//! which pruning bounds each one enables.
//!
//! Every APSS method of §5 of the paper follows the same three phases —
//! index construction, candidate generation over posting lists, and
//! verification with an exact residual dot product — and the four index
//! variants differ only in the bounds that prune each phase. The paper
//! presents them as one pseudocode listing with colour-coded lines
//! (red = AP bounds, green = ℓ2 bounds, Algorithms 2–4); a
//! [`BoundPolicy`] is that colour convention as data, and an
//! [`IndexKind`] names one of the four variants: [`IndexKind::Inv`],
//! [`IndexKind::Ap`], [`IndexKind::L2ap`] and the paper's streamlined
//! [`IndexKind::L2`].
//!
//! The one engine that runs them lives in `sssj-core`: STR's streaming
//! index, which with time filtering off is also MB's window index and
//! static APSS (`sssj_core::batch::all_pairs`).
//!
//! ```
//! use sssj_index::{BoundPolicy, IndexKind};
//!
//! let kind = IndexKind::parse("l2").unwrap();
//! assert_eq!(kind.policy(), BoundPolicy::L2);
//! // L2 prunes with the ℓ2 bounds only: no dataset-wide max vector.
//! assert!(kind.policy().prunes() && !kind.policy().ap);
//! // INV prunes nothing and indexes every coordinate.
//! assert_eq!(BoundPolicy::INV.combine(0.3, 0.5), f64::INFINITY);
//! ```

pub mod policy;

pub use policy::{BoundPolicy, IndexKind};
