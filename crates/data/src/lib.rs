#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Dataset substrate for the streaming similarity self-join.
//!
//! The paper evaluates on four text corpora (RCV1, WebSpam, Blogs,
//! Tweets) that are not redistributable here; this crate builds synthetic
//! streams with the same *shape* — Zipfian vocabularies, per-dataset
//! density and average-nnz ratios (Table 1), topic structure,
//! near-duplicate injection (so the join output is non-trivial) and
//! per-dataset arrival processes (Poisson, sequential, bursty wall-clock).
//! See DESIGN.md for the substitution argument.
//!
//! Also provided: the text and binary serialisation formats (mirroring
//! the paper's released tooling, which ships a text→binary converter),
//! incremental per-record readers ([`TextStreamReader`],
//! [`BinaryStreamReader`]) for consuming files larger than memory, and
//! dataset statistics (regenerating Table 1).

pub mod arrival;
pub mod binary;
pub mod config;
pub mod dim_order;
pub mod generator;
pub mod presets;
pub mod stats;
pub mod stream_io;
pub mod text;
pub mod zipf;

pub use arrival::ArrivalProcess;
pub use config::DatasetConfig;
pub use dim_order::DimOrdering;
pub use generator::generate;
pub use presets::{preset, Preset};
pub use stats::DatasetStats;
pub use stream_io::{BinaryStreamReader, TextStreamReader};
pub use zipf::Zipf;
