#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Exact brute-force baselines.
//!
//! These O(n²) (batch) and O(n·w) (sliding-window) joins are the ground
//! truth every filtered algorithm in the workspace is tested against, and
//! the naive baseline the benchmarks compare with. They have no pruning
//! beyond the time horizon itself, so their output is exact by
//! construction.
//!
//! Beyond the paper's own semantics, two related-work baselines live here:
//!
//! * [`brute_force_stream_model`] — the generalised join under any
//!   [`sssj_types::DecayModel`] (ground truth for the decay extension);
//! * [`brute_force_count_window`] / [`count_window_recall`] — the
//!   count-based window semantics of prior streaming-join work, with a
//!   fidelity measure quantifying why the paper prefers time-based
//!   pruning.

pub mod batch;
pub mod count_window;
pub mod stream;
pub mod stream_model;

pub use batch::brute_force_all_pairs;
pub use count_window::{brute_force_count_window, count_window_recall, WindowFidelity};
pub use stream::brute_force_stream;
pub use stream_model::brute_force_stream_model;
