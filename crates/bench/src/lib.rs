#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The experiment harness: reproduces every table and figure of §7.
//!
//! [`Experiments`] owns the (lazily generated, cached) preset datasets and
//! a memo of algorithm runs, so the harness binary can regenerate all
//! tables/figures in one process without re-running shared sweeps. Each
//! `table*`/`fig*` method returns the rendered table and writes a CSV next
//! to it for re-plotting.

pub mod datasets;
pub mod experiments;
pub mod extensions;
pub mod grid;
pub mod runner;

pub use datasets::default_n;
pub use experiments::Experiments;
pub use grid::{LAMBDAS, THETAS};
pub use runner::{run_algorithm, RunOutcome, RunResult};
