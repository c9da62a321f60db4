#![warn(missing_docs)]
//! `sssj-store` — durability for the streaming similarity self-join:
//! segmented write-ahead log, checkpoint manager, crash recovery.
//!
//! A production deployment of the join (the ROADMAP's heavy-traffic
//! north star) cannot lose its sliding-window state on restart: a
//! crashed server would silently drop every in-horizon record and
//! re-emit nothing. This crate bolts checkpoint-plus-log — the standard
//! recipe for recoverable stateful dataflow — onto the existing engines
//! without rewriting them, in the same wrap-don't-rewrite shape the
//! spec-factory hooks already use for LSH and sharding.
//!
//! Three pieces:
//!
//! * [`wal`] — a **segmented, CRC-framed WAL** of the ingested record
//!   stream. One frame per record, fixed header + CRC-32C; one segment
//!   file per N records; *horizon-aware GC*: a segment whose newest
//!   record is older than `now − τ` can never pair again and is deleted
//!   once a checkpoint covers it. Torn tails self-truncate at the last
//!   good frame.
//! * [`checkpoint`] — periodic **checkpoints** (engine aux state + the
//!   recently-emitted-pair suppression set) published by atomically
//!   renaming `MANIFEST`; see the module docs for both file formats.
//! * [`durable`] — [`DurableJoin`], the [`sssj_core::StreamJoin`]
//!   wrapper gluing the two under any
//!   [`sssj_core::Checkpointable`] engine (STR, MB, generic decay, and
//!   sharded over those — the sharded driver checkpoints per shard at a
//!   batch boundary), and [`recover`], the crash-recovery entry point.
//!
//! # Usage
//!
//! Everything is reachable from the one spec grammar — append
//! `durable=<dir>` to any supported spec:
//!
//! ```text
//! str-l2?theta=0.7&tau=10&durable=/var/sssj
//! sharded?theta=0.6&lambda=0.1&shards=4&inner=str-l2&durable=/var/sssj
//! ```
//!
//! [`register_spec_builder`] registers the constructor
//! ([`sssj_core::spec::register`]) that
//! [`sssj_core::spec::JoinSpec::build`] calls; building such a spec *creates*
//! the store, or *resumes* it when the directory already holds a
//! manifest (the replay tail surfaces on the first `process` call, and
//! [`sssj_core::StreamJoin::resume_point`] tells the caller how many
//! records the store already ingested). The CLI exposes the same path as
//! `sssj run --spec '…durable=…'`, `sssj serve --durable <dir>` and
//! `sssj recover <dir>`; the net protocol resumes a session whenever a
//! `CONFIG spec=…durable=…` names a directory with a manifest.
//!
//! # Recovery semantics
//!
//! Output is **at-least-once with checkpoint-bounded duplicates, and
//! set-complete**: the union of pre-crash output and recovered output
//! equals the uninterrupted run's pair set exactly; no pair emitted
//! before the last checkpoint is ever emitted twice (the suppression
//! set), and only pairs emitted in the window between the last
//! checkpoint and the crash can be re-emitted. The argument — resting
//! on the engines' *set-determinism* (the pair set depends on the
//! record set alone, not on window phase, shard routing or batch
//! timing) — is spelled out in [`durable`]'s module docs and enforced
//! by `tests/crash_recovery.rs` for every engine × index variant,
//! mid-frame WAL truncation included.

pub mod checkpoint;
pub mod crc;
pub mod durable;
pub mod wal;

use std::io;

pub use checkpoint::Checkpoint;
pub use durable::{recover, DurableJoin, DurableOptions, Recovered};
pub use wal::{DeleteSink, GcSink, RetiredSegment, Wal};

/// Errors from the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// I/O failure.
    Io(io::Error),
    /// Structural corruption in a store file (self-healing where safe:
    /// torn WAL tails truncate, corrupt manifests fall back to the
    /// checkpoint scan; this error means nothing usable was left).
    Corrupt(String),
    /// The inner spec failed to parse, validate or build.
    Spec(sssj_core::SpecError),
    /// The directory belongs to a different pipeline.
    SpecMismatch {
        /// The spec the directory was created with.
        stored: String,
        /// The spec this open requested.
        requested: String,
    },
    /// Another live session holds the store's exclusive `LOCK`.
    Locked {
        /// The pid recorded in the lock file.
        pid: u32,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Spec(e) => write!(f, "spec: {e}"),
            StoreError::SpecMismatch { stored, requested } => write!(
                f,
                "store was created for spec {stored:?} but {requested:?} was requested \
                 (point durable= at a fresh directory to change pipelines)"
            ),
            StoreError::Locked { pid } => write!(
                f,
                "store is locked by running process {pid}: two sessions writing one \
                 store would corrupt it; stop the other session first (a LOCK left \
                 by a dead process is detected and reclaimed automatically)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Registers the durable-wrapper constructor with the
/// [`sssj_core::spec`] factory ([`sssj_core::spec::register`]), so
/// `…&durable=<dir>` specs build (and resume) a [`DurableJoin`].
/// Idempotent; every workspace binary calls it at startup (via
/// `sssj_net::register_spec_builders`).
pub fn register_spec_builder() {
    use sssj_core::spec::{register, Extensions};
    register(Extensions {
        durable: Some(|spec, dir| {
            DurableJoin::open(spec, std::path::Path::new(dir), DurableOptions::default())
                .map(|j| Box::new(j) as Box<dyn sssj_core::StreamJoin>)
                .map_err(|e| sssj_core::SpecError::Invalid(format!("durable store {dir}: {e}")))
        }),
        ..Extensions::NONE
    });
}
