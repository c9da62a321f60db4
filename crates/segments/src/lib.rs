#![warn(missing_docs)]
//! `sssj-segments` — the historical tier: segment compaction at the
//! WAL's horizon GC, time-travel queries, and backfill.
//!
//! The durable store (`sssj-store`) keeps the join recoverable but
//! *windowed*: once a checkpoint covers a WAL segment whose newest
//! record is behind the horizon τ, the segment — and every similarity
//! edge that expired with it — used to be deleted. This crate turns
//! that deletion point into a **compaction** point. The retired data
//! moves into immutable, CRC-checked, memory-mapped segment pairs (a
//! data file plus a small index), cataloged by an atomically-published
//! `MANIFEST` in the store's own idiom:
//!
//! * **Record segments** preserve the raw stream past the horizon —
//!   the input for *backfill* (re-running a historical range under new
//!   parameters, [`backfill`]). They store WAL frames verbatim, so
//!   archiving one is *validate-and-copy*: one read of the sealed WAL
//!   segment, one pass of the WAL's frame walker over it (every check
//!   recovery makes, no record decoded), and the same bytes written
//!   back out under a segment header. The ingest thread pays about a
//!   `memcpy`, a CRC pass and the create/rename/unlink per segment.
//! * **Edge segments** preserve the expired similarity graph — the
//!   input for *time-travel* queries ([`HistoryHandle::neighbors_at`],
//!   [`HistoryHandle::topk_at`], [`HistoryHandle::component_at`]):
//!   "who was similar to X at time t", answered by overlaying the live
//!   graph's window with every overlapping segment. Rows are sorted,
//!   with per-node runs, a bloom filter over node ids and
//!   `[min_t, max_t]` time fences in the index.
//!
//! Compaction sits **inside the durability boundary**. WAL segments
//! are deleted only after their record segment and the manifest flip
//! are on disk; pending expired edges are flushed after the WAL sync
//! and before each checkpoint publish, so at every crash point the
//! data lives in at least one of {WAL, checkpoint aux, segment} —
//! never in none. Double-capture across a crash is resolved at query
//! time by exact `(neighbor, sim-bits, t-bits)` dedup. Both producers
//! run under `segment.compaction` spans and are timed by
//! `sssj_segments_compaction_seconds`.
//!
//! # Spec integration
//!
//! The `history=<dir>` wrapper stacks on `durable=<dir>` (and `graph`)
//! through the one spec factory:
//!
//! ```no_run
//! sssj_segments::register_spec_builder();
//! let spec: sssj_core::JoinSpec =
//!     "str-l2?theta=0.6&tau=10&durable=/tmp/wal&graph&history=/tmp/hist"
//!         .parse()
//!         .unwrap();
//! let (join, graph, history) = sssj_segments::build_with_handles(&spec).unwrap();
//! # let _ = (join, graph, history);
//! ```
//!
//! The serving layers expose the tier end to end: the net protocol's
//! `QUERY … at=<t>` verb (see `sssj_net::protocol`), the CLI's
//! `sssj graph --query '… at=<t>'` and `sssj backfill`, and the
//! history boundary in `QUERY stats`.

pub mod format;
pub mod history;
pub mod join;
pub mod manifest;
pub mod mapped;
pub mod segment;

use std::cell::RefCell;

use sssj_core::{run_stream, JoinSpec, SpecError, StreamJoin, WrapperSpec};
use sssj_graph::GraphHandle;
use sssj_store::DurableOptions;
use sssj_types::SimilarPair;

pub use history::{HistoryBoundary, HistoryHandle, HistoryStore};
pub use join::HistoryJoin;
pub use mapped::Mapped;
pub use segment::EdgeRow;

thread_local! {
    /// Handles of the most recent history pipeline built on this
    /// thread through the spec hooks (the same park-and-collect idiom
    /// as `sssj_graph::build_with_handle` — `JoinSpec::build`
    /// type-erases its product).
    static LAST_HANDLES: RefCell<Option<(Option<GraphHandle>, HistoryHandle)>> =
        const { RefCell::new(None) };
}

/// Registers the history constructor (plus the store and graph layers
/// it composes) with the [`sssj_core::spec`] factory
/// ([`sssj_core::spec::register`]), so
/// `…&durable=<dir>[&graph]&history=<dir>` specs build a
/// [`HistoryJoin`]. Idempotent.
pub fn register_spec_builder() {
    use sssj_core::spec::{register, Extensions};
    sssj_store::register_spec_builder();
    sssj_graph::register_spec_builder();
    register(Extensions {
        history: Some(|spec, _dir| {
            let join = HistoryJoin::open(spec, DurableOptions::default())?;
            LAST_HANDLES.with(|slot| {
                *slot.borrow_mut() = Some((join.graph_handle(), join.history_handle()));
            });
            Ok(Box::new(join) as Box<dyn StreamJoin>)
        }),
        ..Extensions::NONE
    });
}

/// Builds a `history=`-wrapped spec through the one factory **and**
/// hands back the query handles: the live graph's (when `graph` is in
/// the spec) and the historical tier's. Fails with
/// [`SpecError::Invalid`] when the spec has no `history=` wrapper.
#[allow(clippy::type_complexity)]
pub fn build_with_handles(
    spec: &JoinSpec,
) -> Result<(Box<dyn StreamJoin>, Option<GraphHandle>, HistoryHandle), SpecError> {
    register_spec_builder();
    if !spec
        .wrappers
        .iter()
        .any(|w| matches!(w, WrapperSpec::History(_)))
    {
        return Err(SpecError::Invalid(
            "build_with_handles requires a history-wrapped spec (append &history=<dir>)".into(),
        ));
    }
    LAST_HANDLES.with(|slot| slot.borrow_mut().take());
    let join = spec.build()?;
    let (graph, history) = LAST_HANDLES
        .with(|slot| slot.borrow_mut().take())
        .expect("the history hook stashes handles for every history build");
    Ok((join, graph, history))
}

/// What a [`backfill`] run produced.
#[derive(Clone, Debug)]
pub struct BackfillReport {
    /// Archived records replayed.
    pub records: usize,
    /// Pairs the re-join emitted, in emission order.
    pub pairs: Vec<SimilarPair>,
}

/// Re-joins the archived records with `t ∈ [lo, hi]` under `spec` —
/// e.g. the same history at a lower θ or a different λ. The spec must
/// be *ephemeral* (no `durable=`/`history=` wrappers): backfill is a
/// read-only scan of the tier, never a writer.
pub fn backfill(
    history: &HistoryHandle,
    spec: &JoinSpec,
    lo: f64,
    hi: f64,
) -> Result<BackfillReport, SpecError> {
    if spec
        .wrappers
        .iter()
        .any(|w| matches!(w, WrapperSpec::Durable(_) | WrapperSpec::History(_)))
    {
        return Err(SpecError::Invalid(
            "backfill runs an ephemeral re-join: drop durable=/history= from the spec".into(),
        ));
    }
    let records = history
        .records_in_range(lo, hi)
        .map_err(|e| SpecError::Invalid(format!("reading record segments: {e}")))?;
    let mut join = spec.build()?;
    let pairs = run_stream(join.as_mut(), &records);
    Ok(BackfillReport {
        records: records.len(),
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_core::StreamJoin;
    use sssj_types::{vector::unit_vector, StreamRecord, Timestamp};
    use std::fs;
    use std::path::PathBuf;

    fn tdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("sssj-segments-lib-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(id: u64, t: f64, dim: u32) -> StreamRecord {
        StreamRecord::new(id, Timestamp::new(t), unit_vector(&[(dim, 1.0)]))
    }

    fn history_spec(root: &std::path::Path) -> JoinSpec {
        format!(
            "str-l2?theta=0.6&tau=4&durable={}&graph&history={}",
            root.join("wal").display(),
            root.join("hist").display()
        )
        .parse()
        .unwrap()
    }

    #[test]
    fn build_with_handles_requires_the_wrapper() {
        let spec: JoinSpec = "str-l2?theta=0.6&tau=10".parse().unwrap();
        assert!(matches!(
            build_with_handles(&spec),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn expired_edges_become_time_travel_answers() {
        let root = tdir("travel");
        let spec = history_spec(&root);
        let (mut join, graph, history) = build_with_handles(&spec).unwrap();
        let graph = graph.expect("graph wrapper present");
        let mut out = Vec::new();
        // Two similar records early, then a long quiet gap that expires
        // their edge, then unrelated traffic.
        join.process(&rec(0, 0.0, 7), &mut out);
        join.process(&rec(1, 1.0, 7), &mut out);
        for i in 2..40 {
            join.process(&rec(i, 10.0 + i as f64, 1000 + i as u32), &mut out);
        }
        join.finish(&mut out);
        // Live graph: the 0–1 edge is long gone.
        assert!(graph.neighbors(0, 52.0).is_empty());
        // Time travel to t=2: the edge (delivered at t=1) is visible.
        let then = history.neighbors_at(Some(&graph), 0, 2.0, join_horizon(&spec));
        assert_eq!(then.len(), 1);
        assert_eq!(then[0].neighbor, 1);
        assert_eq!(
            history.component_at(Some(&graph), 1, 2.0, join_horizon(&spec)),
            Some((0, 2))
        );
        // …and before the stream began, nothing existed.
        assert!(history
            .neighbors_at(Some(&graph), 0, -1.0, join_horizon(&spec))
            .is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    fn join_horizon(spec: &JoinSpec) -> f64 {
        spec.horizon()
    }

    #[test]
    fn backfill_rejoins_history_under_new_parameters() {
        let root = tdir("backfill");
        let spec = history_spec(&root);
        let (mut join, _graph, history) = build_with_handles(&spec).unwrap();
        let mut out = Vec::new();
        // A batch of records that pairs at θ=0.6, then enough filler to
        // retire the early WAL segments past the horizon.
        for i in 0..8u64 {
            join.process(&rec(i, i as f64 * 0.5, 7), &mut out);
        }
        for i in 8..12_000u64 {
            join.process(
                &rec(i, 10.0 + i as f64 * 0.01, 1000 + (i % 64) as u32),
                &mut out,
            );
        }
        join.finish(&mut out);
        let (compactions, _) = history.progress();
        assert!(compactions > 0, "horizon GC should have fed the compactor");

        // Re-join the archived prefix under the same θ: pairs among the
        // first 8 records must match what the live run emitted there.
        let refspec: JoinSpec = "str-l2?theta=0.6&tau=4".parse().unwrap();
        let report = backfill(&history, &refspec, 0.0, 3.5).unwrap();
        assert_eq!(report.records, 8);
        let mut live: Vec<(u64, u64)> = out
            .iter()
            .filter(|p| p.left < 8 && p.right < 8)
            .map(|p| (p.left, p.right))
            .collect();
        live.sort_unstable();
        let mut back: Vec<(u64, u64)> = report.pairs.iter().map(|p| (p.left, p.right)).collect();
        back.sort_unstable();
        assert_eq!(live, back);

        // Writers are rejected.
        assert!(backfill(&history, &spec, 0.0, 1.0).is_err());
        let _ = fs::remove_dir_all(&root);
    }
}
