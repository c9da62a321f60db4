//! [`HistoryJoin`]: the `history=` wrapper — a durable join whose WAL
//! horizon GC feeds the segment compactor instead of the shredder.
//!
//! Composition, from the inside out: the engine (optionally graphed)
//! sits inside [`sssj_store::DurableJoin`]; this wrapper installs a
//! [`sssj_store::GcSink`] that (a) flushes the graph's expired edges
//! to an edge segment right before every checkpoint publish and
//! (b) re-frames each retired WAL segment as a record segment before
//! deleting it. Nothing in the hot ingest path changes — compaction
//! rides the checkpoint cadence the durable store already has.

use std::io;
use std::path::Path;

use sssj_core::{JoinSpec, SpecError, StreamJoin, WrapperSpec};
use sssj_graph::GraphHandle;
use sssj_metrics::JoinStats;
use sssj_store::{DurableJoin, DurableOptions, GcSink, RetiredSegment, StoreError};
use sssj_types::{SimilarPair, StreamRecord};

use crate::history::HistoryHandle;

/// The GC sink that turns WAL retirement into segment compaction.
struct CompactorSink {
    history: HistoryHandle,
    graph: Option<GraphHandle>,
}

impl GcSink for CompactorSink {
    fn retire(&mut self, segment: &RetiredSegment) -> io::Result<()> {
        self.history.compact_wal_segment(segment)
    }

    /// Runs after the WAL sync, before the checkpoint publish: edges
    /// that expired since the last publish were live in the *previous*
    /// checkpoint's aux blob, so a crash right here re-expires and
    /// re-captures them on recovery — the flush is never the only copy
    /// until the publish that follows it lands.
    fn before_publish(&mut self, _watermark: f64) -> io::Result<()> {
        if let Some(g) = &self.graph {
            let drained = g.take_expired();
            if !drained.is_empty() {
                self.history.push_expired(drained);
            }
        }
        self.history.flush_pending()
    }
}

/// A durable (optionally graphed) join with a historical tier hanging
/// off its horizon GC. Built by `…&durable=<dir>&graph&history=<dir>`
/// specs through [`crate::register_spec_builder`].
pub struct HistoryJoin {
    inner: DurableJoin,
    graph: Option<GraphHandle>,
    history: HistoryHandle,
}

impl HistoryJoin {
    /// Opens (or resumes) the pipeline described by `spec`, which must
    /// carry `durable=` and `history=` wrappers. With `graph` present,
    /// expired-edge capture is armed *before* recovery so edges
    /// restored from the checkpoint aux re-expire into the compactor.
    pub fn open(spec: &JoinSpec, opts: DurableOptions) -> Result<HistoryJoin, SpecError> {
        let durable_dir = spec.wrappers.iter().find_map(|w| match w {
            WrapperSpec::Durable(dir) => Some(dir.clone()),
            _ => None,
        });
        let history_dir = spec.wrappers.iter().find_map(|w| match w {
            WrapperSpec::History(dir) => Some(dir.clone()),
            _ => None,
        });
        let (Some(durable_dir), Some(history_dir)) = (durable_dir, history_dir) else {
            return Err(SpecError::Invalid(
                "HistoryJoin needs both durable= and history= wrappers".into(),
            ));
        };
        let has_graph = spec
            .wrappers
            .iter()
            .any(|w| matches!(w, WrapperSpec::Graph));

        let history = HistoryHandle::open(Path::new(&history_dir))
            .map_err(|e| SpecError::Invalid(format!("history dir {history_dir}: {e}")))?;
        history.set_fsync(opts.fsync);

        // Arm the handle stash and expired-edge capture for the graph
        // the durable open is about to build (possibly during replay).
        if has_graph {
            sssj_graph::stash_handle_on_next_build();
            sssj_graph::collect_expired_edges_on_next_build();
        }
        let mut bare = spec.clone();
        bare.wrappers.retain(|w| matches!(w, WrapperSpec::Graph));
        let opened = DurableJoin::open(&bare, Path::new(&durable_dir), opts);
        // Disarm even when the open failed before building the graph.
        let stashed = sssj_graph::take_stashed_handle();
        let mut inner =
            opened.map_err(|e| SpecError::Invalid(format!("durable store {durable_dir}: {e}")))?;
        let graph = if has_graph {
            let handle =
                stashed.expect("the graph hook stashes a handle for every armed graph build");
            // Edges that expired while replay ran are waiting already.
            let drained = handle.take_expired();
            if !drained.is_empty() {
                history.push_expired(drained);
            }
            Some(handle)
        } else {
            None
        };
        inner.set_gc_sink(Box::new(CompactorSink {
            history: history.clone(),
            graph: graph.clone(),
        }));
        Ok(HistoryJoin {
            inner,
            graph,
            history,
        })
    }

    /// The live graph's query handle (present under `…&graph`).
    pub fn graph_handle(&self) -> Option<GraphHandle> {
        self.graph.clone()
    }

    /// The historical tier's query handle.
    pub fn history_handle(&self) -> HistoryHandle {
        self.history.clone()
    }

    /// The engine's replay horizon τ (the time-travel window width).
    pub fn horizon(&self) -> f64 {
        self.inner.horizon()
    }

    /// Forces a checkpoint now (tests drive compaction cadence with
    /// it); delegates to [`DurableJoin::checkpoint`].
    pub fn checkpoint(&mut self, out: &mut Vec<SimilarPair>) -> Result<(), StoreError> {
        self.inner.checkpoint(out)
    }
}

impl StreamJoin for HistoryJoin {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        self.inner.process(record, out);
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        self.inner.finish(out);
    }

    fn stats(&self) -> JoinStats {
        self.inner.stats()
    }

    fn live_postings(&self) -> u64 {
        self.inner.live_postings()
    }

    fn name(&self) -> String {
        format!("history({})", self.inner.name())
    }

    fn resume_point(&self) -> Option<(u64, f64)> {
        self.inner.resume_point()
    }
}
