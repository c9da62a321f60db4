//! The factory's telemetry tap: every pipeline built through
//! [`crate::JoinSpec::build`] is wrapped in a [`TelemetryJoin`] that
//! feeds the process-global [`sssj_metrics::Registry`].
//!
//! The wrapper is the *outermost* layer, added after every spec wrapper,
//! so `sssj_core_records_total` / `sssj_core_pairs_total` count exactly
//! what the application fed in and got back — the invariant the CI
//! serve-smoke asserts against a scraped `METRICS` reply. The per-record
//! cost is two relaxed striped counter bumps (no allocation, preserving
//! the zero-alloc steady-state contract); the engine-shape counters
//! (entries traversed, candidates, full similarities, labeled by engine
//! name) are flushed as deltas only on the cold [`StreamJoin::stats`] /
//! [`StreamJoin::finish`] paths. The wrapper is also where the
//! [`sssj_metrics::trace`] `ingest` span lives — one span per record,
//! carrying the record id and the pair count, inheriting whatever trace
//! id the caller (a net session, the sharded router) parked on the
//! thread. With both `SSSJ_TELEMETRY=off` and `SSSJ_TRACE=off` the
//! factory skips the wrapper entirely.

use std::cell::Cell;

use sssj_metrics::registry::{Counter, Registry};
use sssj_metrics::JoinStats;
use sssj_types::{SimilarPair, StreamRecord};

use crate::algorithm::StreamJoin;

/// Snapshot of the engine-shape counters already flushed to the
/// registry, so repeated `stats()` calls add only deltas.
#[derive(Clone, Copy, Default)]
struct Flushed {
    entries: u64,
    candidates: u64,
    full_sims: u64,
}

/// The outermost pipeline wrapper: counts records in and pairs out on
/// the hot path, engine-shape counters on the cold paths. Transparent
/// otherwise — `name()`, `stats()`, `resume_point()` all forward.
pub struct TelemetryJoin {
    inner: Box<dyn StreamJoin>,
    records: &'static Counter,
    pairs: &'static Counter,
    entries: &'static Counter,
    candidates: &'static Counter,
    full_sims: &'static Counter,
    flushed: Cell<Flushed>,
}

impl TelemetryJoin {
    /// Wraps `inner`, resolving its metric handles once. When both
    /// telemetry (`SSSJ_TELEMETRY=off`) and tracing (`SSSJ_TRACE=off`)
    /// are disabled the inner join is returned unwrapped — record-path
    /// cost is exactly zero. (With telemetry off but tracing on the
    /// wrapper stays: its counters are individually gated, and the
    /// `ingest` span needs the tap.)
    pub fn wrap(inner: Box<dyn StreamJoin>) -> Box<dyn StreamJoin> {
        let reg = Registry::global();
        if !sssj_metrics::telemetry_enabled() && !sssj_metrics::trace_enabled() {
            return inner;
        }
        let engine = inner.name();
        let engine_label: &[(&str, &str)] = &[("engine", engine.as_str())];
        Box::new(TelemetryJoin {
            records: reg.counter("sssj_core_records_total", "records ingested"),
            pairs: reg.counter("sssj_core_pairs_total", "similar pairs emitted"),
            entries: reg.counter_with(
                "sssj_core_entries_traversed_total",
                "posting entries examined during candidate generation",
                engine_label,
            ),
            candidates: reg.counter_with(
                "sssj_core_candidates_total",
                "vectors admitted to the candidate accumulator",
                engine_label,
            ),
            full_sims: reg.counter_with(
                "sssj_core_full_sims_total",
                "exact residual dot products (candidates that survived pruning)",
                engine_label,
            ),
            flushed: Cell::new(Flushed::default()),
            inner,
        })
    }

    fn flush_shape(&self, s: &JoinStats) {
        let prev = self.flushed.get();
        self.entries
            .add(s.entries_traversed.saturating_sub(prev.entries));
        self.candidates
            .add(s.candidates.saturating_sub(prev.candidates));
        self.full_sims
            .add(s.full_sims.saturating_sub(prev.full_sims));
        self.flushed.set(Flushed {
            entries: s.entries_traversed,
            candidates: s.candidates,
            full_sims: s.full_sims,
        });
    }
}

impl StreamJoin for TelemetryJoin {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        let before = out.len();
        let mut span =
            sssj_metrics::trace::span_with(sssj_metrics::trace::Stage::Ingest, record.id, 0);
        self.inner.process(record, out);
        span.set_args(record.id, (out.len() - before) as u64);
        drop(span);
        self.records.inc();
        self.pairs.add((out.len() - before) as u64);
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        let before = out.len();
        self.inner.finish(out);
        self.pairs.add((out.len() - before) as u64);
        self.flush_shape(&self.inner.stats());
    }

    fn stats(&self) -> JoinStats {
        let s = self.inner.stats();
        self.flush_shape(&s);
        s
    }

    fn live_postings(&self) -> u64 {
        self.inner.live_postings()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn resume_point(&self) -> Option<(u64, f64)> {
        self.inner.resume_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JoinSpec;
    use sssj_types::{vector::unit_vector, Timestamp};

    #[test]
    fn factory_counts_records_and_pairs_exactly() {
        let reg = Registry::global();
        if !sssj_metrics::telemetry_enabled() {
            return; // off lane, known once `global()` ran: nothing counts
        }
        let records = reg.counter("sssj_core_records_total", "records ingested");
        let pairs = reg.counter("sssj_core_pairs_total", "similar pairs emitted");
        let (r0, p0) = (records.value(), pairs.value());

        let spec: JoinSpec = "str-l2?theta=0.7&lambda=0.1".parse().unwrap();
        let mut join = spec.build().unwrap();
        let mut out = Vec::new();
        for (id, t) in [(0u64, 0.0), (1, 1.0), (2, 90.0)] {
            join.process(
                &StreamRecord::new(id, Timestamp::new(t), unit_vector(&[(7, 1.0)])),
                &mut out,
            );
        }
        join.finish(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(records.value() - r0, 3);
        assert_eq!(pairs.value() - p0, 1);
    }

    #[test]
    fn engine_shape_counters_flush_as_deltas() {
        let reg = Registry::global();
        if !sssj_metrics::telemetry_enabled() {
            return; // off lane, known once `global()` ran: nothing counts
        }
        let spec: JoinSpec = "str-l2?theta=0.7&lambda=0.1".parse().unwrap();
        let mut join = spec.build().unwrap();
        let entries = reg.counter_with(
            "sssj_core_entries_traversed_total",
            "posting entries examined during candidate generation",
            &[("engine", &join.name())],
        );
        let e0 = entries.value();
        let mut out = Vec::new();
        for (id, t) in [(0u64, 0.0), (1, 1.0), (2, 1.5)] {
            join.process(
                &StreamRecord::new(id, Timestamp::new(t), unit_vector(&[(7, 1.0)])),
                &mut out,
            );
        }
        let s1 = join.stats();
        assert_eq!(entries.value() - e0, s1.entries_traversed);
        // A second stats() call flushes nothing new.
        let s2 = join.stats();
        assert_eq!(s2, s1);
        assert_eq!(entries.value() - e0, s1.entries_traversed);
    }

    #[test]
    fn wrapper_is_transparent() {
        let spec: JoinSpec = "str-l2?theta=0.7&lambda=0.1".parse().unwrap();
        let join = spec.build().unwrap();
        assert_eq!(join.name(), "STR-L2");
        assert_eq!(join.resume_point(), None);
    }
}
