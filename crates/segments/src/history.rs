//! The history store: segment catalog, compactor, and time-travel
//! overlay queries.
//!
//! [`HistoryStore`] owns one history directory. Two producers feed it:
//!
//! * **WAL horizon GC** — `sssj-store` retires a sealed WAL segment
//!   once a checkpoint covers it and its newest record is behind the
//!   horizon. Instead of deleting, the compactor *validates and
//!   copies* it: the file is read once, every frame is checked by the
//!   WAL's own walker (length bounds, CRC-32C, payload structure,
//!   timestamp order) and counted against the WAL's metadata, and the
//!   validated bytes — never decoded — become the body of an immutable
//!   record segment. The catalog's reader re-validates the published
//!   file (container CRC) and then lets it go: it keeps only the index
//!   fields, and backfill re-opens the file to decode it, so the
//!   archive's records are never resident. Then the manifest is
//!   published, and only *then* is the WAL file removed. A segment
//!   that fails a check is refused and stays in the WAL. The crash
//!   argument does not care how the body was produced, only about the
//!   order publish → catalog → unlink, which is unchanged: a crash at
//!   any point leaves the records in at least one of the two homes,
//!   never neither.
//! * **Graph expiry** — edges the live [`sssj_graph::SimilarityGraph`]
//!   drops at `now − τ` are queued here and flushed as a sorted,
//!   bloom-indexed edge segment right before every checkpoint publish
//!   (after the WAL sync), keeping the pending queue inside the
//!   durability boundary: anything lost with the process is
//!   reconstructed by WAL replay plus checkpoint-aux re-expiry.
//!
//! Time-travel queries ([`HistoryHandle::neighbors_at`] and friends)
//! overlay three layers — the live graph's still-resident window, the
//! in-memory pending queue, and every overlapping edge segment — then
//! dedup on exact `(neighbor, sim-bits, t-bits)` identity, which is
//! what makes crash-window double-capture harmless.

use std::collections::{BTreeSet, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use sssj_graph::{ExpiredEdge, GraphHandle};
use sssj_metrics::registry::{Counter, Gauge, Recorder, Registry};
use sssj_store::wal::SealedSegment;
use sssj_store::RetiredSegment;
use sssj_types::StreamRecord;

use crate::manifest::{Manifest, ManifestEntry, SegmentKind};
use crate::segment::{
    write_edge_segment, write_record_segment, EdgeRow, EdgeSegmentReader, RecordSegmentReader,
};

/// The historical tier's registry handles, resolved once. Counters for
/// the two compactor producers, gauges tracking the published catalog,
/// and a recorder for how many edge segments each time-travel query
/// actually touches (its effective fan-in).
struct HistoryMetrics {
    compactions: &'static Counter,
    flushes: &'static Counter,
    segments: &'static Gauge,
    bytes: &'static Gauge,
    scan_depth: &'static Recorder,
    compaction_seconds: &'static Recorder,
}

fn history_metrics() -> &'static HistoryMetrics {
    static M: std::sync::OnceLock<HistoryMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let reg = Registry::global();
        HistoryMetrics {
            compactions: reg.counter(
                "sssj_segments_compactions_total",
                "retired WAL segments compacted into record segments",
            ),
            flushes: reg.counter(
                "sssj_segments_edge_flushes_total",
                "expired-edge queue flushes published as edge segments",
            ),
            segments: reg.gauge(
                "sssj_segments_count",
                "published segments (record + edge) in the catalog",
            ),
            bytes: reg.gauge(
                "sssj_segments_bytes",
                "payload bytes across all published segment data files",
            ),
            scan_depth: reg.recorder(
                "sssj_segments_scan_depth",
                "edge segments overlapping a time-travel query's window",
            ),
            compaction_seconds: reg.recorder(
                "sssj_segments_compaction_seconds",
                "wall time of one WAL-segment compaction or edge-queue flush",
            ),
        }
    })
}

/// What `stats` reports about the historical tier.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistoryBoundary {
    /// Oldest timestamp still answerable from any segment or the
    /// pending queue — the history floor. `None` while empty.
    pub oldest_t: Option<f64>,
    /// Published segments (record + edge).
    pub segments: u64,
}

fn scan_err(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// The mutable store behind [`HistoryHandle`].
pub struct HistoryStore {
    dir: PathBuf,
    fsync: bool,
    edges: Vec<EdgeSegmentReader>,
    records: Vec<RecordSegmentReader>,
    pending: Vec<ExpiredEdge>,
    next_edge_seq: u64,
    compactions: u64,
    flushes: u64,
    /// Fail-injection countdown: each filesystem mutation decrements;
    /// at zero the mutation fails with an injected error. Tests drive
    /// crash points with it.
    fail_after: Option<u64>,
}

impl HistoryStore {
    /// Opens (or creates) the history directory: loads the manifest,
    /// opens every cataloged segment (corruption there is a hard
    /// error — published data must not silently vanish), then scans the
    /// directory and *adopts* valid segments a crash published without
    /// cataloging. Stray `.tmp` and index-less files are ignored.
    pub fn open(dir: &Path) -> io::Result<HistoryStore> {
        fs::create_dir_all(dir)?;
        let manifest = Manifest::load(dir)?.unwrap_or_default();
        let mut store = HistoryStore {
            dir: dir.to_path_buf(),
            fsync: false,
            edges: Vec::new(),
            records: Vec::new(),
            pending: Vec::new(),
            next_edge_seq: manifest.next_edge_seq,
            compactions: 0,
            flushes: 0,
            fail_after: None,
        };
        let mut seen_rec = BTreeSet::new();
        let mut seen_edge = BTreeSet::new();
        for e in &manifest.entries {
            match e.kind {
                SegmentKind::Records => {
                    store.records.push(RecordSegmentReader::open(dir, e.seq)?);
                    seen_rec.insert(e.seq);
                }
                SegmentKind::Edges => {
                    store.edges.push(EdgeSegmentReader::open(dir, e.seq)?);
                    seen_edge.insert(e.seq);
                }
            }
        }
        // Adoption scan: a crash between segment publish and manifest
        // flip leaves valid-but-uncataloged pairs. Uncataloged files
        // that fail validation are crash debris and are skipped.
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".idx") else {
                continue;
            };
            let (kind, hex) = if let Some(h) = stem.strip_prefix("rec-") {
                (SegmentKind::Records, h)
            } else if let Some(h) = stem.strip_prefix("edg-") {
                (SegmentKind::Edges, h)
            } else {
                continue;
            };
            let Ok(seq) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            match kind {
                SegmentKind::Records if !seen_rec.contains(&seq) => {
                    if let Ok(seg) = RecordSegmentReader::open(dir, seq) {
                        store.records.push(seg);
                        seen_rec.insert(seq);
                    }
                }
                SegmentKind::Edges if !seen_edge.contains(&seq) => {
                    if let Ok(seg) = EdgeSegmentReader::open(dir, seq) {
                        store.next_edge_seq = store.next_edge_seq.max(seq + 1);
                        store.edges.push(seg);
                        seen_edge.insert(seq);
                    }
                }
                _ => {}
            }
        }
        store.records.sort_by_key(|s| s.first_seq);
        store.edges.sort_by_key(|s| s.seq);
        store.publish_catalog_gauges();
        Ok(store)
    }

    /// Refreshes the catalog gauges after any membership change. Gauges
    /// describe *this* store's catalog; with several history dirs open
    /// in one process the last publisher wins, which is fine for the
    /// single-store serving topology the gauges exist for.
    fn publish_catalog_gauges(&self) {
        let m = history_metrics();
        m.segments
            .set((self.records.len() + self.edges.len()) as i64);
        let bytes: u64 = self
            .records
            .iter()
            .map(|s| s.data_bytes())
            .chain(self.edges.iter().map(|s| s.data_bytes()))
            .sum();
        m.bytes.set(bytes as i64);
    }

    /// One fail-injection step, charged before every filesystem
    /// mutation.
    fn step(&mut self) -> io::Result<()> {
        if let Some(n) = &mut self.fail_after {
            if *n == 0 {
                return Err(io::Error::other("injected compaction failure"));
            }
            *n -= 1;
        }
        Ok(())
    }

    fn manifest(&self) -> Manifest {
        let mut entries: Vec<ManifestEntry> = self
            .records
            .iter()
            .map(|s| ManifestEntry {
                kind: SegmentKind::Records,
                seq: s.first_seq,
                count: s.records,
                min_t: s.min_t,
                max_t: s.max_t,
            })
            .collect();
        entries.extend(self.edges.iter().map(|s| ManifestEntry {
            kind: SegmentKind::Edges,
            seq: s.seq,
            count: s.rows,
            min_t: s.min_t,
            max_t: s.max_t,
        }));
        Manifest {
            next_edge_seq: self.next_edge_seq,
            entries,
        }
    }

    /// Queues expired edges for the next flush, deduplicating exact
    /// `(left, right, sim-bits, t-bits)` repeats (crash-window
    /// re-captures) against the queue itself.
    pub fn push_expired(&mut self, mut edges: Vec<ExpiredEdge>) {
        if edges.is_empty() {
            return;
        }
        self.pending.append(&mut edges);
        self.pending.sort_by(|a, b| {
            (a.left, a.right)
                .cmp(&(b.left, b.right))
                .then(a.t.total_cmp(&b.t))
                .then(a.similarity.total_cmp(&b.similarity))
        });
        self.pending.dedup_by(|a, b| {
            a.left == b.left
                && a.right == b.right
                && a.similarity.to_bits() == b.similarity.to_bits()
                && a.t.to_bits() == b.t.to_bits()
        });
    }

    /// Flushes the pending edge queue as one segment and catalogs it.
    /// On failure the queue is retained and the *same* sequence number
    /// is reused next time — publication is an idempotent overwrite.
    pub fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let seq = self.next_edge_seq;
        let _span = sssj_metrics::trace::span_with(
            sssj_metrics::trace::Stage::Compaction,
            seq,
            self.pending.len() as u64,
        );
        self.step()?;
        write_edge_segment(&self.dir, seq, &self.pending, self.fsync)?;
        self.step()?;
        let seg = EdgeSegmentReader::open(&self.dir, seq)?;
        self.edges.push(seg);
        self.next_edge_seq = seq + 1;
        let published = self.manifest().write(&self.dir, self.fsync);
        if published.is_err() {
            // Roll the catalog state back; the adoption scan will pick
            // the orphan pair up after a real crash.
            self.edges.pop();
            self.next_edge_seq = seq;
            return published;
        }
        self.pending.clear();
        self.flushes += 1;
        let m = history_metrics();
        m.flushes.inc();
        m.compaction_seconds.record_duration(started.elapsed());
        self.publish_catalog_gauges();
        Ok(())
    }

    /// Compacts one retired WAL segment into a record segment by
    /// *validate-and-copy*, then — only after the manifest flip —
    /// deletes the WAL file. The sealed file is read once and every
    /// frame checked ([`SealedSegment::read`]: length bounds, CRC-32C,
    /// payload structure, timestamp order) plus the record count
    /// against the WAL's metadata; a segment failing any of it is
    /// refused and stays in the WAL. The validated bytes become the
    /// record segment's body as they are. Re-runs after a crash in any
    /// window are idempotent.
    pub fn compact_wal_segment(&mut self, seg: &RetiredSegment) -> io::Result<()> {
        let started = Instant::now();
        let _span = sssj_metrics::trace::span_with(
            sssj_metrics::trace::Stage::Compaction,
            seg.first_seq,
            seg.records,
        );
        let count_mismatch = |home: &str, holds: u64| {
            scan_err(format!(
                "{}: WAL metadata claims {} records, {home} holds {holds}",
                seg.path.display(),
                seg.records,
            ))
        };
        match self.records.iter().find(|r| r.first_seq == seg.first_seq) {
            // Re-retire after a crash between manifest flip and WAL
            // delete: the archive must really hold this segment before
            // the only other copy goes.
            Some(archived) if archived.records != seg.records => {
                return Err(count_mismatch("its record segment", archived.records));
            }
            Some(_) => {}
            None => {
                let sealed = SealedSegment::read(&seg.path)?;
                if sealed.meta.records != seg.records {
                    return Err(count_mismatch("the segment", sealed.meta.records));
                }
                self.step()?;
                write_record_segment(&self.dir, &sealed, self.fsync)?;
                self.step()?;
                let reader = RecordSegmentReader::open(&self.dir, seg.first_seq)?;
                self.records.push(reader);
                self.records.sort_by_key(|s| s.first_seq);
                let published = self.manifest().write(&self.dir, self.fsync);
                if published.is_err() {
                    self.records.retain(|r| r.first_seq != seg.first_seq);
                    return published;
                }
            }
        }
        // Source removal comes last; a crash before this line merely
        // leaves the WAL segment for an idempotent re-retire.
        self.step()?;
        fs::remove_file(&seg.path)?;
        self.compactions += 1;
        let m = history_metrics();
        m.compactions.inc();
        m.compaction_seconds.record_duration(started.elapsed());
        self.publish_catalog_gauges();
        Ok(())
    }

    /// Appends every historical edge of `node` with `t ∈ [lo, hi]` —
    /// pending queue first, then overlapping segments.
    fn history_edges(&self, node: u64, lo: f64, hi: f64, out: &mut Vec<EdgeRow>) {
        for e in &self.pending {
            if e.t < lo || e.t > hi {
                continue;
            }
            let neighbor = if e.left == node {
                e.right
            } else if e.right == node {
                e.left
            } else {
                continue;
            };
            out.push(EdgeRow {
                node,
                neighbor,
                similarity: e.similarity,
                t: e.t,
            });
        }
        let depth = self.edges.iter().filter(|s| s.overlaps(lo, hi)).count();
        history_metrics().scan_depth.record(depth as f64);
        for seg in &self.edges {
            seg.edges_of(node, lo, hi, out);
        }
    }

    fn boundary(&self) -> HistoryBoundary {
        let mut oldest = f64::INFINITY;
        for s in &self.records {
            if s.records > 0 {
                oldest = oldest.min(s.min_t);
            }
        }
        for s in &self.edges {
            if s.rows > 0 {
                oldest = oldest.min(s.min_t);
            }
        }
        for e in &self.pending {
            oldest = oldest.min(e.t);
        }
        HistoryBoundary {
            oldest_t: oldest.is_finite().then_some(oldest),
            segments: (self.records.len() + self.edges.len()) as u64,
        }
    }

    /// Decodes every archived record with `t ∈ [lo, hi]`, in stream
    /// order (segments are sorted by first sequence number).
    fn records_in_range(&self, lo: f64, hi: f64) -> io::Result<Vec<StreamRecord>> {
        let mut out = Vec::new();
        for seg in &self.records {
            if !seg.overlaps(lo, hi) {
                continue;
            }
            for rec in seg.decode_all()? {
                let t = rec.t.seconds();
                if t >= lo && t <= hi {
                    out.push(rec);
                }
            }
        }
        Ok(out)
    }
}

/// Cloneable, lock-guarded handle to one [`HistoryStore`] — the
/// compactor sink, the query layers, and the CLI all share it.
#[derive(Clone)]
pub struct HistoryHandle {
    store: Arc<Mutex<HistoryStore>>,
}

impl HistoryHandle {
    /// Opens (or creates) the history directory.
    pub fn open(dir: &Path) -> io::Result<HistoryHandle> {
        Ok(HistoryHandle {
            store: Arc::new(Mutex::new(HistoryStore::open(dir)?)),
        })
    }

    fn lock(&self) -> MutexGuard<'_, HistoryStore> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues expired edges for the next flush.
    pub fn push_expired(&self, edges: Vec<ExpiredEdge>) {
        self.lock().push_expired(edges);
    }

    /// Flushes the pending edge queue as one published segment.
    pub fn flush_pending(&self) -> io::Result<()> {
        self.lock().flush_pending()
    }

    /// Compacts (and then deletes) one retired WAL segment.
    pub fn compact_wal_segment(&self, seg: &RetiredSegment) -> io::Result<()> {
        self.lock().compact_wal_segment(seg)
    }

    /// Turns fsync on/off for segment publication (mirrors the durable
    /// store's `fsync` option).
    pub fn set_fsync(&self, fsync: bool) {
        self.lock().fsync = fsync;
    }

    /// Arms the fail-injection countdown (`None` disarms): each
    /// filesystem mutation inside the store consumes one step; at zero
    /// the mutation fails. Crash-injection tests drive every
    /// compaction point with it.
    pub fn set_fail_after(&self, steps: Option<u64>) {
        self.lock().fail_after = steps;
    }

    /// `(WAL segments compacted, edge flushes published)` so far.
    pub fn progress(&self) -> (u64, u64) {
        let s = self.lock();
        (s.compactions, s.flushes)
    }

    /// The tier's reporting boundary: oldest queryable time + segment
    /// count.
    pub fn boundary(&self) -> HistoryBoundary {
        self.lock().boundary()
    }

    /// Archived records with `t ∈ [lo, hi]` (backfill's input).
    pub fn records_in_range(&self, lo: f64, hi: f64) -> io::Result<Vec<StreamRecord>> {
        self.lock().records_in_range(lo, hi)
    }

    /// Drains freshly expired edges out of the live graph into the
    /// pending queue, so overlay queries never miss the gap between an
    /// expiry and the next checkpoint flush.
    fn absorb_live(&self, live: Option<&GraphHandle>) {
        if let Some(g) = live {
            let drained = g.take_expired();
            if !drained.is_empty() {
                self.lock().push_expired(drained);
            }
        }
    }

    /// All edges of `node` visible at time `t` under `horizon` — live
    /// window overlaid with history, deduplicated on exact
    /// `(neighbor, sim-bits, t-bits)` identity, sorted by
    /// `(neighbor, t)`.
    pub fn edges_at(
        &self,
        live: Option<&GraphHandle>,
        node: u64,
        t: f64,
        horizon: f64,
    ) -> Vec<EdgeRow> {
        let lo = t - horizon;
        let hi = t;
        self.absorb_live(live);
        let mut all: Vec<EdgeRow> = Vec::new();
        if let Some(g) = live {
            for e in g.neighbors_in_window(node, lo, hi) {
                all.push(EdgeRow {
                    node,
                    neighbor: e.neighbor,
                    similarity: e.similarity,
                    t: e.t,
                });
            }
        }
        self.lock().history_edges(node, lo, hi, &mut all);
        all.sort_by(|a, b| {
            a.neighbor
                .cmp(&b.neighbor)
                .then(a.t.total_cmp(&b.t))
                .then(a.similarity.total_cmp(&b.similarity))
        });
        all.dedup_by(|a, b| {
            a.neighbor == b.neighbor
                && a.similarity.to_bits() == b.similarity.to_bits()
                && a.t.to_bits() == b.t.to_bits()
        });
        all
    }

    /// `node`'s neighbors as of time `t`: edges delivered in
    /// `[t − horizon, t]`, sorted by neighbor id.
    pub fn neighbors_at(
        &self,
        live: Option<&GraphHandle>,
        node: u64,
        t: f64,
        horizon: f64,
    ) -> Vec<EdgeRow> {
        self.edges_at(live, node, t, horizon)
    }

    /// `node`'s top-k neighbors as of time `t` — similarity
    /// descending, neighbor id ascending on ties (the live graph's
    /// ordering contract).
    pub fn topk_at(
        &self,
        live: Option<&GraphHandle>,
        node: u64,
        k: usize,
        t: f64,
        horizon: f64,
    ) -> Vec<EdgeRow> {
        let mut edges = self.edges_at(live, node, t, horizon);
        edges.sort_by(|a, b| {
            b.similarity
                .total_cmp(&a.similarity)
                .then(a.neighbor.cmp(&b.neighbor))
        });
        edges.truncate(k);
        edges
    }

    /// The connected component containing `node` as of time `t`:
    /// `(smallest member id, size)`, or `None` when `node` had no edges
    /// then. BFS over the overlay, one [`Self::edges_at`] per frontier
    /// node.
    pub fn component_at(
        &self,
        live: Option<&GraphHandle>,
        node: u64,
        t: f64,
        horizon: f64,
    ) -> Option<(u64, u64)> {
        if self.edges_at(live, node, t, horizon).is_empty() {
            return None;
        }
        let mut visited = BTreeSet::new();
        visited.insert(node);
        let mut frontier = VecDeque::from([node]);
        while let Some(n) = frontier.pop_front() {
            for e in self.edges_at(live, n, t, horizon) {
                if visited.insert(e.neighbor) {
                    frontier.push_back(e.neighbor);
                }
            }
        }
        let root = *visited.iter().next().expect("component holds the seed");
        Some((root, visited.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sssj-history-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn edge(l: u64, r: u64, sim: f64, t: f64) -> ExpiredEdge {
        ExpiredEdge {
            left: l,
            right: r,
            similarity: sim,
            t,
        }
    }

    #[test]
    fn flush_publishes_and_reopen_recovers_the_catalog() {
        let dir = tdir("flush");
        let h = HistoryHandle::open(&dir).unwrap();
        h.push_expired(vec![edge(1, 2, 0.9, 5.0), edge(2, 3, 0.8, 6.0)]);
        // Pending edges answer queries even before any flush.
        assert_eq!(h.neighbors_at(None, 2, 7.0, 10.0).len(), 2);
        h.flush_pending().unwrap();
        assert_eq!(h.boundary().segments, 1);

        let h2 = HistoryHandle::open(&dir).unwrap();
        let n = h2.neighbors_at(None, 2, 7.0, 10.0);
        assert_eq!(n.len(), 2);
        assert_eq!(n[0].neighbor, 1);
        assert_eq!(n[1].neighbor, 3);
        assert_eq!(h2.boundary().oldest_t, Some(5.0));
        // Horizon clips: at t=20 with τ=10, both edges are out of range.
        assert!(h2.neighbors_at(None, 2, 20.0, 10.0).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_captures_collapse() {
        let dir = tdir("dedup");
        let h = HistoryHandle::open(&dir).unwrap();
        h.push_expired(vec![edge(1, 2, 0.9, 5.0)]);
        h.flush_pending().unwrap();
        // The same edge re-captured after a simulated crash/replay.
        h.push_expired(vec![edge(1, 2, 0.9, 5.0)]);
        h.flush_pending().unwrap();
        assert_eq!(h.neighbors_at(None, 1, 6.0, 10.0).len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn component_walks_across_segments() {
        let dir = tdir("comp");
        let h = HistoryHandle::open(&dir).unwrap();
        h.push_expired(vec![edge(1, 2, 0.9, 5.0)]);
        h.flush_pending().unwrap();
        h.push_expired(vec![edge(2, 3, 0.8, 6.0), edge(7, 8, 0.7, 6.5)]);
        h.flush_pending().unwrap();
        assert_eq!(h.component_at(None, 3, 7.0, 10.0), Some((1, 3)));
        assert_eq!(h.component_at(None, 8, 7.0, 10.0), Some((7, 2)));
        assert_eq!(h.component_at(None, 99, 7.0, 10.0), None);
        // Tight horizon splits the chain.
        assert_eq!(h.component_at(None, 3, 6.5, 1.0), Some((2, 2)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_flush_retains_the_queue_and_retries_cleanly() {
        let dir = tdir("failflush");
        let h = HistoryHandle::open(&dir).unwrap();
        h.push_expired(vec![edge(1, 2, 0.9, 5.0)]);
        h.set_fail_after(Some(0));
        assert!(h.flush_pending().is_err());
        h.set_fail_after(None);
        h.flush_pending().unwrap();
        assert_eq!(h.neighbors_at(None, 1, 6.0, 10.0).len(), 1);
        assert_eq!(h.boundary().segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_is_timed_and_spanned_like_a_compaction() {
        use sssj_metrics::trace::{self, EventKind, Stage};
        let dir = tdir("spanned");
        let h = HistoryHandle::open(&dir).unwrap();
        let timed = history_metrics().compaction_seconds;
        let before = timed.count();
        h.push_expired(vec![
            edge(41, 42, 0.9, 5.0),
            edge(42, 43, 0.8, 6.0),
            edge(43, 44, 0.7, 7.0),
        ]);
        h.flush_pending().unwrap();
        if sssj_metrics::telemetry_enabled() {
            assert!(timed.count() > before);
        }
        if sssj_metrics::trace_enabled() {
            // a = edge-segment seq, b = queued edges.
            let seen = trace::drain_last(usize::MAX).events.into_iter().any(|e| {
                e.stage == Stage::Compaction && e.kind == EventKind::Span && (e.a, e.b) == (0, 3)
            });
            assert!(seen, "edge flush left no segment.compaction span");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adoption_scan_picks_up_uncataloged_segments() {
        let dir = tdir("adopt");
        // Publish a segment pair directly, with no manifest at all —
        // the crash window between file publish and catalog flip.
        write_edge_segment(&dir, 4, &[edge(1, 2, 0.9, 5.0)], false).unwrap();
        let h = HistoryHandle::open(&dir).unwrap();
        assert_eq!(h.boundary().segments, 1);
        assert_eq!(h.neighbors_at(None, 1, 6.0, 10.0).len(), 1);
        // The adopted seq advances the counter past the orphan.
        h.push_expired(vec![edge(3, 4, 0.5, 6.0)]);
        h.flush_pending().unwrap();
        let reopened = HistoryHandle::open(&dir).unwrap();
        assert_eq!(reopened.boundary().segments, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
