//! The stream-side wiring: [`GraphHandle`] (the shared, queryable
//! graph), [`GraphJoin`] (the [`StreamJoin`] tap feeding it), and
//! [`GraphedEngine`] (the [`Checkpointable`] variant whose edges ride
//! the durable checkpoint).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use sssj_core::{Checkpointable, PairSink, SinkedJoin, StreamJoin};
use sssj_metrics::registry::{Counter, Gauge, Recorder, Registry};
use sssj_metrics::JoinStats;
use sssj_types::{SimilarPair, StreamRecord};

use crate::graph::{Edge, ExpiredEdge, GraphStats, SimilarityGraph};
use crate::snapshot::GraphSnapshot;

/// Graph-tier registry handles, resolved once per process.
struct GraphMetrics {
    publishes: &'static Counter,
    touched_nodes: &'static Recorder,
    staleness_ms: &'static Gauge,
}

fn graph_metrics() -> &'static GraphMetrics {
    static M: OnceLock<GraphMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = Registry::global();
        GraphMetrics {
            publishes: reg.counter(
                "sssj_graph_snapshot_publishes_total",
                "graph snapshot publications (generation bumps)",
            ),
            touched_nodes: reg.recorder(
                "sssj_graph_touched_nodes",
                "nodes the incremental capture copied per publish (delta size)",
            ),
            staleness_ms: reg.gauge(
                "sssj_graph_staleness_lag_ms",
                "stream-time gap between the write side and the published watermark, in milliseconds (0 when clean)",
            ),
        }
    })
}

/// Publish cadence: a snapshot is republished once the unpublished
/// backlog reaches 1/`PUBLISH_FANOUT` of the live edge count (min
/// [`PUBLISH_MIN_BACKLOG`]). The cadence bounds how far a wait-free
/// reader's watermark may trail the ingest frontier (`max(live/8, 64)`
/// deliveries), and it amortizes the publish: only touched blocks are
/// re-copied, but every capture also clones and prunes the whole
/// adjacency map (O(stored nodes), see [`GraphSnapshot::capture_from`]).
const PUBLISH_FANOUT: u64 = 8;
/// Floor of the publish backlog threshold (tiny graphs republish per
/// ~64 edges instead of per edge).
const PUBLISH_MIN_BACKLOG: u64 = 64;

/// One edge addition captured for server-push fan-out, drained via
/// [`GraphHandle::take_deltas`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphDelta {
    /// Smaller-side endpoint as delivered (pair orientation preserved).
    pub left: u64,
    /// Other endpoint.
    pub right: u64,
    /// The pair's similarity score.
    pub similarity: f64,
    /// Delivery stamp.
    pub t: f64,
}

/// The write side: the live graph plus publish bookkeeping, all under
/// one mutex that only ingest (and explicit publishes) take.
struct WriteSide {
    graph: SimilarityGraph,
    /// Deliveries (including clock advances) since the last publish.
    pending: u64,
    /// When `Some`, inserted edges are captured for push fan-out.
    deltas: Option<Vec<GraphDelta>>,
}

/// State shared by every clone of a handle.
struct Shared {
    write: Mutex<WriteSide>,
    /// The current snapshot. Readers take this lock only when the
    /// generation moved; publishers replace the `Arc` under it.
    published: Mutex<Arc<GraphSnapshot>>,
    /// Generation of `published`; only mutated under the `write` lock,
    /// read lock-free by every query.
    generation: AtomicU64,
    /// Whether the write side has unpublished changes.
    dirty: AtomicBool,
    /// Forces every read through the write lock
    /// ([`GraphHandle::new_oracle`], the tests' reference); the other
    /// handles take that path for `neighbors`/`topk` while dirty.
    oracle: bool,
}

/// Per-clone snapshot cache: the last `(generation, snapshot)` this
/// clone resolved, making the steady-state read path one atomic load.
struct Cache {
    generation: u64,
    snap: Arc<GraphSnapshot>,
}

/// A cloneable handle to a live [`SimilarityGraph`] with
/// snapshot-swapped (RCU-style) reads.
///
/// The ingest side pushes edges through the [`PairSink`] impl into a
/// write-side graph behind a mutex and publishes immutable
/// [`GraphSnapshot`]s at a bounded cadence; query-side holders (net
/// sessions, the CLI, benches) read from snapshots and **never contend
/// with ingest at steady state**. Queries take the graph's `now` from
/// the caller — pass the stream watermark, so expiry is judged against
/// the data's clock, not the wall clock.
///
/// # Read paths and staleness
///
/// * [`GraphHandle::neighbors`] / [`topk`](GraphHandle::topk) /
///   [`component`](GraphHandle::component) /
///   [`stats`](GraphHandle::stats) are **read-your-own-writes fresh**:
///   every accepted delivery is visible to them. On a clean handle they
///   answer from the current snapshot, publishing first only when the
///   query's `now` is past its watermark.
/// * On a dirty handle (unpublished deliveries) `neighbors`/`topk` take
///   the write lock, advance the write clock to `now`, run the sweep a
///   capture would run (so the historical tier's expired edges arrive
///   at the same points) and answer from the live graph in O(degree).
///   They publish nothing: a publish costs O(stored nodes) — clone the
///   adjacency map, prune it, drop the previous one — so publishing per
///   read would charge that to every read that follows a few ingests.
///   `component`/`stats` need a memoized global view and still publish
///   first on a dirty handle.
/// * [`GraphHandle::snapshot`] is the scaling read path: wait-free at
///   steady state (one atomic generation load + a per-clone cached
///   `Arc`), never touches the write lock, and returns a consistent
///   state whose [`GraphSnapshot::watermark`] trails the newest
///   delivery by at most `max(live/8, 64)` edges (the publish cadence)
///   — the explicit staleness bound. Event-loop serving and the
///   concurrent benches use this.
///
/// Each clone carries its own snapshot cache (`RefCell`), so a handle
/// is `Send` but not `Sync`: give every thread its own clone.
pub struct GraphHandle {
    shared: Arc<Shared>,
    cache: RefCell<Cache>,
}

impl Clone for GraphHandle {
    fn clone(&self) -> Self {
        let cache = self.cache.borrow();
        GraphHandle {
            shared: Arc::clone(&self.shared),
            cache: RefCell::new(Cache {
                generation: cache.generation,
                snap: Arc::clone(&cache.snap),
            }),
        }
    }
}

impl GraphHandle {
    /// A handle to a fresh graph with the given edge horizon. Consumes
    /// the thread's [`crate::collect_expired_edges_on_next_build`]
    /// arming, so a historical tier attached *around* the spec factory
    /// can turn capture on before the first edge (checkpoint-restored
    /// edges included) enters the graph. Constructors outside the spec
    /// factory should prefer [`GraphHandle::with_options`], which takes
    /// the capture decision explicitly instead of through the
    /// thread-local side channel.
    pub fn new(horizon: f64) -> Self {
        Self::with_options(horizon, crate::take_collect_expired_arming())
    }

    /// A handle to a fresh graph with expired-edge capture set
    /// explicitly — no thread-local arming consumed, so constructing
    /// one (e.g. the net event loop building a serving session) can
    /// never steal an arming intended for a later spec build.
    pub fn with_options(horizon: f64, collect_expired: bool) -> Self {
        Self::build(horizon, collect_expired, false)
    }

    /// A handle whose fresh reads go through the write lock against the
    /// live graph instead of a snapshot — the reference the tests
    /// compare the snapshot path against.
    #[doc(hidden)]
    pub fn new_oracle(horizon: f64) -> Self {
        Self::build(horizon, false, true)
    }

    fn build(horizon: f64, collect_expired: bool, oracle: bool) -> Self {
        let mut graph = SimilarityGraph::new(horizon);
        if collect_expired {
            graph.set_collect_expired(true);
        }
        let snap = Arc::new(GraphSnapshot::empty(horizon));
        GraphHandle {
            shared: Arc::new(Shared {
                write: Mutex::new(WriteSide {
                    graph,
                    pending: 0,
                    deltas: None,
                }),
                published: Mutex::new(Arc::clone(&snap)),
                generation: AtomicU64::new(0),
                dirty: AtomicBool::new(false),
                oracle,
            }),
            cache: RefCell::new(Cache {
                generation: 0,
                snap,
            }),
        }
    }

    fn write(&self) -> MutexGuard<'_, WriteSide> {
        self.shared.write.lock().expect("graph write lock poisoned")
    }

    /// Publishes the write side as a new snapshot. Caller holds the
    /// write lock, which is what serializes generation bumps. Blocks
    /// of nodes untouched since the previous publish are `Arc`-shared
    /// with it, so only the touched nodes' edges are copied; the map
    /// itself is still cloned, pruned and (once no reader holds the
    /// previous snapshot) dropped, so a publish costs O(stored nodes)
    /// however little changed.
    fn publish_locked(&self, w: &mut WriteSide) -> Arc<GraphSnapshot> {
        let generation = self.shared.generation.load(Ordering::Relaxed) + 1;
        let mut span =
            sssj_metrics::trace::span_with(sssj_metrics::trace::Stage::GraphPublish, generation, 0);
        let mut published = self.shared.published.lock().expect("publish lock poisoned");
        let (captured, touched) = GraphSnapshot::capture_from(&mut w.graph, &published, generation);
        let snap = Arc::new(captured);
        *published = Arc::clone(&snap);
        drop(published);
        self.shared.generation.store(generation, Ordering::Release);
        self.shared.dirty.store(false, Ordering::Release);
        let m = graph_metrics();
        m.publishes.inc();
        m.touched_nodes.record(touched as f64);
        m.staleness_ms.set(0);
        span.set_args(generation, touched as u64);
        w.pending = 0;
        *self.cache.borrow_mut() = Cache {
            generation,
            snap: Arc::clone(&snap),
        };
        snap
    }

    /// Publish or defer after `w.pending` grew: republish once the
    /// backlog reaches the cadence threshold, else just mark dirty.
    fn maybe_publish(&self, w: &mut WriteSide) {
        if w.pending == 0 {
            return;
        }
        let threshold = (w.graph.live_edges() / PUBLISH_FANOUT).max(PUBLISH_MIN_BACKLOG);
        if w.pending >= threshold {
            self.publish_locked(w);
        } else {
            self.shared.dirty.store(true, Ordering::Release);
            // How far the readable snapshot trails the write side, in
            // stream time — the staleness bound a reader observes until
            // the next publish closes the gap.
            let lag = w.graph.now() - self.cache.borrow().snap.watermark();
            if lag.is_finite() && lag > 0.0 {
                graph_metrics().staleness_ms.set((lag * 1e3) as i64);
            }
        }
    }

    /// The current snapshot — the wait-free read path. At steady state
    /// (generation unchanged since this clone last looked) this is one
    /// atomic load plus a cached `Arc` clone; after a publish it
    /// refreshes from the publish cell (a reader-side lock no ingest
    /// path holds for longer than an `Arc` swap). Never blocks on, or
    /// blocks, the ingest lock. Staleness is bounded by the publish
    /// cadence; call [`GraphHandle::publish_now`] to close the gap.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        let generation = self.shared.generation.load(Ordering::Acquire);
        {
            let cache = self.cache.borrow();
            if cache.generation == generation {
                return Arc::clone(&cache.snap);
            }
        }
        let snap = Arc::clone(&self.shared.published.lock().expect("publish lock poisoned"));
        *self.cache.borrow_mut() = Cache {
            generation: snap.generation(),
            snap: Arc::clone(&snap),
        };
        snap
    }

    /// Publishes any unpublished write-side state now and returns the
    /// current snapshot — the event loop's publish hook (pair with
    /// [`GraphHandle::take_deltas`] for push fan-out).
    pub fn publish_now(&self) -> Arc<GraphSnapshot> {
        if !self.shared.dirty.load(Ordering::Acquire) {
            return self.snapshot();
        }
        let mut w = self.write();
        self.publish_locked(&mut w)
    }

    /// Whether the write side has changes no snapshot reflects yet.
    pub fn is_dirty(&self) -> bool {
        self.shared.dirty.load(Ordering::Acquire)
    }

    /// Turns delta capture for push fan-out on or off (off by default;
    /// without a consumer the buffer would grow unboundedly).
    pub fn set_collect_deltas(&self, on: bool) {
        let mut w = self.write();
        w.deltas = if on {
            Some(w.deltas.take().unwrap_or_default())
        } else {
            None
        };
    }

    /// Drains the edge additions captured since the last call (empty
    /// unless [`GraphHandle::set_collect_deltas`] is on). Suppressed
    /// replays (recovery dedup) are not reported.
    pub fn take_deltas(&self) -> Vec<GraphDelta> {
        match &mut self.write().deltas {
            Some(d) => std::mem::take(d),
            None => Vec::new(),
        }
    }

    /// The write side settled at `now` (clock advanced, collector's
    /// sweep run) — where the oracle, and a dirty handle's
    /// `neighbors`/`topk`, answer from.
    fn settled(&self, now: f64) -> MutexGuard<'_, WriteSide> {
        let mut w = self.write();
        w.graph.settle(now);
        w
    }

    /// The fresh-read snapshot: publishes first when the write side is
    /// dirty or the query's `now` is past the published watermark, so
    /// the answer reflects every accepted delivery (read-your-own-
    /// writes — the pre-snapshot semantics).
    fn fresh(&self, now: f64) -> Arc<GraphSnapshot> {
        let snap = self.snapshot();
        if !self.shared.dirty.load(Ordering::Acquire) && now <= snap.watermark() {
            return snap;
        }
        let mut w = self.write();
        w.graph.advance(now);
        self.publish_locked(&mut w)
    }

    /// The live neighbours of `node` at stream time `now`, sorted by
    /// neighbour id.
    pub fn neighbors(&self, node: u64, now: f64) -> Vec<Edge> {
        if self.shared.oracle || self.is_dirty() {
            return self.settled(now).graph.neighbors(node, now);
        }
        self.fresh(now).neighbors(node, now)
    }

    /// The `k` best live neighbours of `node` at `now`, best first.
    pub fn topk(&self, node: u64, k: usize, now: f64) -> Vec<Edge> {
        if self.shared.oracle || self.is_dirty() {
            return self.settled(now).graph.topk(node, k, now);
        }
        self.fresh(now).topk(node, k, now)
    }

    /// `node`'s connected component at `now`: `(canonical minimum
    /// member id, size)`, or `None` for a node with no live edge.
    pub fn component(&self, node: u64, now: f64) -> Option<(u64, u64)> {
        if self.shared.oracle {
            return self.settled(now).graph.component(node, now);
        }
        self.fresh(now).component(node, now)
    }

    /// Aggregate graph counters at `now`.
    pub fn stats(&self, now: f64) -> GraphStats {
        if self.shared.oracle {
            return self.settled(now).graph.stats(now);
        }
        self.fresh(now).stats(now)
    }

    /// Accepts one delivered pair as an edge (`t` non-decreasing).
    pub fn add_edge(&self, left: u64, right: u64, similarity: f64, t: f64) {
        let mut w = self.write();
        let before = w.graph.edges_added();
        w.graph.add_edge(left, right, similarity, t);
        if w.graph.edges_added() > before {
            if let Some(d) = &mut w.deltas {
                d.push(GraphDelta {
                    left,
                    right,
                    similarity,
                    t,
                });
            }
        }
        w.pending += 1;
        self.maybe_publish(&mut w);
    }

    /// Accepts a batch of delivered pairs stamped at `t`, under one
    /// lock acquisition and at most one publish.
    pub fn add_edges(&self, pairs: &[SimilarPair], t: f64) {
        if pairs.is_empty() {
            return;
        }
        let mut w = self.write();
        for p in pairs {
            let before = w.graph.edges_added();
            w.graph.add_edge(p.left, p.right, p.similarity, t);
            if w.graph.edges_added() > before {
                if let Some(d) = &mut w.deltas {
                    d.push(GraphDelta {
                        left: p.left,
                        right: p.right,
                        similarity: p.similarity,
                        t,
                    });
                }
            }
            w.pending += 1;
        }
        self.maybe_publish(&mut w);
    }

    /// Live edge count on the write side (no sweep; cheap).
    pub fn live_edges(&self) -> u64 {
        self.write().graph.live_edges()
    }

    /// Newest stream time the graph has observed.
    pub fn now(&self) -> f64 {
        self.write().graph.now()
    }

    /// Turns expired-edge capture on or off (see
    /// [`SimilarityGraph::set_collect_expired`]).
    pub fn set_collect_expired(&self, on: bool) {
        self.write().graph.set_collect_expired(on)
    }

    /// Drains the edges that fell off the horizon since the last drain
    /// (see [`SimilarityGraph::take_expired`]).
    pub fn take_expired(&self) -> Vec<ExpiredEdge> {
        self.write().graph.take_expired()
    }

    /// Read-only window scan: `node`'s stored edges with stamp in
    /// `[lo, hi]`, sorted by neighbour id. Never advances the clock —
    /// the time-travel overlay's live half. Served from the write side
    /// (it needs edges a swept snapshot may have dropped), so this read
    /// does take the ingest lock.
    pub fn neighbors_in_window(&self, node: u64, lo: f64, hi: f64) -> Vec<Edge> {
        self.write().graph.neighbors_in_window(node, lo, hi)
    }

    /// Serialises the live edge set at `now` into the checkpoint aux
    /// format (see [`SimilarityGraph::write_aux`]).
    pub fn write_aux(&self, now: f64, out: &mut Vec<u8>) {
        let mut w = self.write();
        w.graph.write_aux(now, out);
        // The serialisation advanced the clock and swept; republish on
        // the next read.
        self.shared.dirty.store(true, Ordering::Release);
    }

    /// Restores the edge set written by [`GraphHandle::write_aux`] into
    /// an empty graph (see [`SimilarityGraph::load_aux`]).
    pub fn load_aux(&self, bytes: &[u8]) -> Result<(), String> {
        let mut w = self.write();
        w.graph.load_aux(bytes)?;
        self.shared.dirty.store(true, Ordering::Release);
        Ok(())
    }
}

impl PairSink for GraphHandle {
    fn accept(&mut self, pair: &SimilarPair, now: f64) {
        self.add_edge(pair.left, pair.right, pair.similarity, now);
    }
}

/// A [`StreamJoin`] wrapper maintaining a live similarity graph from
/// the inner join's pair output ([`sssj_core::SinkedJoin`] over a
/// [`GraphHandle`]). For the sharded engine the tap wraps the *driver*:
/// workers batch pairs back through the driver's channels, and the sink
/// sees them as the driver surfaces them.
pub struct GraphJoin {
    tap: SinkedJoin<GraphHandle>,
    handle: GraphHandle,
}

impl GraphJoin {
    /// Taps `inner`, feeding a fresh graph whose edges expire `horizon`
    /// seconds after delivery.
    pub fn new(inner: Box<dyn StreamJoin>, horizon: f64) -> Self {
        let handle = GraphHandle::new(horizon);
        GraphJoin {
            tap: SinkedJoin::new(inner, handle.clone()),
            handle,
        }
    }

    /// The queryable graph handle (clone freely).
    pub fn handle(&self) -> GraphHandle {
        self.handle.clone()
    }
}

impl StreamJoin for GraphJoin {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        self.tap.process(record, out);
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        self.tap.finish(out);
    }

    fn stats(&self) -> JoinStats {
        self.tap.stats()
    }

    fn live_postings(&self) -> u64 {
        self.tap.live_postings()
    }

    fn name(&self) -> String {
        format!("graph({})", self.tap.name())
    }

    fn resume_point(&self) -> Option<(u64, f64)> {
        self.tap.resume_point()
    }
}

/// The [`Checkpointable`] graph tap — the durable base of
/// `…&durable=<dir>&graph` pipelines.
///
/// The graph sits *inside* the durability boundary: its live edge set
/// is appended to the engine's checkpoint aux blob, so recovery
/// restores edges whose members are already behind the WAL horizon —
/// the WAL alone could never regenerate them (their records are
/// garbage-collected), and the checkpointed emitted-pair set carries no
/// similarity scores. Replay re-delivers post-checkpoint pairs into the
/// restored graph; the restored-pair suppression set (see
/// [`SimilarityGraph::load_aux`]) keeps those from duplicating edges.
pub struct GraphedEngine {
    inner: Box<dyn Checkpointable>,
    handle: GraphHandle,
    /// Newest delivered timestamp (stamp for finish/quiesce flushes).
    last_t: f64,
}

impl GraphedEngine {
    /// Taps the checkpointable `inner`, feeding a fresh graph.
    pub fn new(inner: Box<dyn Checkpointable>, horizon: f64) -> Self {
        GraphedEngine {
            inner,
            handle: GraphHandle::new(horizon),
            last_t: f64::NEG_INFINITY,
        }
    }

    /// The queryable graph handle (clone freely).
    pub fn handle(&self) -> GraphHandle {
        self.handle.clone()
    }

    /// Pushes `out[start..]` into the graph, stamped at the delivery
    /// watermark.
    fn feed_tail(&mut self, out: &[SimilarPair], start: usize) {
        self.handle.add_edges(&out[start..], self.last_t);
    }
}

impl StreamJoin for GraphedEngine {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        let start = out.len();
        self.inner.process(record, out);
        let now = record.t.seconds();
        if now > self.last_t {
            self.last_t = now;
        }
        self.feed_tail(out, start);
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        let start = out.len();
        self.inner.finish(out);
        self.feed_tail(out, start);
    }

    fn stats(&self) -> JoinStats {
        self.inner.stats()
    }

    fn live_postings(&self) -> u64 {
        self.inner.live_postings()
    }

    fn name(&self) -> String {
        format!("graph({})", self.inner.name())
    }

    fn resume_point(&self) -> Option<(u64, f64)> {
        self.inner.resume_point()
    }
}

impl Checkpointable for GraphedEngine {
    /// `u64 inner_len` + the engine's aux + the graph's live edge set.
    fn write_aux(&mut self, out: &mut Vec<u8>) {
        let mut inner = Vec::new();
        self.inner.write_aux(&mut inner);
        out.extend_from_slice(&(inner.len() as u64).to_le_bytes());
        out.extend_from_slice(&inner);
        self.handle.write_aux(self.last_t, out);
    }

    fn read_aux(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.len() < 8 {
            return Err("graph aux: truncated header".into());
        }
        let inner_len = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        let rest = &bytes[8..];
        if rest.len() < inner_len {
            return Err("graph aux: truncated inner blob".into());
        }
        self.inner.read_aux(&rest[..inner_len])?;
        self.handle.load_aux(&rest[inner_len..])?;
        let restored_now = self.handle.now();
        if restored_now > self.last_t {
            self.last_t = restored_now;
        }
        Ok(())
    }

    fn replay_horizon(&self) -> f64 {
        self.inner.replay_horizon()
    }

    fn quiesce(&mut self, out: &mut Vec<SimilarPair>) {
        let start = out.len();
        self.inner.quiesce(out);
        self.feed_tail(out, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(edges: &[Edge]) -> Vec<u64> {
        edges.iter().map(|e| e.neighbor).collect()
    }

    #[test]
    fn handle_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<GraphHandle>();
        assert_send::<Arc<GraphSnapshot>>();
    }

    #[test]
    fn fresh_reads_see_every_write_immediately() {
        let g = GraphHandle::with_options(10.0, false);
        g.add_edge(0, 1, 0.9, 0.0);
        assert_eq!(ids(&g.neighbors(0, 0.0)), vec![1]);
        g.add_edge(0, 2, 0.8, 1.0);
        assert_eq!(ids(&g.neighbors(0, 1.0)), vec![1, 2]);
        // Expiry through a pure clock advance in the query.
        assert_eq!(ids(&g.neighbors(0, 10.5)), vec![2]);
        assert_eq!(g.stats(10.5).edges, 1);
    }

    #[test]
    fn snapshot_reads_are_stale_bounded_not_fresh() {
        let g = GraphHandle::with_options(f64::INFINITY, false);
        g.add_edge(0, 1, 0.9, 0.0);
        // The write is below the publish cadence: the wait-free path
        // still serves the empty generation-0 snapshot …
        let snap = g.snapshot();
        assert_eq!(snap.generation(), 0);
        assert!(g.is_dirty());
        // … until something publishes.
        let snap = g.publish_now();
        assert_eq!(snap.generation(), 1);
        assert_eq!(ids(&snap.neighbors(0, 0.0)), vec![1]);
        assert!(!g.is_dirty());
        // Steady state: the cached snapshot is returned by pointer.
        assert!(Arc::ptr_eq(&snap, &g.snapshot()));
    }

    #[test]
    fn clones_share_state_but_not_caches() {
        let a = GraphHandle::with_options(f64::INFINITY, false);
        let b = a.clone();
        a.add_edge(0, 1, 0.9, 0.0);
        assert_eq!(ids(&b.neighbors(0, 0.0)), vec![1]);
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert!(Arc::ptr_eq(&sa, &sb), "clones resolve the same snapshot");
    }

    #[test]
    fn cadence_publishes_without_explicit_reads() {
        let g = GraphHandle::with_options(f64::INFINITY, false);
        for i in 0..PUBLISH_MIN_BACKLOG {
            g.add_edge(i, i + 1, 0.9, i as f64);
        }
        let snap = g.snapshot();
        assert!(
            snap.generation() >= 1,
            "backlog {} must have crossed the publish threshold",
            PUBLISH_MIN_BACKLOG
        );
        assert!(snap.live_edges() >= 1);
    }

    #[test]
    fn dirty_neighbors_and_topk_answer_like_the_oracle_without_publishing() {
        let g = GraphHandle::with_options(10.0, false);
        let oracle = GraphHandle::new_oracle(10.0);
        for (l, r, sim, t) in [(0, 1, 0.9, 0.0), (0, 2, 0.8, 1.0), (2, 3, 0.7, 2.0)] {
            g.add_edge(l, r, sim, t);
            oracle.add_edge(l, r, sim, t);
        }
        assert!(g.is_dirty());
        let generation = g.snapshot().generation();
        // Behind, at and past the write clock (10.5 expires the 0-1 edge).
        for now in [1.0, 2.0, 10.5] {
            for node in 0..4 {
                assert_eq!(g.neighbors(node, now), oracle.neighbors(node, now));
                assert_eq!(g.topk(node, 1, now), oracle.topk(node, 1, now));
            }
            assert_eq!(g.snapshot().generation(), generation, "read published");
            assert!(g.is_dirty(), "read cleared the dirty flag");
        }
        assert_eq!(ids(&g.neighbors(0, 10.5)), vec![2]);
        // A global read still publishes, and so catches the snapshot up.
        assert_eq!(g.stats(10.5), oracle.stats(10.5));
        assert_eq!(g.snapshot().generation(), generation + 1);
        assert!(!g.is_dirty());
    }

    #[test]
    fn cadence_publishes_when_reads_interleave_with_ingest() {
        let g = GraphHandle::with_options(f64::INFINITY, false);
        for i in 0..PUBLISH_MIN_BACKLOG {
            g.add_edge(i, i + 1, 0.9, i as f64);
            if i % 3 == 2 {
                assert_eq!(ids(&g.neighbors(i, i as f64)), vec![i - 1, i + 1]);
                assert_eq!(g.topk(i, 1, i as f64).len(), 1);
            }
        }
        // The reads reset no backlog: the ingest cadence alone publishes,
        // once, when the backlog reaches the threshold.
        assert_eq!(g.snapshot().generation(), 1);
        assert_eq!(g.snapshot().live_edges(), PUBLISH_MIN_BACKLOG);
        assert!(!g.is_dirty());
    }

    #[test]
    fn deltas_capture_inserted_edges_only() {
        let g = GraphHandle::with_options(10.0, false);
        g.set_collect_deltas(true);
        g.add_edge(3, 7, 0.9, 1.0);
        g.add_edge(1, 2, 0.8, 2.0);
        let d = g.take_deltas();
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].left, d[0].right, d[0].t), (3, 7, 1.0));
        assert!(g.take_deltas().is_empty(), "drained");
        g.set_collect_deltas(false);
        g.add_edge(4, 5, 0.7, 3.0);
        assert!(g.take_deltas().is_empty(), "capture off");
    }

    #[test]
    fn oracle_handle_answers_through_the_write_lock() {
        let g = GraphHandle::new_oracle(10.0);
        g.add_edge(0, 1, 0.9, 0.0);
        assert_eq!(ids(&g.neighbors(0, 0.0)), vec![1]);
        assert_eq!(g.component(0, 0.0), Some((0, 2)));
        // The oracle path never publishes on reads.
        assert_eq!(g.snapshot().generation(), 0);
    }

    #[test]
    fn aux_roundtrip_through_the_handle() {
        let g = GraphHandle::with_options(10.0, false);
        g.add_edge(0, 1, 0.9, 1.0);
        g.add_edge(1, 2, 0.8, 2.0);
        let mut aux = Vec::new();
        g.write_aux(2.0, &mut aux);
        let r = GraphHandle::with_options(10.0, false);
        r.load_aux(&aux).unwrap();
        assert_eq!(ids(&r.neighbors(1, 2.0)), vec![0, 2]);
        assert_eq!(r.now(), 2.0);
    }
}
