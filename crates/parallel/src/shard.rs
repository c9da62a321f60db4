//! The sharded driver: batched channels, routed workers, load reporting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, Receiver, Sender};

use sssj_core::{
    read_max_aux, run_stream, write_max_aux, Checkpointable, EngineSpec, JoinSpec, ShardedInner,
    SpecError, SssjConfig, StreamJoin,
};
use sssj_index::IndexKind;
use sssj_metrics::registry::{Counter, Gauge, Registry};
use sssj_metrics::JoinStats;
use sssj_types::{SimilarPair, StreamRecord};

use crate::router::Router;

/// Per-driver registry handles: one delivery counter and inbox-depth
/// gauge per shard (labelled `shard="<w>"` — cardinality is the shard
/// count, well inside the label budget) plus the routing skip counter.
/// Depth gauges are sampled at batch-flush time, so they cost one
/// channel-lock peek per 64 records, not per record.
struct ShardMetrics {
    deliveries: Vec<&'static Counter>,
    inbox_depth: Vec<&'static Gauge>,
    skipped: &'static Counter,
}

impl ShardMetrics {
    fn new(shards: usize) -> ShardMetrics {
        let reg = Registry::global();
        let mut deliveries = Vec::with_capacity(shards);
        let mut inbox_depth = Vec::with_capacity(shards);
        for w in 0..shards {
            let idx = w.to_string();
            let labels: &[(&str, &str)] = &[("shard", &idx)];
            deliveries.push(reg.counter_with(
                "sssj_parallel_deliveries_total",
                "records delivered to this shard (owned + routed queries)",
                labels,
            ));
            inbox_depth.push(reg.gauge_with(
                "sssj_parallel_inbox_depth",
                "batches queued in this shard's inbox, sampled at flush",
                labels,
            ));
        }
        ShardMetrics {
            deliveries,
            inbox_depth,
            skipped: reg.counter(
                "sssj_parallel_skipped_sends_total",
                "(record, shard) deliveries candidate-aware routing avoided",
            ),
        }
    }
}

/// Records accumulated per channel message: one `Arc` clone + send per
/// shard *per batch* instead of per record amortises the channel layer
/// 64-fold on the insert path.
const BATCH_RECORDS: usize = 64;

/// Worker-inbox depth in batches: enough to keep workers busy, small
/// enough that a slow shard exerts backpressure instead of buffering the
/// stream.
const INBOX_DEPTH: usize = 128;

/// How long a partial batch may age before the next `process` call
/// flushes it anyway — bounds pair latency for trickle streams
/// (interactive sessions) without costing the hot path its batching.
const BATCH_LATENCY: Duration = Duration::from_millis(5);

/// Whether the driver consults the dimension-occupancy table or sends
/// every record to every shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// Route queries only to shards that can hold candidates (the
    /// default). Falls back to broadcast when the inner engine exposes no
    /// dimension information (LSH).
    CandidateAware,
    /// Send every record to every shard — the pre-routing behaviour, kept
    /// for A/B measurement.
    Broadcast,
}

/// One batch of routed records, shared by `Arc` across the shards it
/// touches. `routes[i]` is the delivery bitmask and owner shard of
/// `records[i]`; a worker skips records whose mask bit it does not hold.
/// `traces[i]` carries the driver thread's trace id at enqueue time
/// across the thread hop, so a worker's `shard.record` spans stitch
/// into the originating request's trace (all zeros — one shared empty
/// signal — when tracing is off or no request scope was active).
struct Batch {
    records: Vec<StreamRecord>,
    routes: Vec<(u64, u8)>,
    traces: Vec<u64>,
}

impl Batch {
    fn empty() -> Self {
        Batch {
            records: Vec::with_capacity(BATCH_RECORDS),
            routes: Vec::with_capacity(BATCH_RECORDS),
            traces: Vec::with_capacity(BATCH_RECORDS),
        }
    }
}

/// One worker-inbox message. The inbox is FIFO, so a control message is
/// handled after every batch sent before it — which is exactly what
/// makes the checkpoint cut consistent: the reply covers all records
/// delivered up to the batch boundary the driver flushed, and nothing
/// after.
enum ShardMsg {
    /// A batch of routed records.
    Batch(Arc<Batch>),
    /// Checkpoint barrier: reply with this worker's aux blob
    /// ([`sssj_core::ShardableJoin::checkpoint_aux`]) once everything
    /// delivered before this message has been processed.
    Checkpoint(Sender<Vec<u8>>),
    /// Seed merged aux state into the worker (recovery path, sent before
    /// any batch).
    Seed(Arc<Vec<u8>>),
}

/// Per-shard load figures, reported by [`ShardedJoin::shard_report`].
#[derive(Clone, Copy, Debug)]
pub struct ShardLoad {
    /// Records delivered to this shard (owned + routed queries).
    pub routed: u64,
    /// The shard's work counters.
    pub stats: JoinStats,
}

/// The load-balance and routing report of a finished sharded run.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Work counters summed over shards.
    pub stats: JoinStats,
    /// Per-shard load.
    pub per_shard: Vec<ShardLoad>,
    /// Records processed.
    pub records: u64,
    /// Query sends avoided by routing (records × shards skipped).
    pub skipped_sends: u64,
    /// Whether routing was candidate-aware (false = broadcast, either by
    /// request or because the inner engine exposes no dimensions).
    pub candidate_aware: bool,
}

impl ShardReport {
    /// The fraction of (record, shard) deliveries routing avoided.
    pub fn skip_rate(&self) -> f64 {
        let possible = self.records * self.per_shard.len() as u64;
        if possible == 0 {
            0.0
        } else {
            self.skipped_sends as f64 / possible as f64
        }
    }
}

/// The result of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardedOutput {
    /// All similar pairs (unsorted; shard interleaving is
    /// nondeterministic).
    pub pairs: Vec<SimilarPair>,
    /// Work counters summed over shards.
    pub stats: JoinStats,
    /// Per-shard counters, for load-balance inspection.
    pub per_shard: Vec<JoinStats>,
    /// Routing and load-balance detail.
    pub report: ShardReport,
}

/// An incremental sharded join implementing [`StreamJoin`].
///
/// The driver routes each record (see [`Router`]), accumulates routed
/// records into 64-record batches and sends one
/// `Arc<Batch>` per touched shard over bounded channels (backpressure
/// when a shard lags); workers drain batches, query with every delivered
/// record, insert the ones they own, and hand pairs back in batches.
/// Pair arrival order across shards is nondeterministic; within one
/// shard it follows stream order. Pairs may surface as late as
/// [`StreamJoin::finish`].
pub struct ShardedJoin {
    spec: JoinSpec,
    shards: usize,
    router: Router,
    pending: Batch,
    /// When the oldest record of `pending` arrived (latency flush).
    pending_since: Instant,
    senders: Vec<Sender<ShardMsg>>,
    pair_rx: Receiver<Vec<SimilarPair>>,
    handles: Vec<JoinHandle<JoinStats>>,
    live: Vec<Arc<AtomicU64>>,
    /// Records delivered per shard, counted at send time.
    routed: Vec<u64>,
    metrics: ShardMetrics,
    /// Pairs surfaced so far (until `finish`, the only live counter).
    pairs_seen: u64,
    /// Filled in by `finish`.
    report: Option<ShardReport>,
}

impl ShardedJoin {
    /// Spawns `shards` STR workers for the given configuration — the
    /// classic sharded STR join, with candidate-aware routing.
    pub fn new(config: SssjConfig, kind: IndexKind, shards: usize) -> Self {
        assert!(shards > 0, "shards must be positive");
        let spec = JoinSpec::new(config.theta, config.lambda)
            .with_engine(EngineSpec::Sharded {
                shards: shards as u32,
                inner: ShardedInner::Streaming,
            })
            .with_index(kind);
        Self::with_mode(&spec, RoutingMode::CandidateAware)
            .unwrap_or_else(|e| panic!("sharded STR spec: {e}"))
    }

    /// Builds the sharded join a `sharded?…` spec describes, with
    /// candidate-aware routing. This is what the spec factory calls.
    pub fn from_spec(spec: &JoinSpec) -> Result<Self, SpecError> {
        Self::with_mode(spec, RoutingMode::CandidateAware)
    }

    /// Builds the sharded join with an explicit [`RoutingMode`] (the
    /// broadcast mode exists for A/B measurement).
    pub fn with_mode(spec: &JoinSpec, mode: RoutingMode) -> Result<Self, SpecError> {
        // Specs can be built field-by-field, so validate before using any
        // parameter (a zero shard count must come back as an error, not
        // as a panic below).
        spec.validate()?;
        let EngineSpec::Sharded { shards, .. } = spec.engine else {
            return Err(SpecError::Invalid(format!(
                "ShardedJoin requires a sharded spec, got engine {:?}",
                spec.engine.keyword()
            )));
        };
        let shards = shards as usize;
        // Build every worker on the driver thread first: an invalid spec
        // or unregistered inner engine surfaces here as an error, never as
        // a worker-thread panic.
        let workers: Vec<_> = (0..shards)
            .map(|_| spec.build_shard_worker())
            .collect::<Result<_, _>>()?;
        let horizon = match mode {
            RoutingMode::Broadcast => None,
            RoutingMode::CandidateAware => workers[0].occupancy_horizon(),
        };
        let mut router = Router::new(shards, horizon);
        // Pure-ℓ2 inners (index-construction bound depends on the vector
        // alone, never on stream maxima) can restrict occupancy to the
        // coordinates the workers actually index: the hot head-of-Zipf
        // dimensions sit in the unindexed prefix and would otherwise
        // light up every shard.
        if horizon.is_some() {
            let EngineSpec::Sharded { inner, .. } = &spec.engine else {
                unreachable!("checked above");
            };
            let pure_l2 = match inner {
                ShardedInner::Streaming => spec.index == IndexKind::L2,
                ShardedInner::GenericDecay(_) => true,
                ShardedInner::MiniBatch | ShardedInner::Lsh(_) => false,
            };
            if pure_l2 {
                router = router.with_suffix_occupancy(spec.theta);
            }
        }
        // Worker w sends at most one pair batch per inbox batch plus one
        // tail flush, so this capacity means workers never block on the
        // pair channel while the driver lives — no send/send deadlock.
        let (pair_tx, pair_rx) = bounded::<Vec<SimilarPair>>(shards * (INBOX_DEPTH + 2));
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut live = Vec::with_capacity(shards);
        for (w, mut join) in workers.into_iter().enumerate() {
            let (tx, rx) = bounded::<ShardMsg>(INBOX_DEPTH);
            senders.push(tx);
            let pair_tx = pair_tx.clone();
            let live_ctr = Arc::new(AtomicU64::new(0));
            live.push(Arc::clone(&live_ctr));
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                let bit = 1u64 << w;
                for msg in rx {
                    let batch = match msg {
                        ShardMsg::Batch(batch) => batch,
                        ShardMsg::Checkpoint(ack) => {
                            // Pairs found by earlier batches were already
                            // sent per batch; reply with the aux state of
                            // everything processed so far. The driver
                            // validated any seed blob, so encoding here
                            // cannot fail.
                            let mut aux = Vec::new();
                            join.checkpoint_aux(&mut aux);
                            let _ = ack.send(aux);
                            continue;
                        }
                        ShardMsg::Seed(bytes) => {
                            // The driver validates the merged blob before
                            // broadcasting; a decode failure here would
                            // mean driver/worker disagree on the format.
                            join.seed_checkpoint_aux(&bytes)
                                .expect("driver-validated aux blob");
                            continue;
                        }
                    };
                    for (i, (record, &(mask, owner))) in
                        batch.records.iter().zip(&batch.routes).enumerate()
                    {
                        if mask & bit == 0 {
                            continue;
                        }
                        // Adopt the enqueuing request's trace id for the
                        // duration of this record, so the span lands in
                        // the right trace despite the thread hop.
                        let _trace = sssj_metrics::trace::scope(batch.traces[i]);
                        let mut span = sssj_metrics::trace::span_with(
                            sssj_metrics::trace::Stage::ShardRecord,
                            record.id,
                            w as u64,
                        );
                        let before = out.len();
                        join.process_routed(record, owner as usize == w, &mut out);
                        span.set_args(record.id, (out.len() - before) as u64);
                    }
                    live_ctr.store(join.live_postings(), Ordering::Relaxed);
                    if !out.is_empty() && pair_tx.send(std::mem::take(&mut out)).is_err() {
                        return join.stats(); // driver gone (drop path)
                    }
                }
                // Inbox closed: flush buffered output (MiniBatch windows).
                join.finish(&mut out);
                if !out.is_empty() {
                    let _ = pair_tx.send(out);
                }
                join.stats()
            }));
        }
        Ok(ShardedJoin {
            spec: spec.clone(),
            shards,
            router,
            pending: Batch::empty(),
            pending_since: Instant::now(),
            senders,
            pair_rx,
            handles,
            live,
            routed: vec![0; shards],
            metrics: ShardMetrics::new(shards),
            pairs_seen: 0,
            report: None,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The routing and load report; available once [`StreamJoin::finish`]
    /// has run.
    pub fn shard_report(&self) -> Option<&ShardReport> {
        self.report.as_ref()
    }

    fn drain_ready(&mut self, out: &mut Vec<SimilarPair>) {
        while let Ok(batch) = self.pair_rx.try_recv() {
            self.pairs_seen += batch.len() as u64;
            out.extend(batch);
        }
    }

    fn flush_batch(&mut self) {
        if self.pending.records.is_empty() {
            return;
        }
        let batch = Arc::new(std::mem::replace(&mut self.pending, Batch::empty()));
        let mut span = sssj_metrics::trace::span_with(
            sssj_metrics::trace::Stage::RouterFlush,
            batch.records.len() as u64,
            0,
        );
        let mut delivered = 0usize;
        for w in 0..self.shards {
            let bit = 1u64 << w;
            let count = batch.routes.iter().filter(|(m, _)| m & bit != 0).count();
            if count > 0 {
                self.routed[w] += count as u64;
                self.metrics.deliveries[w].add(count as u64);
                delivered += count;
                self.senders[w]
                    .send(ShardMsg::Batch(Arc::clone(&batch)))
                    .expect("worker alive while sending");
            }
            self.metrics.inbox_depth[w].set(self.senders[w].len() as i64);
        }
        self.metrics
            .skipped
            .add((batch.records.len() * self.shards - delivered) as u64);
        span.set_args(batch.records.len() as u64, delivered as u64);
    }

    /// Flushes the pending batch and round-trips a
    /// [`ShardMsg::Checkpoint`] through every worker, returning the
    /// per-shard aux blobs. FIFO inboxes make the cut consistent: each
    /// reply covers exactly the records delivered before the flushed
    /// batch boundary. Returns nothing after [`StreamJoin::finish`]
    /// (workers are gone; their state was already flushed).
    fn control_sync(&mut self) -> Vec<Vec<u8>> {
        if self.senders.is_empty() {
            return Vec::new();
        }
        self.flush_batch();
        let acks: Vec<Receiver<Vec<u8>>> = self
            .senders
            .iter()
            .map(|tx| {
                let (ack_tx, ack_rx) = bounded(1);
                tx.send(ShardMsg::Checkpoint(ack_tx))
                    .expect("worker alive while sending");
                ack_rx
            })
            .collect();
        // Workers never block on the pair channel (its capacity covers
        // every in-flight batch), so each reply arrives after a bounded
        // amount of work — no deadlock against a full pair channel.
        acks.iter()
            .map(|rx| rx.recv().expect("worker alive at checkpoint"))
            .collect()
    }
}

impl Checkpointable for ShardedJoin {
    /// Captures each shard's aux state at a batch boundary (the control
    /// round-trip described on the worker-inbox message type) and merges the per-shard max
    /// vectors coordinate-wise. Recovery seeds the *merged* vector into
    /// every shard: replay re-routes records, so per-shard attribution
    /// is meaningless, and an over-large `m` only indexes more eagerly —
    /// never drops a pair (the [`sssj_core::Streaming::seed_max`]
    /// argument).
    fn write_aux(&mut self, out: &mut Vec<u8>) {
        let mut merged: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for blob in self.control_sync() {
            if blob.is_empty() {
                continue; // worker engine with no aux (MB)
            }
            let entries = read_max_aux(&blob).expect("worker-encoded aux blob");
            for (dim, v) in entries {
                let slot = merged.entry(dim).or_insert(0.0);
                if v > *slot {
                    *slot = v;
                }
            }
        }
        let entries: Vec<(u32, f64)> = merged.into_iter().collect();
        write_max_aux(&entries, out);
    }

    fn read_aux(&mut self, bytes: &[u8]) -> Result<(), String> {
        // Validate *before* broadcasting: workers trust this blob.
        let entries = read_max_aux(bytes)?;
        if entries.is_empty() || self.senders.is_empty() {
            return Ok(());
        }
        let shared = Arc::new(bytes.to_vec());
        for tx in &self.senders {
            tx.send(ShardMsg::Seed(Arc::clone(&shared)))
                .map_err(|_| "worker gone while seeding aux".to_string())?;
        }
        Ok(())
    }

    fn replay_horizon(&self) -> f64 {
        let EngineSpec::Sharded { inner, .. } = &self.spec.engine else {
            unreachable!("constructors require a sharded spec");
        };
        match inner {
            ShardedInner::Streaming => self.spec.config().tau(),
            ShardedInner::MiniBatch => 2.0 * self.spec.config().tau(),
            ShardedInner::GenericDecay(d) => d.model.horizon(self.spec.theta),
            // Not checkpointable (the spec layer rejects durable over
            // lsh inners); infinity would simply disable WAL GC.
            ShardedInner::Lsh(_) => f64::INFINITY,
        }
    }

    /// Flushes the pending batch, waits for every worker to drain its
    /// inbox, then collects every pair already handed back — after this
    /// returns, all pairs completed by previously processed records have
    /// surfaced.
    fn quiesce(&mut self, out: &mut Vec<SimilarPair>) {
        let _ = self.control_sync();
        // Each worker sent its pairs *before* replying to the barrier
        // (same thread, channel sends are ordered), so a try_recv drain
        // now sees everything.
        self.drain_ready(out);
    }
}

impl StreamJoin for ShardedJoin {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        assert!(self.report.is_none(), "process called after finish");
        let (mask, owner) = self.router.route(record);
        if self.pending.records.is_empty() {
            self.pending_since = Instant::now();
        }
        self.pending.records.push(record.clone());
        self.pending.routes.push((mask, owner as u8));
        self.pending
            .traces
            .push(sssj_metrics::trace::current_trace_id());
        // Flush full batches immediately; on a trickle stream (an
        // interactive session far below 64 records per BATCH_LATENCY)
        // flush the partial batch by age instead, so pairs keep flowing
        // at arrival cadence rather than waiting for record 64 or
        // finish().
        if self.pending.records.len() >= BATCH_RECORDS
            || self.pending_since.elapsed() >= BATCH_LATENCY
        {
            self.flush_batch();
            // Drain once per batch, not per record: the pair channel is a
            // mutex, and locking it 64× less keeps the driver off the
            // workers' lock.
            self.drain_ready(out);
        }
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        if self.report.is_some() {
            return;
        }
        self.flush_batch();
        self.senders.clear(); // closes worker inboxes
                              // Drain until every worker has dropped its pair sender: a worker
                              // flushing a large tail can never deadlock against a full pair
                              // channel, because the driver keeps receiving.
        while let Ok(batch) = self.pair_rx.recv() {
            self.pairs_seen += batch.len() as u64;
            out.extend(batch);
        }
        let mut stats = JoinStats::new();
        let mut per_shard = Vec::with_capacity(self.shards);
        for (w, h) in self.handles.drain(..).enumerate() {
            let s = h.join().expect("worker panicked");
            stats += s;
            per_shard.push(ShardLoad {
                routed: self.routed[w],
                stats: s,
            });
        }
        self.report = Some(ShardReport {
            stats,
            per_shard,
            records: self.router.records(),
            skipped_sends: self.router.skipped_sends(),
            candidate_aware: self.router.is_candidate_aware(),
        });
    }

    fn stats(&self) -> JoinStats {
        match &self.report {
            Some(r) => r.stats,
            None => {
                // Before finish, only the surfaced-pair count is known
                // without synchronising with workers.
                let mut s = JoinStats::new();
                s.pairs_output = self.pairs_seen;
                s
            }
        }
    }

    fn live_postings(&self) -> u64 {
        self.live.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn name(&self) -> String {
        let EngineSpec::Sharded { shards, inner } = self.spec.engine else {
            unreachable!("constructors require a sharded spec");
        };
        let base = match inner {
            ShardedInner::Streaming => format!("STR-{}", self.spec.index),
            ShardedInner::MiniBatch => format!("MB-{}", self.spec.index),
            ShardedInner::GenericDecay(d) => format!("STR-L2[{}]", d.model),
            ShardedInner::Lsh(p) => format!(
                "LSH-{}x{}-{}",
                p.bands,
                p.bits / p.bands,
                if p.estimate { "est" } else { "exact" }
            ),
        };
        format!("{base}x{shards}")
    }
}

impl Drop for ShardedJoin {
    fn drop(&mut self) {
        // Abandon politely: close inboxes, unblock workers by draining
        // their pair channel, and let them run down.
        self.senders.clear();
        while self.pair_rx.recv().is_ok() {}
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs the full stream through `shards` STR workers and returns the
/// combined output. Equivalent to the sequential STR join up to output
/// order.
///
/// ```
/// use sssj_core::SssjConfig;
/// use sssj_index::IndexKind;
/// use sssj_parallel::sharded_run;
/// use sssj_types::{vector::unit_vector, StreamRecord, Timestamp};
///
/// let stream: Vec<StreamRecord> = (0..4)
///     .map(|i| StreamRecord::new(i, Timestamp::new(i as f64), unit_vector(&[(1, 1.0)])))
///     .collect();
/// let out = sharded_run(&stream, SssjConfig::new(0.5, 0.1), IndexKind::L2, 2);
/// assert_eq!(out.pairs.len(), 6); // identical vectors, τ ≈ 6.9 covers all
/// ```
pub fn sharded_run(
    stream: &[StreamRecord],
    config: SssjConfig,
    kind: IndexKind,
    shards: usize,
) -> ShardedOutput {
    assert!(shards > 0, "shards must be positive");
    let spec = JoinSpec::new(config.theta, config.lambda)
        .with_engine(EngineSpec::Sharded {
            shards: shards as u32,
            inner: ShardedInner::Streaming,
        })
        .with_index(kind);
    run_sharded(stream, &spec, RoutingMode::CandidateAware)
        .unwrap_or_else(|e| panic!("sharded STR spec: {e}"))
}

/// Runs the full stream through the sharded join a `sharded?…` spec
/// describes, under an explicit [`RoutingMode`], and returns the combined
/// output together with the routing report.
pub fn run_sharded(
    stream: &[StreamRecord],
    spec: &JoinSpec,
    mode: RoutingMode,
) -> Result<ShardedOutput, SpecError> {
    let mut join = ShardedJoin::with_mode(spec, mode)?;
    let pairs = run_stream(&mut join, stream);
    let report = join
        .shard_report()
        .cloned()
        .expect("run_stream calls finish");
    Ok(ShardedOutput {
        pairs,
        stats: report.stats,
        per_shard: report.per_shard.iter().map(|l| l.stats).collect(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_core::Streaming;
    use sssj_types::{vector::unit_vector, Timestamp};

    fn rec(id: u64, t: f64, entries: &[(u32, f64)]) -> StreamRecord {
        StreamRecord::new(id, Timestamp::new(t), unit_vector(entries))
    }

    fn random_stream(seed: u64, n: usize) -> Vec<StreamRecord> {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        (0..n as u64)
            .map(|i| {
                t += rng.random_range(0.0..0.5);
                let entries: Vec<(u32, f64)> = (0..rng.random_range(1..6))
                    .map(|_| (rng.random_range(0..20u32), rng.random_range(0.1..1.0)))
                    .collect();
                rec(i, t, &entries)
            })
            .collect()
    }

    fn sorted_keys(pairs: &[SimilarPair]) -> Vec<(u64, u64)> {
        let mut keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn shard_spans_inherit_the_drivers_trace_id() {
        if !sssj_metrics::trace_enabled() {
            return; // the off lane records nothing; nothing to assert
        }
        use sssj_metrics::trace::{self, Stage};
        let stream = random_stream(9, 200);
        let config = SssjConfig::new(0.6, 0.1);
        let trace_id = trace::next_trace_id();
        let mut sharded = ShardedJoin::new(config, IndexKind::L2, 3);
        let mut out = Vec::new();
        {
            // The driver thread plays the role a net session plays in
            // production: one id parked for the whole request.
            let _scope = trace::scope(trace_id);
            for r in &stream {
                sharded.process(r, &mut out);
            }
            sharded.finish(&mut out);
        }
        let events = trace::events_for_trace(trace_id);
        let shard_spans: Vec<_> = events
            .iter()
            .filter(|e| e.stage == Stage::ShardRecord)
            .collect();
        assert!(
            !shard_spans.is_empty(),
            "worker spans must carry the driver's id across the thread hop"
        );
        // Spans came from worker threads, not the driver's ring.
        let flush_tid = events
            .iter()
            .find(|e| e.stage == Stage::RouterFlush)
            .expect("driver recorded batch flushes")
            .tid;
        assert!(shard_spans.iter().any(|e| e.tid != flush_tid));
        // Every shard span names a record of this stream.
        assert!(shard_spans.iter().all(|e| e.a < stream.len() as u64));
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let stream = random_stream(1, 400);
        let config = SssjConfig::new(0.6, 0.1);
        let mut seq = Streaming::new(config, IndexKind::L2);
        let expected = sorted_keys(&run_stream(&mut seq, &stream));
        for shards in [1, 2, 3, 8] {
            let out = sharded_run(&stream, config, IndexKind::L2, shards);
            assert_eq!(sorted_keys(&out.pairs), expected, "shards={shards}");
        }
    }

    #[test]
    fn sharded_run_matches_sequential_for_all_kinds() {
        let stream = random_stream(2, 200);
        let config = SssjConfig::new(0.5, 0.2);
        for kind in IndexKind::ALL {
            let mut seq = Streaming::new(config, kind);
            let expected = sorted_keys(&run_stream(&mut seq, &stream));
            let out = sharded_run(&stream, config, kind, 4);
            assert_eq!(sorted_keys(&out.pairs), expected, "{kind}");
        }
    }

    #[test]
    fn broadcast_mode_matches_routed_mode() {
        let stream = random_stream(6, 350);
        let spec: JoinSpec = "sharded?theta=0.55&lambda=0.1&shards=4&inner=str-l2"
            .parse()
            .unwrap();
        let routed = run_sharded(&stream, &spec, RoutingMode::CandidateAware).unwrap();
        let broadcast = run_sharded(&stream, &spec, RoutingMode::Broadcast).unwrap();
        assert_eq!(sorted_keys(&routed.pairs), sorted_keys(&broadcast.pairs));
        assert!(routed.report.candidate_aware);
        assert!(!broadcast.report.candidate_aware);
        assert_eq!(broadcast.report.skipped_sends, 0);
        // Routing can only reduce per-shard traversal work.
        assert!(routed.stats.entries_traversed <= broadcast.stats.entries_traversed);
    }

    #[test]
    fn incremental_join_matches_sequential() {
        let stream = random_stream(3, 300);
        let config = SssjConfig::new(0.6, 0.1);
        let mut seq = Streaming::new(config, IndexKind::L2);
        let expected = sorted_keys(&run_stream(&mut seq, &stream));
        let mut sharded = ShardedJoin::new(config, IndexKind::L2, 3);
        let got = run_stream(&mut sharded, &stream);
        assert_eq!(sorted_keys(&got), expected);
        assert_eq!(sharded.stats().pairs_output as usize, got.len());
        let report = sharded.shard_report().expect("finished");
        assert_eq!(report.records, 300);
        assert_eq!(
            report.per_shard.iter().map(|l| l.routed).sum::<u64>() + report.skipped_sends,
            300 * 3,
            "routed + skipped covers every (record, shard) slot"
        );
    }

    #[test]
    fn single_shard_equals_sequential_stats() {
        let stream = random_stream(4, 150);
        let config = SssjConfig::new(0.7, 0.1);
        let mut seq = Streaming::new(config, IndexKind::L2);
        run_stream(&mut seq, &stream);
        let out = sharded_run(&stream, config, IndexKind::L2, 1);
        assert_eq!(out.stats.entries_traversed, seq.stats().entries_traversed);
        assert_eq!(out.stats.pairs_output, seq.stats().pairs_output);
    }

    #[test]
    fn insertion_is_partitioned() {
        let stream = random_stream(5, 300);
        let out = sharded_run(&stream, SssjConfig::new(0.6, 0.1), IndexKind::L2, 4);
        let total: u64 = out.per_shard.iter().map(|s| s.postings_added).sum();
        let mut seq = Streaming::new(SssjConfig::new(0.6, 0.1), IndexKind::L2);
        run_stream(&mut seq, &stream);
        assert_eq!(total, seq.stats().postings_added);
        // No shard holds everything (dimension-slice spread).
        for s in &out.per_shard {
            assert!(s.postings_added < total);
        }
    }

    #[test]
    fn owners_follow_the_dimension_partition() {
        // Two records with the same single (rarest) dimension are owned
        // by the same shard even when their ids differ wildly.
        let config = SssjConfig::new(0.9, 1.0);
        let stream = vec![rec(0, 0.0, &[(17, 2.0)]), rec(1000, 0.1, &[(17, 2.0)])];
        let out = sharded_run(&stream, config, IndexKind::L2, 4);
        let populated: Vec<usize> = out
            .per_shard
            .iter()
            .enumerate()
            .filter(|(_, s)| s.postings_added > 0)
            .map(|(w, _)| w)
            .collect();
        assert_eq!(populated.len(), 1, "one dimension slice, one owner");
    }

    #[test]
    fn empty_stream_is_fine() {
        let out = sharded_run(&[], SssjConfig::new(0.5, 0.1), IndexKind::L2, 2);
        assert!(out.pairs.is_empty());
        assert_eq!(out.report.skip_rate(), 0.0);
        let mut j = ShardedJoin::new(SssjConfig::new(0.5, 0.1), IndexKind::L2, 2);
        let mut buf = Vec::new();
        j.finish(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn finish_is_idempotent_and_drop_safe() {
        let mut j = ShardedJoin::new(SssjConfig::new(0.5, 0.1), IndexKind::L2, 2);
        let mut buf = Vec::new();
        j.process(&rec(0, 0.0, &[(1, 1.0)]), &mut buf);
        j.finish(&mut buf);
        j.finish(&mut buf);
        drop(j);
        // And dropping an unfinished join must not hang or panic — with
        // records still buffered and in flight.
        let mut j2 = ShardedJoin::new(SssjConfig::new(0.5, 0.1), IndexKind::L2, 2);
        j2.process(&rec(0, 0.0, &[(1, 1.0)]), &mut buf);
        drop(j2);
    }

    #[test]
    fn name_reports_topology() {
        let j = ShardedJoin::new(SssjConfig::new(0.5, 0.1), IndexKind::L2, 4);
        assert_eq!(j.name(), "STR-L2x4");
        let spec: JoinSpec = "sharded?theta=0.5&lambda=0.1&shards=2&inner=mb-l2ap"
            .parse()
            .unwrap();
        let j = ShardedJoin::from_spec(&spec).unwrap();
        assert_eq!(j.name(), "MB-L2APx2");
    }

    #[test]
    fn non_sharded_spec_is_rejected() {
        let spec: JoinSpec = "str-l2?theta=0.5&lambda=0.1".parse().unwrap();
        assert!(matches!(
            ShardedJoin::from_spec(&spec),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn directly_built_zero_shard_spec_is_an_error_not_a_panic() {
        // Spec fields are public; a hand-built spec skips the parser's
        // validation and must still come back as an error.
        let spec = JoinSpec::new(0.7, 0.01).with_engine(EngineSpec::Sharded {
            shards: 0,
            inner: ShardedInner::Streaming,
        });
        assert!(matches!(
            ShardedJoin::from_spec(&spec),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn trickle_streams_surface_pairs_before_finish() {
        // An interactive session far below 64 records per flush interval
        // must still see pairs at arrival cadence (the latency flush),
        // not only at finish().
        let mut j = ShardedJoin::new(SssjConfig::new(0.5, 0.01), IndexKind::L2, 2);
        let mut out = Vec::new();
        j.process(&rec(0, 0.0, &[(1, 1.0)]), &mut out);
        j.process(&rec(1, 0.1, &[(1, 1.0)]), &mut out); // forms the pair
        for i in 0..50u64 {
            if !out.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            // Unique dimensions: the trickle itself can pair with nothing.
            j.process(
                &rec(2 + i, 0.2 + i as f64, &[(100 + i as u32, 1.0)]),
                &mut out,
            );
        }
        assert_eq!(out.len(), 1, "pair must surface without finish()");
        j.finish(&mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "shards must be positive")]
    fn zero_shards_rejected() {
        sharded_run(&[], SssjConfig::new(0.5, 0.1), IndexKind::L2, 0);
    }
}
