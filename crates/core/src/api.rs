//! Ergonomic entry points: a fluent builder over [`JoinSpec`] and an
//! iterator adapter.
//!
//! [`JoinBuilder`] is a thin fluent front-end over the declarative
//! [`JoinSpec`]: every method mutates the spec, [`JoinBuilder::build`]
//! delegates to the one factory [`JoinSpec::build`], and
//! [`JoinBuilder::spec`] hands the spec out for serialization (its
//! compact text form drives the CLI and the net protocol). One worked
//! example per variant:
//!
//! ```
//! use sssj_core::JoinBuilder;
//! use sssj_index::IndexKind;
//! use sssj_types::DecayModel;
//!
//! // The paper's eight framework × index combinations:
//! let join = JoinBuilder::new(0.7, 0.01).minibatch().index(IndexKind::Inv).build();
//! assert_eq!(join.name(), "MB-INV");
//!
//! // Generalised decay models (hard window, linear, polynomial):
//! let join = JoinBuilder::new(0.7, 0.0).decay_model(DecayModel::sliding_window(10.0)).build();
//! assert_eq!(join.name(), "STR-L2[window:10]");
//!
//! // Per-arrival top-k selection:
//! let join = JoinBuilder::new(0.5, 0.01).top_k(3).build();
//! assert_eq!(join.name(), "STR-L2-top3");
//!
//! // Out-of-order tolerance and online self-verification wrap any base:
//! let join = JoinBuilder::new(0.7, 0.01).checked().reorder_slack(5.0).build();
//! assert_eq!(join.name(), "Reorder(checked(STR-L2))");
//!
//! // Stop/resume through a WAL + checkpoints (see Durability below):
//! let spec = JoinBuilder::new(0.7, 0.01).durable("/var/sssj").spec().clone();
//! assert_eq!(spec.to_string(), "str-l2?theta=0.7&lambda=0.01&durable=/var/sssj");
//!
//! // Candidate-aware sharded execution around any shardable inner
//! // engine (built by sssj-parallel once registered; `inner=str-l2` is
//! // the default — `sharded?shards=4&inner=mb-l2ap` runs MB workers):
//! use sssj_core::ShardedInner;
//! let spec = JoinBuilder::new(0.7, 0.01)
//!     .index(IndexKind::L2ap)
//!     .sharded_inner(4, ShardedInner::MiniBatch)
//!     .spec()
//!     .clone();
//! assert_eq!(
//!     spec.to_string(),
//!     "sharded?theta=0.7&lambda=0.01&shards=4&inner=mb-l2ap"
//! );
//! ```
//!
//! The LSH and sharded engines are spec-addressable too
//! ([`JoinBuilder::lsh`], [`JoinBuilder::sharded`]); building those
//! requires the providing crate (`sssj-lsh` / `sssj-parallel`) to be
//! linked and registered — every workspace binary does this at startup.
//!
//! # Durability
//!
//! [`JoinBuilder::durable`] (spec key `durable=<dir>`) wraps the engine
//! in the `sssj-store` subsystem: every ingested record is appended to
//! a segmented, CRC-framed **write-ahead log** under `<dir>` before the
//! engine sees it, and a **checkpoint manager** periodically persists
//! the engine's [`crate::Checkpointable`] aux state plus the
//! recently-emitted-pair set, publishing each checkpoint by atomically
//! renaming `MANIFEST`. Log segments fall to horizon-aware GC once a
//! checkpoint covers them — a record older than `now − τ` can never
//! pair again, so disk usage tracks the live window, not the stream.
//!
//! Building the same spec against a directory that already holds a
//! manifest **resumes** it: the last checkpoint is loaded, the WAL tail
//! (self-truncated at any torn frame a `kill -9` left) is replayed with
//! output suppressed up to the checkpointed state, and
//! [`StreamJoin::resume_point`] reports how many records the store
//! already ingested so the caller can continue ids and the timestamp
//! watermark seamlessly. The contract — verified by crash-injection
//! tests for every engine × index variant — is that *pre-crash output ∪
//! post-recovery output* is set-equal to the uninterrupted run, with no
//! pair delivered before the last checkpoint ever emitted twice.
//!
//! Worked example (serve → kill → recover): see the crate-root docs of
//! the `sssj` facade, whose doctest runs it end to end; operationally
//! the same flow is `sssj serve --durable <dir>` (or
//! `sssj run --spec '…durable=<dir>'`), `kill -9`, `sssj recover <dir>`.
//! Supported engines: `str`, `mb`, `decay`, and `sharded` over those —
//! the sharded driver checkpoints per shard at a batch boundary so the
//! cut is consistent.
//!
//! # Querying the live graph
//!
//! [`JoinBuilder::graph`] (spec key `graph`) turns the join's pair
//! stream into **queryable live state** (the `sssj-graph` subsystem):
//! every delivered pair becomes an edge stamped with its delivery time
//! and expiring at the pipeline's horizon ([`JoinSpec::horizon`]), and
//! the graph serves *neighbours of X right now*, *X's top-k matches*
//! (ranked by similarity), *X's connected component* (epoch-rebuilt
//! union-find — unions are incremental, expiry triggers a lazy
//! rebuild), and aggregate stats. The plumbing is the [`crate::PairSink`]
//! trait: the wrapper hands each pair to the sink straight from the
//! output buffer, no intermediate queue; for the sharded engine the
//! sink hangs off the driver, which already funnels every worker's
//! batched pair returns.
//!
//! ```text
//! str-l2?theta=0.7&tau=10&graph                      tap any engine
//! sharded?theta=0.6&tau=10&shards=4&inner=mb-l2ap&graph
//! str-l2?theta=0.7&tau=10&durable=/var/sssj&graph    edges ride checkpoints
//! ```
//!
//! Construction goes through the one spec factory once
//! `sssj_graph::register_spec_builder()` has run (every workspace
//! binary registers at startup); `sssj_graph::build_with_handle` is the
//! same path but also hands back the query handle, which is what the
//! net session serves `QUERY neighbors|topk|component|stats` and
//! `SUBSCRIBE <node>` from (grammar in `sssj_net::protocol`) and what
//! `sssj graph <file> --query '…'` prints. With `durable=`, the graph
//! sits directly above the durable wrapper and its live edge set rides
//! the checkpoint aux blob, so recovery restores edges whose member
//! records are already behind the WAL horizon. A runnable serve → query
//! doctest lives at the `sssj` facade crate root.
//!
//! Reads scale independently of ingest: the handle maintains a
//! write-side graph plus an immutable **published snapshot** swapped in
//! at a bounded cadence, so concurrent readers answer wait-free from
//! the snapshot (staleness bounded by its watermark, which `QUERY
//! stats` reports) while ingest never blocks on them. A shared
//! `sssj net-serve --shared` pipeline serves every connection's queries
//! from that snapshot and pushes subscribed edge updates out-of-band as
//! snapshots publish (`sssj_graph::GraphHandle::new_oracle` is the
//! mutex-serialized reference the tests compare it against). Details in
//! `sssj_graph`'s module docs (snapshot cadence, read-your-writes) and
//! `sssj_net`'s event-loop docs (push framing, drop policy).
//!
//! # Historical queries & backfill
//!
//! [`JoinBuilder::history`] (spec key `history=<dir>`, requires
//! `durable=`) redirects horizon GC from deletion into an **archive**:
//! retired WAL segments and expired graph edges are compacted into
//! immutable, CRC-framed, sorted segment files under `<dir>` (the
//! `sssj-segments` subsystem), published under the same atomic-rename
//! `MANIFEST` discipline as checkpoints — a crash mid-compaction leaves
//! either the WAL segment or the published archive pair, never neither.
//! Graph queries then gain a **time-travel** form: append `at=<t>` to
//! `neighbors`/`topk`/`component` over the net protocol (grammar in
//! `sssj_net::protocol`), in `sssj graph --query '… at=<t>'`, or call
//! the `*_at` methods on `sssj_segments::HistoryHandle` — each answered
//! from an overlay of the live window and the overlapping segments. And
//! `sssj backfill <dir>` (library: `sssj_segments::backfill`) re-joins
//! an archived time range under *new* parameters — a lower θ, a
//! different λ — without touching the live store.
//!
//! ```
//! use sssj_core::{JoinBuilder, JoinSpec};
//!
//! let spec = JoinBuilder::new(0.7, 0.1)
//!     .durable("/var/sssj/wal")
//!     .graph()
//!     .history("/var/sssj/hist")
//!     .spec()
//!     .clone();
//! assert_eq!(
//!     spec.to_string(),
//!     "str-l2?theta=0.7&lambda=0.1&durable=/var/sssj/wal&graph&history=/var/sssj/hist"
//! );
//! assert!(spec.validate().is_ok());
//! let reparsed: JoinSpec = spec.to_string().parse().unwrap();
//! assert_eq!(reparsed, spec);
//!
//! // history= compacts the durable store's GC stream, so it cannot
//! // exist without the durable base — the grammar rejects the orphan.
//! let err = "str-l2?theta=0.7&lambda=0.1&history=/tmp/h"
//!     .parse::<JoinSpec>()
//!     .unwrap_err();
//! assert!(err.to_string().contains("durable"), "{err}");
//! ```
//!
//! Building a history-wrapped spec goes through the one factory once
//! `sssj_segments::register_spec_builder()` has run;
//! `sssj_segments::build_with_handles` additionally hands back the
//! graph and history handles the queries are served from. A runnable
//! serve → expire → time-travel doctest lives at the `sssj` facade
//! crate root.
//!
//! # Observability
//!
//! Every pipeline built through [`JoinSpec::build`] is instrumented by
//! default: the factory wraps the finished engine in a transparent
//! telemetry tap ([`crate::telemetry::TelemetryJoin`]) that bumps the
//! process-global registry (`sssj_metrics::registry`) — records and
//! pairs on the hot path, candidate/skip shape counters (labeled by
//! engine) flushed from the engines' own statistics on the cold paths.
//! The other runtime subsystems register their own series the same way:
//! the sharded router, the durable store's WAL and checkpoints, the
//! history tier's compactor, the graph's snapshot publisher, and the
//! net server's per-verb request counters and latency summaries.
//!
//! Recording is a relaxed atomic op on a `&'static` handle — no locks,
//! no allocation, safe inside the zero-alloc steady state — and
//! `SSSJ_TELEMETRY=off` (read once at startup) collapses every mutator
//! to a single relaxed load + branch. Telemetry only ever *observes*:
//! the CI telemetry-off lane proves the whole suite byte-identical with
//! the registry dark.
//!
//! Naming follows `sssj_<crate>_<noun>[_<unit>][_total]` — monotone
//! counters end `_total`, durations are seconds (`_seconds`), sizes are
//! bytes (`_bytes`). Labels are for low-cardinality dimensions only (a
//! verb, an engine name, a shard ordinal): every distinct label set is
//! a leaked allocation held for the process lifetime, so keep the cross
//! product small — never a record id, node id or timestamp. To add a
//! metric, resolve the handle once at construction time
//! (`Registry::global().counter("sssj_mycrate_widgets_total", …)`),
//! store the `&'static` in your struct, and bump it from the hot path;
//! see `sssj_metrics::registry`'s module docs for the full contract.
//!
//! Export is pull: the net protocol's `METRICS` verb serves the
//! Prometheus text exposition — recorder series as full cumulative
//! histograms (`_bucket{le=…}`/`_sum`/`_count`) — scrape it with `sssj
//! metrics <addr>` (grammar in `sssj_net::protocol`), and `sssj serve
//! --metrics-log FILE` appends one JSON snapshot line per second for
//! offline correlation (`--metrics-log-max-bytes N` bounds the file
//! with one-deep rotation). Two always-on probes ride along: a
//! slow-query log (`SSSJ_SLOW_MS=<n>` logs any request over the
//! threshold, rate limited) and the event-loop stall detector
//! (`sssj_net_loop_stalls_total`, also the `G loop_stalls=` line on
//! every event-loop `STATS` reply).
//!
//! Beside the counter registry sits the **flight recorder**
//! (`sssj_metrics::trace`): an always-on span/event tracing layer built
//! on per-thread, lock-free, fixed-width seqlock rings. Recording a
//! span is a clock read plus a handful of relaxed stores — never an
//! allocation, never a lock — and `SSSJ_TRACE=off` (read once)
//! collapses every probe to one relaxed load + branch, proven
//! byte-invisible by its own CI lane exactly like the registry's. The
//! stages that bump counters also record spans: record ingest,
//! candidate generation, router flush and per-shard delivery, WAL
//! append and fsync, checkpoints, graph snapshot publishes, segment
//! compactions, and net request handling — each stamped with a
//! per-request trace id that rides the router's batches across thread
//! boundaries, so one record's journey through the whole pipeline is
//! reconstructible from a single dump.
//!
//! Dump it three ways: the net `TRACE [n]` verb (newest `n` events,
//! watermark-clocked, wire grammar in `sssj_net::protocol`); `sssj
//! trace <addr> [--out FILE]`, which renders the dump as Chrome
//! trace-event JSON loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`; and `sssj serve --trace-log FILE` for continuous
//! wire-format capture (rendered later with `sssj trace --from-log`).
//! The probes feed it too: a request over `SSSJ_SLOW_MS` logs its whole
//! span tree, and an event-loop stall or a server panic dumps the
//! recorder to stderr — the last events before trouble are usually the
//! diagnosis. A runnable serve → trace doctest lives at the `sssj`
//! facade crate root.

use sssj_index::IndexKind;
use sssj_types::{DecayModel, SimilarPair, StreamRecord};

use crate::algorithm::StreamJoin;
use crate::config::SssjConfig;
use crate::spec::{DecaySpec, EngineSpec, JoinSpec, LshSpec, ShardedInner, SpecError, WrapperSpec};

/// Fluent configuration of a streaming join — sugar over [`JoinSpec`].
///
/// ```
/// use sssj_core::JoinBuilder;
///
/// let join = JoinBuilder::new(0.7, 0.01).minibatch().build();
/// assert_eq!(join.name(), "MB-L2");
/// ```
#[derive(Clone, Debug)]
pub struct JoinBuilder {
    spec: JoinSpec,
}

impl JoinBuilder {
    /// Starts from the problem parameters; defaults to the paper's
    /// recommended STR-L2.
    pub fn new(theta: f64, lambda: f64) -> Self {
        JoinBuilder {
            spec: JoinSpec::new(theta, lambda),
        }
    }

    /// Derives λ from the §3 recipe: the largest gap at which identical
    /// items still matter.
    pub fn from_horizon(theta: f64, tau: f64) -> Self {
        JoinBuilder {
            spec: JoinSpec::from_horizon(theta, tau),
        }
    }

    /// Starts from an explicit spec (e.g. one parsed from its text form).
    pub fn from_spec(spec: JoinSpec) -> Self {
        JoinBuilder { spec }
    }

    /// Selects the MiniBatch framework.
    pub fn minibatch(mut self) -> Self {
        self.spec.engine = EngineSpec::MiniBatch;
        self
    }

    /// Selects the Streaming framework (the default).
    pub fn streaming(mut self) -> Self {
        self.spec.engine = EngineSpec::Streaming;
        self
    }

    /// Selects the index variant (default [`IndexKind::L2`]).
    pub fn index(mut self, kind: IndexKind) -> Self {
        self.spec.index = kind;
        self
    }

    /// Generalises the decay to an arbitrary [`DecayModel`] (the engine
    /// becomes the L2-only generic-decay join; λ is carried by the
    /// model).
    pub fn decay_model(mut self, model: DecayModel) -> Self {
        self.spec.engine = EngineSpec::GenericDecay(DecaySpec::new(model));
        self.spec.lambda = 0.0;
        self
    }

    /// Enables or ablates the decay engine's window-max candidate bound
    /// (the `bounds=wmax|l2` spec key). Only meaningful after
    /// [`JoinBuilder::decay_model`]; panics otherwise.
    pub fn decay_bounds(mut self, window_max: bool) -> Self {
        match &mut self.spec.engine {
            EngineSpec::GenericDecay(d) => d.window_max = window_max,
            engine => panic!(
                "decay_bounds applies to the decay engine, not {:?}",
                engine.keyword()
            ),
        }
        self
    }

    /// Caps output at the `k` best matches per arrival.
    pub fn top_k(mut self, k: u32) -> Self {
        self.spec.engine = EngineSpec::TopK(k);
        self
    }

    /// Selects the approximate SimHash/banding engine (requires the
    /// `sssj-lsh` crate to be registered in this binary).
    pub fn lsh(mut self, params: LshSpec) -> Self {
        self.spec.engine = EngineSpec::Lsh(params);
        self
    }

    /// Runs the join across `shards` worker threads of STR workers
    /// (requires the `sssj-parallel` crate to be registered in this
    /// binary).
    pub fn sharded(self, shards: u32) -> Self {
        self.sharded_inner(shards, ShardedInner::Streaming)
    }

    /// Runs the join across `shards` worker threads of the given inner
    /// engine — `sharded?shards=N&inner=…` as a builder call. Queries are
    /// routed candidate-aware for dimension-indexed inners (str/mb/decay)
    /// and broadcast for lsh.
    pub fn sharded_inner(mut self, shards: u32, inner: ShardedInner) -> Self {
        self.spec.engine = EngineSpec::Sharded { shards, inner };
        self
    }

    /// Tolerates records arriving up to `slack` time units out of order
    /// by wrapping the join in a [`crate::ReorderBuffer`]; hopelessly
    /// late records are counted and dropped. Zero (the default) requires
    /// sorted input. The last call wins — a later `0` removes the
    /// wrapper again, matching the pre-spec field semantics.
    pub fn reorder_slack(mut self, slack: f64) -> Self {
        assert!(
            slack.is_finite() && slack >= 0.0,
            "slack must be finite and non-negative: {slack}"
        );
        self.spec
            .wrappers
            .retain(|w| !matches!(w, WrapperSpec::Reorder(_)));
        if slack > 0.0 {
            self.spec.wrappers.push(WrapperSpec::Reorder(slack));
        }
        self
    }

    /// Shadows the join with the exact oracle ([`crate::CheckedJoin`]) —
    /// a debugging aid, O(n·w) like the oracle. Idempotent.
    pub fn checked(mut self) -> Self {
        if !self.spec.wrappers.contains(&WrapperSpec::Checked) {
            self.spec.wrappers.push(WrapperSpec::Checked);
        }
        self
    }

    /// Makes the join durable: WAL + checkpoints under `dir`
    /// (`sssj-store`; resumes when the directory already holds a
    /// manifest — see the module docs' Durability section). Replaces any
    /// previous durable directory.
    pub fn durable(mut self, dir: impl Into<String>) -> Self {
        self.spec
            .wrappers
            .retain(|w| !matches!(w, WrapperSpec::Durable(_)));
        self.spec
            .wrappers
            .insert(0, WrapperSpec::Durable(dir.into()));
        self
    }

    /// Maintains a live similarity graph over the pair stream (spec key
    /// `graph`; built by `sssj-graph` once registered — see the
    /// [module docs](self) for the query surface). Placed directly
    /// above the durable wrapper when one is present, so graph edges
    /// ride the checkpoint; idempotent.
    pub fn graph(mut self) -> Self {
        if self.spec.wrappers.contains(&WrapperSpec::Graph) {
            return self;
        }
        let at = usize::from(matches!(
            self.spec.wrappers.first(),
            Some(WrapperSpec::Durable(_))
        ));
        self.spec.wrappers.insert(at, WrapperSpec::Graph);
        self
    }

    /// Archives what horizon GC would delete into an immutable segment
    /// tier under `dir` (spec key `history=<dir>`; built by
    /// `sssj-segments` once registered — see the module docs'
    /// [Historical queries & backfill](self) section). Requires a
    /// durable base; placed directly above the graph wrapper when one
    /// is present, else above the durable wrapper. Replaces any
    /// previous history directory.
    pub fn history(mut self, dir: impl Into<String>) -> Self {
        self.spec
            .wrappers
            .retain(|w| !matches!(w, WrapperSpec::History(_)));
        let at = self
            .spec
            .wrappers
            .iter()
            .position(|w| matches!(w, WrapperSpec::Graph))
            .or_else(|| {
                self.spec
                    .wrappers
                    .iter()
                    .position(|w| matches!(w, WrapperSpec::Durable(_)))
            })
            .map_or(0, |i| i + 1);
        self.spec
            .wrappers
            .insert(at, WrapperSpec::History(dir.into()));
        self
    }

    /// The resolved configuration.
    pub fn config(&self) -> SssjConfig {
        self.spec.config()
    }

    /// The underlying declarative spec.
    pub fn spec(&self) -> &JoinSpec {
        &self.spec
    }

    /// Builds the join through the single [`JoinSpec::build`] factory.
    ///
    /// Panics when the spec is invalid (mismatched engine/wrapper
    /// combination, unregistered extension engine); use
    /// [`JoinBuilder::try_build`] to handle those as values.
    pub fn build(self) -> Box<dyn StreamJoin> {
        let spec = self.spec;
        spec.build()
            .unwrap_or_else(|e| panic!("JoinBuilder: {e} (spec: {spec})"))
    }

    /// Builds the join, reporting invalid specs as [`SpecError`]s.
    pub fn try_build(self) -> Result<Box<dyn StreamJoin>, SpecError> {
        self.spec.build()
    }

    /// Builds the join and wraps a record source into a pair iterator.
    pub fn pairs<I>(self, records: I) -> PairIter<I::IntoIter>
    where
        I: IntoIterator<Item = StreamRecord>,
    {
        PairIter::new(self.build(), records.into_iter())
    }
}

/// An iterator adapter: pulls records from a source, pushes out similar
/// pairs as they complete, and flushes buffered output (MiniBatch) when
/// the source ends.
///
/// Pairs are staged in a single reusable buffer that the join appends to
/// directly; a cursor walks it and the buffer is recycled once drained,
/// so no pair is ever copied between containers.
pub struct PairIter<I> {
    join: Box<dyn StreamJoin>,
    source: I,
    /// Pairs produced but not yet yielded; `buf[cursor..]` is pending.
    buf: Vec<SimilarPair>,
    cursor: usize,
    finished: bool,
}

impl<I: Iterator<Item = StreamRecord>> PairIter<I> {
    /// Wraps a join and a record source.
    pub fn new(join: Box<dyn StreamJoin>, source: I) -> Self {
        PairIter {
            join,
            source,
            buf: Vec::new(),
            cursor: 0,
            finished: false,
        }
    }

    /// Access to the underlying join (e.g. for stats after exhaustion).
    pub fn join(&self) -> &dyn StreamJoin {
        self.join.as_ref()
    }
}

impl<I: Iterator<Item = StreamRecord>> Iterator for PairIter<I> {
    type Item = SimilarPair;

    fn next(&mut self) -> Option<SimilarPair> {
        loop {
            if let Some(pair) = self.buf.get(self.cursor) {
                self.cursor += 1;
                return Some(*pair);
            }
            if self.finished {
                return None;
            }
            // Buffer drained: recycle it and let the join append straight
            // into it.
            self.buf.clear();
            self.cursor = 0;
            match self.source.next() {
                Some(record) => self.join.process(&record, &mut self.buf),
                None => {
                    self.finished = true;
                    self.join.finish(&mut self.buf);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_types::{vector::unit_vector, Timestamp};

    fn stream() -> Vec<StreamRecord> {
        vec![
            StreamRecord::new(0, Timestamp::new(0.0), unit_vector(&[(1, 1.0)])),
            StreamRecord::new(1, Timestamp::new(1.0), unit_vector(&[(1, 1.0)])),
            StreamRecord::new(2, Timestamp::new(2.0), unit_vector(&[(9, 1.0)])),
            StreamRecord::new(3, Timestamp::new(3.0), unit_vector(&[(1, 1.0)])),
        ]
    }

    #[test]
    fn builder_graph_places_the_wrapper() {
        let spec = JoinBuilder::new(0.7, 0.01).graph().graph().spec().clone();
        assert_eq!(spec.to_string(), "str-l2?theta=0.7&lambda=0.01&graph");
        // With durable, graph lands directly above it (position 1).
        let spec = JoinBuilder::new(0.7, 0.01)
            .graph()
            .durable("/var/sssj")
            .graph()
            .spec()
            .clone();
        assert!(spec.validate().is_ok(), "{spec}");
        assert_eq!(
            spec.to_string(),
            "str-l2?theta=0.7&lambda=0.01&durable=/var/sssj&graph"
        );
    }

    #[test]
    fn builder_history_places_the_wrapper() {
        // Above the graph when present (replacing an earlier tier)…
        let spec = JoinBuilder::new(0.7, 0.01)
            .durable("/var/sssj/wal")
            .history("/old")
            .graph()
            .history("/var/sssj/hist")
            .spec()
            .clone();
        assert!(spec.validate().is_ok(), "{spec}");
        assert_eq!(
            spec.to_string(),
            "str-l2?theta=0.7&lambda=0.01&durable=/var/sssj/wal&graph&history=/var/sssj/hist"
        );
        // …and directly above a bare durable base otherwise.
        let spec = JoinBuilder::new(0.7, 0.01)
            .durable("/var/sssj/wal")
            .history("/var/sssj/hist")
            .spec()
            .clone();
        assert!(spec.validate().is_ok(), "{spec}");
        assert_eq!(
            spec.to_string(),
            "str-l2?theta=0.7&lambda=0.01&durable=/var/sssj/wal&history=/var/sssj/hist"
        );
    }

    #[test]
    fn builder_selects_combination() {
        assert_eq!(JoinBuilder::new(0.5, 0.1).build().name(), "STR-L2");
        assert_eq!(
            JoinBuilder::new(0.5, 0.1)
                .minibatch()
                .index(IndexKind::Inv)
                .build()
                .name(),
            "MB-INV"
        );
        assert_eq!(
            JoinBuilder::new(0.5, 0.1)
                .minibatch()
                .streaming()
                .build()
                .name(),
            "STR-L2"
        );
    }

    #[test]
    fn builder_is_a_front_end_over_the_spec() {
        let b = JoinBuilder::new(0.5, 0.1)
            .minibatch()
            .index(IndexKind::Inv)
            .reorder_slack(4.0);
        assert_eq!(
            b.spec().to_string(),
            "mb-inv?theta=0.5&lambda=0.1&reorder=4"
        );
        // Round-trip through the compact form builds the same pipeline.
        let spec: JoinSpec = b.spec().to_string().parse().unwrap();
        assert_eq!(
            JoinBuilder::from_spec(spec).build().name(),
            b.build().name()
        );
    }

    #[test]
    fn builder_reaches_extended_variants() {
        assert_eq!(
            JoinBuilder::new(0.5, 0.0)
                .decay_model(sssj_types::DecayModel::linear(8.0))
                .build()
                .name(),
            "STR-L2[linear:8]"
        );
        assert_eq!(
            JoinBuilder::new(0.5, 0.1).top_k(2).build().name(),
            "STR-L2-top2"
        );
        assert_eq!(
            JoinBuilder::new(0.5, 0.1).checked().build().name(),
            "checked(STR-L2)"
        );
        // Invalid combinations surface as errors, not panics, via try_build.
        assert!(JoinBuilder::new(0.5, 0.1).top_k(0).try_build().is_err());
    }

    #[test]
    fn builder_reorder_slack_fixes_disorder() {
        let mut shuffled = stream();
        shuffled.swap(0, 1); // timestamps 1.0, 0.0, 2.0, 3.0
        let strict: Vec<_> = JoinBuilder::new(0.5, 0.2).pairs(stream()).collect();
        let buffered: Vec<_> = JoinBuilder::new(0.5, 0.2)
            .reorder_slack(5.0)
            .pairs(shuffled)
            .collect();
        let mut a: Vec<_> = strict.iter().map(|p| p.key()).collect();
        let mut b: Vec<_> = buffered.iter().map(|p| p.key()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(
            JoinBuilder::new(0.5, 0.2).reorder_slack(5.0).build().name(),
            "Reorder(STR-L2)"
        );
    }

    #[test]
    fn wrapper_methods_are_last_call_wins_and_idempotent() {
        // A later reorder_slack replaces the earlier one; 0 disables.
        let b = JoinBuilder::new(0.5, 0.1)
            .reorder_slack(5.0)
            .reorder_slack(0.0);
        assert!(b.spec().wrappers.is_empty());
        let b = JoinBuilder::new(0.5, 0.1)
            .reorder_slack(5.0)
            .reorder_slack(2.0);
        assert_eq!(b.spec().wrappers, vec![WrapperSpec::Reorder(2.0)]);
        // checked never stacks; a later durable directory replaces the
        // earlier one.
        let b = JoinBuilder::new(0.5, 0.1).checked().checked();
        assert_eq!(b.spec().wrappers, vec![WrapperSpec::Checked]);
        let b = JoinBuilder::new(0.5, 0.1).durable("/a").durable("/b");
        assert_eq!(b.spec().wrappers, vec![WrapperSpec::Durable("/b".into())]);
    }

    #[test]
    fn from_horizon_sets_lambda() {
        let b = JoinBuilder::from_horizon(0.5, 100.0);
        assert!((b.config().tau() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn pair_iter_yields_streaming_pairs() {
        let pairs: Vec<_> = JoinBuilder::new(0.5, 0.2).pairs(stream()).collect();
        let keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
        // (0,3) survives too: e^{-0.2·3} ≈ 0.55 ≥ 0.5.
        assert_eq!(keys, vec![(0, 1), (1, 3), (0, 3)]);
    }

    #[test]
    fn pair_iter_flushes_minibatch_at_end() {
        // MB reports within-window pairs only at flush; the iterator must
        // still surface them.
        let str_pairs: Vec<_> = JoinBuilder::new(0.5, 0.2).pairs(stream()).collect();
        let mb_pairs: Vec<_> = JoinBuilder::new(0.5, 0.2)
            .minibatch()
            .pairs(stream())
            .collect();
        let mut a: Vec<_> = str_pairs.iter().map(|p| p.key()).collect();
        let mut b: Vec<_> = mb_pairs.iter().map(|p| p.key()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn pair_iter_is_fused_after_end() {
        let mut it = JoinBuilder::new(0.5, 0.2).pairs(stream());
        while it.next().is_some() {}
        assert!(it.next().is_none());
        assert!(it.join().stats().pairs_output > 0);
    }
}
