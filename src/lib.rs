#![warn(missing_docs)]
//! # sssj — streaming similarity self-join
//!
//! A Rust implementation of *"Streaming Similarity Self-Join"*
//! (De Francisci Morales & Gionis, VLDB 2016): find all pairs of items in
//! an unbounded stream whose **time-dependent similarity**
//!
//! ```text
//! sim_Δt(x, y) = dot(x, y) · exp(-λ·|t(x) − t(y)|)
//! ```
//!
//! exceeds a threshold `θ`. The exponential decay yields a *time horizon*
//! `τ = ln(1/θ)/λ` beyond which no pair can join, so the algorithms run
//! in bounded memory.
//!
//! ## Quick start
//!
//! Every join variant in the workspace is described by one declarative
//! [`core::spec::JoinSpec`] — engine, index, θ/λ, wrappers — with a
//! compact text form and a single factory. The CLI, the TCP protocol
//! and the benchmark harness all speak it:
//!
//! ```
//! use sssj::prelude::*;
//!
//! // θ = 0.7, λ = 0.1  →  horizon τ ≈ 3.6 time units.
//! let spec: JoinSpec = "str-l2?theta=0.7&lambda=0.1".parse().unwrap();
//! let mut join = spec.build().unwrap(); // the paper's best variant
//!
//! let stream = vec![
//!     StreamRecord::new(0, Timestamp::new(0.0), unit_vector(&[(1, 1.0), (2, 1.0)])),
//!     StreamRecord::new(1, Timestamp::new(1.0), unit_vector(&[(1, 1.0), (2, 1.0)])),
//!     StreamRecord::new(2, Timestamp::new(90.0), unit_vector(&[(1, 1.0), (2, 1.0)])),
//! ];
//!
//! let mut out = Vec::new();
//! for record in &stream {
//!     join.process(record, &mut out);
//! }
//! join.finish(&mut out);
//!
//! // 0–1 are near in time; 2 arrives far beyond the horizon.
//! assert_eq!(out.len(), 1);
//! assert_eq!((out[0].left, out[0].right), (0, 1));
//! ```
//!
//! The same grammar reaches the whole family — `mb-inv`,
//! `decay?model=window:10`, `topk-l2?k=3`, `lsh?verify=est`,
//! `sharded?shards=4&inner=mb-l2ap` (candidate-aware sharding around any
//! shardable inner engine), plus `reorder=`/`checked`/`durable=`/
//! `graph`/`history=` wrappers (see [`core::spec`] for the grammar).
//! The LSH, sharded and durable constructors live in their own crates:
//! call [`register_all_engines`] once before building those from specs
//! in an embedding application (the workspace binaries — the CLI, the net
//! server, the bench harness — already register them at startup).
//!
//! ## Durability: serve → kill → recover
//!
//! Appending `durable=<dir>` to a spec wraps the engine in the
//! [`store`] subsystem: a segmented, CRC-framed write-ahead log of the
//! record stream plus periodic checkpoints published under an atomic
//! `MANIFEST`. Building the same spec again — after a crash, a
//! `kill -9`, a redeploy — *resumes* from that state: the WAL tail is
//! replayed through a fresh engine with output suppressed up to the
//! last checkpoint, so no pair is delivered twice, and nothing inside
//! the horizon is lost. The worked example (`sssj serve` → kill →
//! `sssj recover`, shown here via the library API the CLI wraps):
//!
//! ```
//! use sssj::prelude::*;
//!
//! # let dir = std::env::temp_dir().join(format!("sssj-facade-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! sssj::register_all_engines();
//! let spec: JoinSpec = format!("str-l2?theta=0.7&lambda=0.1&durable={}", dir.display())
//!     .parse().unwrap();
//!
//! // First incarnation: `sssj serve --durable <dir>` in the real
//! // deployment. Two near-duplicates pair up; then the process dies
//! // without warning (we just drop the join — no finish, no flush).
//! let mut join = spec.build().unwrap();
//! let mut out = Vec::new();
//! join.process(&StreamRecord::new(0, Timestamp::new(0.0), unit_vector(&[(7, 1.0)])), &mut out);
//! join.process(&StreamRecord::new(1, Timestamp::new(1.0), unit_vector(&[(7, 1.0)])), &mut out);
//! assert_eq!(out.len(), 1); // pair (0, 1) was delivered pre-crash
//! drop(join);               // ⚡ crash
//!
//! // Second incarnation: `sssj recover <dir>` / restarting the server.
//! // The store replays its WAL; the session continues where it stopped
//! // (resume_point = 2 records ingested) and new arrivals still pair
//! // with pre-crash, in-horizon records.
//! let mut join = spec.build().unwrap();
//! let (ingested, watermark) = join.resume_point().unwrap();
//! assert_eq!(ingested, 2);
//! let mut out = Vec::new();
//! join.process(
//!     &StreamRecord::new(2, Timestamp::new(watermark + 0.5), unit_vector(&[(7, 1.0)])),
//!     &mut out,
//! );
//! assert!(out.iter().any(|p| (p.left, p.right) == (1, 2)));
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! Recovery semantics, the WAL frame and `MANIFEST` formats, and the
//! crash-differential guarantee are documented in [`store`].
//!
//! ## Querying the live graph: serve → query
//!
//! Appending `graph` to a spec turns the join's pair firehose into
//! **queryable live state** (the [`graph`] subsystem): every delivered
//! pair becomes an edge stamped with its delivery time and expiring at
//! the pipeline's horizon, and the graph answers *who is similar to X
//! right now* (`neighbors`), *X's best matches* (`topk`), and *which
//! cluster is X in* (`component`) — over the net protocol's
//! `QUERY`/`SUBSCRIBE` verbs, the CLI's `sssj graph` command, or the
//! library handle. The worked example (`sssj net-serve` → queries, via
//! the same server and client the CLI wraps):
//!
//! ```
//! use sssj::prelude::*;
//! use sssj::net::{ConfigRequest, JoinClient, Server, ServerOptions};
//!
//! let server = Server::bind("127.0.0.1:0", ServerOptions::default())?;
//! let mut client = JoinClient::connect(server.local_addr())?;
//! client.configure(ConfigRequest {
//!     spec: Some("str-l2?theta=0.6&tau=10&graph".parse().unwrap()),
//!     ..Default::default()
//! })?;
//! client.subscribe(0)?; // push me every new edge touching record 0
//!
//! // Stream three near-duplicates; pairs flow back as usual...
//! client.send_vector(0.0, &[(7, 1.0)])?;
//! client.send_vector(1.0, &[(7, 1.0)])?;
//! client.send_vector(2.0, &[(7, 1.0)])?;
//!
//! // ...and the session now also serves the live graph.
//! assert_eq!(client.query_neighbors(1)?.len(), 2);
//! let best = client.query_topk(1, 1)?;
//! assert_eq!(best[0].key(), (0, 1));
//! let (root, size) = client.query_component(2)?;
//! assert_eq!((root, size), (0, 3), "records 0..3 form one cluster");
//! assert_eq!(client.take_updates().len(), 2, "pushed U lines for node 0");
//! client.quit()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Offline, `sssj graph tweets.bin --spec 'str-l2?theta=0.7&tau=10'
//! --query 'topk 17 3; component 17; stats'` answers the same queries
//! after driving a file through the pipeline (`--brute-force` recomputes
//! them from the emitted-pair log — the differential check CI runs).
//! Combined with `durable=<dir>`, the graph's live edges ride the
//! checkpoint aux blob, so a recovered session serves the same graph
//! without replaying beyond the WAL horizon (see [`graph`]).
//!
//! ### Shared serving: snapshot reads and real server push
//!
//! The session above owns its pipeline; a **shared** server
//! (`ServerOptions { shared: true }`, CLI `sssj net-serve --shared`)
//! serves ONE pipeline to every connection on a multiplexed event
//! loop. Queries answer wait-free from the graph's published
//! **snapshot** (ingest never blocks on readers; staleness is bounded
//! by the snapshot watermark, which publishes before each reply is
//! flushed — so you always read your own writes), and `SUBSCRIBE`
//! becomes real server push: updates triggered by *other* clients'
//! ingest arrive without the subscriber writing a byte, framed between
//! replies with a bounded per-connection queue (overflow drops oldest
//! and reports one coalesced `D <n>`; grammar in [`net::protocol`]):
//!
//! ```
//! use sssj::net::{JoinClient, Server, ServerOptions, SessionDefaults};
//! use std::time::Duration;
//!
//! let server = Server::bind("127.0.0.1:0", ServerOptions {
//!     defaults: SessionDefaults {
//!         spec: "str-l2?theta=0.6&tau=10&graph".parse().unwrap(),
//!         ..Default::default()
//!     },
//!     shared: true, // one pipeline, every connection
//!     ..Default::default()
//! })?;
//! let mut watcher = JoinClient::connect(server.local_addr())?;
//! watcher.subscribe(0)?; // ...and the watcher never writes again.
//!
//! let mut feeder = JoinClient::connect(server.local_addr())?;
//! feeder.send_vector(0.0, &[(7, 1.0)])?;
//! feeder.send_vector(1.0, &[(7, 1.0)])?; // edge (0,1) forms...
//!
//! let mut pushed = Vec::new(); // ...and is pushed to the watcher.
//! while pushed.is_empty() {
//!     pushed.extend(watcher.poll_updates(Duration::from_millis(300))?);
//! }
//! assert_eq!(pushed[0].0, 0, "an update for the watched node");
//! assert_eq!(feeder.query_neighbors(0)?.len(), 1); // snapshot read
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Historical queries & backfill
//!
//! The live graph *forgets* at the horizon — that is what keeps it
//! bounded. Appending `history=<dir>` after `durable=` (the
//! [`segments`] subsystem) redirects horizon GC from deletion into an
//! archive: retired WAL segments and expired graph edges are compacted
//! into immutable, CRC-framed, sorted segment files, and every graph
//! query gains a time-travel form — `neighbors/topk/component … at=<t>`
//! over the net protocol, `sssj graph --query '… at=<t>'`, or the
//! library handle — answered from an overlay of the live window and the
//! overlapping segments. `sssj backfill <dir>` re-joins an archived
//! range under new parameters. The worked example (serve → expire →
//! time travel):
//!
//! ```
//! use sssj::prelude::*;
//!
//! # let dir = std::env::temp_dir().join(format!("sssj-facade-hist-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! sssj::register_all_engines();
//! let spec: JoinSpec = format!(
//!     "str-l2?theta=0.6&tau=4&durable={}&graph&history={}",
//!     dir.join("wal").display(),
//!     dir.join("hist").display(),
//! ).parse().unwrap();
//!
//! let (mut join, graph, history) = sssj::segments::build_with_handles(&spec).unwrap();
//! let graph = graph.expect("graph wrapper present");
//! let mut out = Vec::new();
//! // Two near-duplicates pair at t = 1…
//! join.process(&StreamRecord::new(0, Timestamp::new(0.0), unit_vector(&[(7, 1.0)])), &mut out);
//! join.process(&StreamRecord::new(1, Timestamp::new(1.0), unit_vector(&[(7, 1.0)])), &mut out);
//! assert_eq!(out.len(), 1);
//! // …then the stream moves on, far past the τ = 4 horizon.
//! for i in 0..40u64 {
//!     let r = StreamRecord::new(
//!         2 + i, Timestamp::new(20.0 + i as f64), unit_vector(&[(100 + i as u32, 1.0)]));
//!     join.process(&r, &mut out);
//! }
//!
//! // The live graph has forgotten the pair; the history tier has not.
//! assert!(graph.neighbors(0, 59.0).is_empty());
//! let then = history.neighbors_at(Some(&graph), 0, 2.0, spec.horizon());
//! assert_eq!(then.len(), 1);
//! assert_eq!(then[0].neighbor, 1);
//! assert_eq!(
//!     history.component_at(Some(&graph), 0, 2.0, spec.horizon()),
//!     Some((0, 2)),
//! );
//! # drop(join);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! Segment formats, the compaction crash contract and the backfill API
//! are documented in [`segments`]; the `at=` wire grammar in
//! [`net::protocol`].
//!
//! ## Observability
//!
//! Telemetry is always on: every spec-built pipeline and every runtime
//! subsystem (router, WAL, compactor, graph publisher, net server)
//! records into the process-global registry in [`metrics`]
//! (`sssj_metrics::registry`). Handles are resolved once and recording
//! is a relaxed atomic op — no locks, no allocation, so it rides inside
//! the zero-alloc steady state; `SSSJ_TELEMETRY=off` reduces every
//! mutator to one relaxed load + branch and provably never changes any
//! other output (CI runs the full suite in that lane).
//!
//! Series are named `sssj_<crate>_<noun>[_unit][_total]` with
//! low-cardinality labels only (verb, engine, shard — never ids or
//! timestamps; each label set leaks one allocation for the process
//! lifetime). Adding a metric is: resolve the `&'static` handle at
//! construction time, store it, bump it from the hot path — the full
//! contract and naming rules are in `sssj_metrics::registry`'s module
//! docs and the Observability section of [`core::api`].
//!
//! Scrape a running server over the wire (`METRICS` verb, Prometheus
//! text exposition; `sssj metrics <addr>` is the CLI spelling, and
//! `sssj serve --metrics-log FILE` appends JSON snapshots instead):
//!
//! ```
//! use sssj::net::{JoinClient, Server, ServerOptions};
//!
//! let server = Server::bind("127.0.0.1:0", ServerOptions::default())?;
//! let mut client = JoinClient::connect(server.local_addr())?;
//! client.send_vector(0.0, &[(7, 1.0)])?;
//! client.send_vector(1.0, &[(7, 1.0)])?;
//!
//! let scrape = client.metrics()?; // Prometheus text-exposition lines
//! if sssj::metrics::telemetry_enabled() {
//!     assert!(scrape.iter().any(|l| l.starts_with("sssj_core_records_total")));
//!     assert!(scrape.iter().any(|l| l.starts_with("sssj_net_requests_total")));
//! } else {
//!     assert!(scrape.is_empty()); // the off lane scrapes empty
//! }
//! client.quit()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Recorder series scrape as full cumulative Prometheus histograms
//! (`_bucket{le=…}`/`_sum`/`_count`), so latency quantiles are computed
//! server-side by any Prometheus-compatible backend.
//!
//! Beside the registry sits the **flight recorder** (`sssj::metrics::
//! trace`): spans and instants recorded into per-thread lock-free rings
//! — no allocation, no locks, and `SSSJ_TRACE=off` reduces every probe
//! to one relaxed load + branch (its own CI lane proves the suite
//! byte-identical with tracing dark). Every pipeline stage records
//! spans — ingest, candidate generation, shard fan-out, WAL, graph
//! publish, net requests — correlated by a per-request trace id that
//! crosses thread boundaries. The `TRACE [n]` verb dumps the newest
//! events over the wire, and `sssj trace <addr> [--out FILE]` renders
//! the dump as Chrome trace-event JSON for Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`; `sssj serve
//! --trace-log FILE` captures continuously instead:
//!
//! ```
//! use sssj::net::{JoinClient, Server, ServerOptions};
//! use sssj::metrics::trace::{chrome_trace_json, Stage, TraceEvent};
//!
//! let server = Server::bind("127.0.0.1:0", ServerOptions::default())?;
//! let mut client = JoinClient::connect(server.local_addr())?;
//! client.send_vector(0.0, &[(7, 1.0)])?;
//! client.send_vector(1.0, &[(7, 1.0)])?;
//!
//! let dump = client.trace(256)?; // header line + wire-format events
//! assert!(dump[0].starts_with("# now="), "watermark-clocked header");
//! let events: Vec<TraceEvent> = dump[1..]
//!     .iter()
//!     .filter_map(|l| TraceEvent::from_wire(l))
//!     .collect();
//! if sssj::metrics::trace_enabled() {
//!     // The records' ingest spans arrived, attributed to their requests …
//!     assert!(events.iter().any(|e| e.stage == Stage::Ingest && e.trace_id != 0));
//!     // … and the dump renders straight into Perfetto's input format.
//!     let json = chrome_trace_json(&events);
//!     assert!(json.starts_with('[') && json.contains("\"name\":\"ingest\""));
//! } else {
//!     assert!(events.is_empty()); // the off lane dumps the bare header
//! }
//! client.quit()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Three probes watch the serving path itself: `SSSJ_SLOW_MS=<n>` logs
//! any request slower than `n` ms (rate-limited, with the parsed
//! request, snapshot generation and — with tracing on — the request's
//! whole span tree), the event-loop engine counts iterations that
//! overran the poll interval in `sssj_net_loop_stalls_total` (also the
//! `G loop_stalls=` line on every event-loop `STATS` reply) and dumps
//! the flight recorder when one trips, and a panicking server dumps the
//! recorder's last events before dying.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`types`] | sparse vectors, timestamps, decay (+ memoized decay table), join records |
//! | [`collections`] | flat posting blocks, arrival-ordered row store, epoch accumulator, decayed and windowed maxima |
//! | [`index`] | batch APSS: INV, AP, L2AP, L2 filtering indexes |
//! | [`core`] | the MB and STR streaming frameworks |
//! | [`data`] | synthetic corpora, presets, text/binary formats |
//! | [`baseline`] | exact brute-force oracles |
//! | [`metrics`] | counters, budgets, tables, regression |
//! | [`lsh`] | approximate join: SimHash + banding + time filtering |
//! | [`net`] | TCP join service: line-protocol server and client |
//! | [`parallel`] | dimension-partitioned, candidate-aware sharded execution |
//! | [`store`] | durability: segmented WAL, checkpoints, crash recovery |
//! | [`graph`] | live similarity-graph queries over the pair stream |
//! | [`segments`] | historical tier: compacted segments, time travel, backfill |
//! | [`textsim`] | set-similarity (Jaccard) joins, batch and streaming |
//!
//! ## The flat hot path
//!
//! The STR query/insert loop — the paper's headline cost — is built from
//! flat, reusable structures so that steady-state processing performs
//! **zero heap allocations per record** on the STR-L2 path (asserted by a
//! counting-allocator test in `sssj-core`):
//!
//! * posting lists are single-allocation
//!   [`collections::PostingBlock`]s: packed 32-byte entries, O(1) front
//!   truncation, and the backward time-filtering of §6.2 as a binary
//!   search on the packed time field;
//! * STR keeps `R` and `Q` in one arrival-ordered
//!   [`collections::ArrivalStore`] keyed by row ordinal — columns plus a
//!   FIFO residual arena, sized by the live horizon;
//! * the candidate score array `C[ι(y)]` is a dense, epoch-stamped
//!   [`collections::ScoreAccumulator`] sliding over the live key window
//!   (STR's row ordinals) — O(1) reset, no hashing, with a spill table
//!   for arbitrary keys — and STR verifies only the slots its survivor
//!   filter keeps over the store's `Q` and time columns;
//! * decay factors come from a quantized upper-bound
//!   [`types::DecayTable`] inside pruning tests (safe: a larger factor
//!   only admits more), built from any non-increasing
//!   [`types::DecayModel`], so one STR engine serves every model
//!   ([`core::Streaming::with_decay`]); the exact factor is reserved for
//!   final verification;
//! * index-construction bounds are replayed in squared space so the
//!   per-coordinate square roots disappear.
//!
//! ## Benchmarks
//!
//! Two systems, two jobs:
//!
//! * **The paper's evaluation** (§7, Figs. 2–9, Tables 1–2, the
//!   ablations and the extensions) runs through one binary, `harness` in
//!   `crates/bench`: `cargo run --release -p sssj-bench --bin harness --
//!   fig5 --scale 0.1` renders one table and writes its CSV; `harness
//!   --help` lists every experiment.
//! * **Performance of this implementation** is measured only by `bench/`
//!   (`sssj-perf`): `cargo run --release --manifest-path bench/Cargo.toml
//!   -- --workload stack-tweets` for the end-to-end metrics, `… -- trace
//!   --workload stack-tweets` for the per-layer ones. `BENCHMARK.json`
//!   declares the four pinned workloads, every metric with its unit and
//!   direction, and the regression bounds; every run ends with a
//!   correctness gate (oracle prefix, equal pair digests, crash
//!   recovery). See `bench/README.md` for the measurement rules.

pub use sssj_baseline as baseline;
pub use sssj_collections as collections;
pub use sssj_core as core;
pub use sssj_data as data;
pub use sssj_graph as graph;
pub use sssj_index as index;
pub use sssj_lsh as lsh;
pub use sssj_metrics as metrics;
pub use sssj_net as net;
pub use sssj_parallel as parallel;
pub use sssj_segments as segments;
pub use sssj_store as store;
pub use sssj_textsim as textsim;
pub use sssj_types as types;

/// Registers every constructor that lives downstream of `sssj-core`
/// (LSH, sharded, the durable store, the live graph, the historical
/// segment tier) with the [`core::spec::JoinSpec`] factory, through
/// [`core::spec::register`] — the same set as
/// [`net::register_spec_builders`], which it calls. Idempotent; call it
/// once before building `lsh?…` / `sharded-…` / `…durable=` / `…&graph`
/// / `…&history=` specs in an embedding application. (The workspace
/// binaries — CLI, net server, bench harness — already do.)
pub fn register_all_engines() {
    sssj_net::register_spec_builders();
}

/// The one-stop import for applications.
pub mod prelude {
    pub use crate::register_all_engines;
    pub use sssj_core::batch::all_pairs;
    pub use sssj_core::{
        advise, advise_from_examples, run_stream, Advice, Checkpointable, DecaySpec, EngineSpec,
        Framework, JoinBuilder, JoinSpec, LshSpec, MiniBatch, ReorderBuffer, ShardableJoin,
        ShardedInner, SpecError, SssjConfig, StreamJoin, Streaming, TopKJoin, WrapperSpec,
    };
    pub use sssj_graph::{GraphHandle, GraphJoin, GraphStats, SimilarityGraph};
    pub use sssj_index::{BoundPolicy, IndexKind};
    pub use sssj_lsh::{LshJoin, LshParams};
    pub use sssj_parallel::{run_sharded, sharded_run, RoutingMode, ShardReport, ShardedJoin};
    pub use sssj_segments::{
        backfill, BackfillReport, HistoryBoundary, HistoryHandle, HistoryJoin,
    };
    pub use sssj_store::{recover, DurableJoin, DurableOptions, StoreError};
    pub use sssj_types::{
        vector::unit_vector, Decay, DecayModel, SimilarPair, SparseVector, SparseVectorBuilder,
        StreamRecord, Timestamp, VectorId,
    };
}
