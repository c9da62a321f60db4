//! The traced run: where one workload's microseconds go, layer by layer.
//!
//! A fixed prefix of the workload's stream is pushed, closed-loop and on
//! fresh state, through a ladder of rungs, each adding one layer to the
//! one before: `core` (bare engine, telemetry and flight recorder forced
//! dark) → `metrics` (both armed, the shipping default) → `store`
//! (`+durable=`) → `graph` (`+graph`) → `segments` (`+history=`) →
//! `net.session` (the same spec through `Request::parse` +
//! `Session::handle`, no socket) → `net.wire` (loopback `Server` +
//! `JoinClient`). A layer's self time is its rung's time minus the rung
//! below, so the deltas sum to the top rung by construction. Every rung
//! must emit the identical pair set.
//!
//! Beside the ladder, micro loops time each layer's public entry points
//! on fixed inputs, and the program's own flight recorder is drained
//! during one extra pass to cross-check the deltas (`bench.stage_gap.*`).
//!
//! The harness records a span around every call it makes into a layer
//! ([`Spans`]) and writes them as Chrome trace-event JSON when the run
//! ends; spans *inside* the program are the program's business.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::str::FromStr;
use std::time::{Duration, Instant};

use sssj_collections::{PostingBlock, ScoreAccumulator};
use sssj_core::{JoinSpec, StreamJoin};
use sssj_graph::GraphHandle;
use sssj_kernels::L2BatchParams;
use sssj_metrics::trace::{self, EventKind, Stage, TraceEvent};
use sssj_metrics::Registry;
use sssj_net::{JoinClient, Request, Response, Session, SessionDefaults};
use sssj_store::{DurableJoin, DurableOptions, Wal};
use sssj_types::{SimilarPair, StreamRecord};

use crate::pacer::{bursty_offsets_ns, pace, since_ns, wait_until, Schedule, Wait};
use crate::run::{check_oracle, dir_bytes, discard_state, RunOpts};
use crate::stats::{iqr_pct, median, percentile, PairDigest};
use crate::workloads::{
    open_local, open_remote, pin_current_thread, query_for, Answer, Cpu, Feed, QueryPlan, Reader,
    Sink, Workload, QUERY_K,
};

/// Name and unit of every per-layer metric, grouped by layer. A traced
/// run prints all of them, whatever the workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.dot_merge_ns", "ns"),
    ("kernels.dot_probe_ns", "ns"),
    ("kernels.l2_batch_ns_per_posting", "ns"),
    ("kernels.decay_batch_ns_per_posting", "ns"),
    ("kernels.partition_ns_per_posting", "ns"),
    ("collections.posting_push_ns", "ns"),
    ("collections.posting_expire_ns", "ns"),
    ("collections.accumulator_add_clear_ns", "ns"),
    ("core.us_per_record", "us"),
    ("core.entries_per_record", "count"),
    ("core.candidates_per_record", "count"),
    ("core.full_sims_per_candidate", "ratio"),
    ("core.pairs_per_full_sim", "ratio"),
    ("core.live_postings_peak", "count"),
    ("core.mb_l2_us_per_record", "us"),
    ("core.spec_build_us", "us"),
    ("metrics.us_per_record", "us"),
    ("metrics.span_ns", "ns"),
    ("metrics.span_dark_ns", "ns"),
    ("metrics.counter_ns", "ns"),
    ("metrics.trace_dropped", "count"),
    ("store.us_per_record", "us"),
    ("store.wal_append_ns", "ns"),
    ("store.wal_bytes_per_record", "bytes"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.wal_segments_collected", "count"),
    ("store.recover_replayed_records", "count"),
    ("graph.us_per_record", "us"),
    ("graph.add_edge_ns", "ns"),
    ("graph.publish_us", "us"),
    ("graph.snapshot_topk_ns", "ns"),
    ("graph.live_edges_peak", "count"),
    ("segments.us_per_record", "us"),
    ("segments.stall_max_ms", "ms"),
    ("segments.stall_ms_per_100k", "ms"),
    ("segments.pairs", "count"),
    ("segments.bytes_per_record", "bytes"),
    ("segments.topk_at_near_ns", "ns"),
    ("segments.topk_at_deep_ns", "ns"),
    ("net.parse_ns_per_line", "ns"),
    ("net.session_us_per_record", "us"),
    ("net.wire_us_per_record", "us"),
    ("net.query_rtt_us", "us"),
    ("net.connect_us", "us"),
    ("net.metrics_scrape_ms", "ms"),
    ("bench.sched_lag_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.stage_gap.core_pct", "%"),
    ("bench.stage_gap.store_pct", "%"),
    ("bench.stage_gap.graph_pct", "%"),
    ("bench.stage_gap.segments_pct", "%"),
    ("bench.rep_iqr_pct.ingest_rps", "%"),
    ("bench.rep_iqr_pct.ingest_p50_us", "%"),
    ("bench.rep_iqr_pct.ingest_p99_us", "%"),
    ("bench.ingest_p99_us", "us"),
    ("bench.query_p99_us", "us"),
    ("bench.burst_ingest_p99_us", "us"),
    ("bench.verify_s", "s"),
];

/// Metric name → value.
type Values = BTreeMap<&'static str, f64>;

/// Parses and builds a spec through the one factory.
fn build(spec: &str) -> Result<Box<dyn StreamJoin>, String> {
    JoinSpec::from_str(spec)
        .and_then(|s| s.build())
        .map_err(|e| format!("{spec}: {e}"))
}

/// Reps per rung when none is asked for: the deltas between rungs are a
/// microsecond or less, so each rung is a median too.
const LADDER_REPS: usize = 3;

pub struct TraceReport {
    pub values: Values,
    /// Seconds per rep of every rung, bottom to top.
    pub rungs: Vec<(&'static str, Vec<f64>)>,
    pub digest: PairDigest,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub trace_file: String,
}

/// The harness's own span buffer: preallocated, filled by plain pushes,
/// written out once at the end.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    /// Index of the span that caused this one (`u32::MAX`: none).
    parent: u32,
    /// Record index, for per-record spans.
    record: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-record spans kept for the Chrome trace: the first `HEAD` calls of
/// a rung plus every call slower than a millisecond. Every call is still
/// *timed*; keeping all of them would make the file hundreds of
/// megabytes.
const HEAD: usize = 2_048;
const SLOW_NS: u64 = 1_000_000;

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(64 * 1024),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        since_ns(self.epoch, at)
    }

    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            record: u32::MAX,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    fn call(&mut self, name: &'static str, parent: u32, record: usize, from: Instant, to: Instant) {
        let (start_ns, end_ns) = (self.ns(from), self.ns(to));
        if record < HEAD || end_ns - start_ns >= SLOW_NS {
            self.spans.push(Span {
                name,
                parent,
                record: record as u32,
                start_ns,
                end_ns,
            });
        }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events, microsecond timestamps, one track per top-level span.
    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = i;
            while self.spans[root].parent != u32::MAX {
                root = self.spans[root].parent as usize;
            }
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
                s.name,
                root,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            if s.record != u32::MAX {
                let _ = write!(out, "\"record\":{},", s.record);
            }
            match s.parent {
                u32::MAX => out.push_str("\"parent\":null}}"),
                p => {
                    let _ = write!(out, "\"parent\":\"{}\"}}}}", self.spans[p as usize].name);
                }
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// What one rep of one rung produced.
struct RungRep {
    secs: f64,
    sink: Sink,
    max_call_ns: u64,
    slow_call_ns: u64,
}

/// Feeds `records` closed-loop, timing every call; with `spans`, each
/// call is also recorded.
fn timed_feed(
    feed: &mut impl Feed,
    records: &[StreamRecord],
    keep_below: usize,
    mut spans: Option<(&mut Spans, &'static str, u32)>,
) -> Result<RungRep, String> {
    let mut sink = Sink::new(keep_below);
    let mut out: Vec<SimilarPair> = Vec::new();
    let (mut max_call_ns, mut slow_call_ns) = (0, 0);
    let started = Instant::now();
    for (i, r) in records.iter().enumerate() {
        match &mut spans {
            Some((spans, name, parent)) => {
                let from = Instant::now();
                feed.feed(r, &mut out)?;
                let to = Instant::now();
                let ns = since_ns(from, to);
                max_call_ns = max_call_ns.max(ns);
                if ns >= SLOW_NS {
                    slow_call_ns += ns;
                }
                spans.call(name, *parent, i, from, to);
            }
            None => feed.feed(r, &mut out)?,
        }
        sink.absorb(&mut out);
    }
    let secs = started.elapsed().as_secs_f64();
    feed.seal(&mut out)?;
    sink.absorb(&mut out);
    Ok(RungRep {
        secs,
        sink,
        max_call_ns,
        slow_call_ns,
    })
}

/// The socket-free net rung: every record goes through `Request::parse`
/// and `Session::handle`, and the reply is formatted as it would be for
/// the socket. Request lines are prepared beforehand — that is client
/// work.
struct SessionFeed {
    session: Session,
    lines: Vec<String>,
    next: usize,
    responses: Vec<Response>,
    wire: String,
}

impl SessionFeed {
    fn request(&mut self, line: &str, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        let request = Request::parse(line).map_err(|e| format!("parse {line:?}: {e}"))?;
        self.responses.clear();
        self.session.handle(request, &mut self.responses);
        self.wire.clear();
        for r in &self.responses {
            let _ = writeln!(self.wire, "{r}");
            match r {
                Response::Pair(p) => out.push(*p),
                Response::Err(e) => return Err(format!("session refused {line:?}: {e}")),
                _ => {}
            }
        }
        black_box(&self.wire);
        Ok(())
    }
}

impl Feed for SessionFeed {
    fn feed(&mut self, _: &StreamRecord, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        let line = std::mem::take(&mut self.lines[self.next]);
        self.next += 1;
        self.request(&line, out)
    }

    fn seal(&mut self, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        self.request("FINISH", out)
    }
}

fn request_lines(records: &[StreamRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            Request::Vector {
                t: r.t.seconds(),
                entries: r.vector.iter().collect(),
            }
            .to_string()
        })
        .collect()
}

/// Telemetry registry and flight recorder: both armed (the shipping
/// default) or both dark.
fn arm_telemetry(on: bool) {
    sssj_metrics::registry::force_telemetry_for_bench(on);
    trace::force_trace_for_bench(on);
}

/// One sample of the program's own counters, by exposition name.
fn scrape(name: &str) -> f64 {
    Registry::global()
        .prometheus()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| series.split('{').next() == Some(name))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

/// Median nanoseconds per operation over seven timed batches (after one
/// untimed), `batch` doing `ops` operations a call.
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// splitmix64: fixed inputs for the micro loops, the same on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A sorted sparse vector of `n` coordinates over `vocab` dimensions.
    fn sparse(&mut self, n: usize, vocab: u64) -> (Vec<u32>, Vec<f64>) {
        let mut dims: Vec<u32> = (0..n * 2).map(|_| (self.next() % vocab) as u32).collect();
        dims.sort_unstable();
        dims.dedup();
        dims.truncate(n);
        let weights = dims.iter().map(|_| 0.01 + 0.99 * self.unit()).collect();
        (dims, weights)
    }
}

fn kernel_micros(v: &mut Values) {
    let mut rng = Rng(1);
    let (ad, aw) = rng.sparse(64, 4_000);
    let (bd, bw) = rng.sparse(64, 4_000);
    v.insert(
        "kernels.dot_merge_ns",
        ns_per_op(20_000, || {
            for _ in 0..20_000 {
                black_box(sssj_kernels::dot_merge(black_box(&ad), &aw, &bd, &bw));
            }
        }),
    );
    // 16 × 1024: just inside the vectorised-gallop regime.
    let (sd, sw) = rng.sparse(16, 40_000);
    let (ld, lw) = rng.sparse(1_024, 40_000);
    v.insert(
        "kernels.dot_probe_ns",
        ns_per_op(5_000, || {
            for _ in 0..5_000 {
                black_box(sssj_kernels::dot_probe(black_box(&sd), &sw, &ld, &lw));
            }
        }),
    );

    const N: usize = 4_096;
    let mut raw = Vec::with_capacity(N * 4);
    for i in 0..N {
        raw.extend([
            i as u64,
            (0.01 + 0.99 * rng.unit()).to_bits(),
            rng.unit().to_bits(),
            (i as f64 * 0.01).to_bits(),
        ]);
    }
    let factors: Vec<f64> = (0..=1024).map(|i| (-0.001 * i as f64).exp()).collect();
    let params = L2BatchParams {
        xj: 0.4,
        now: 64.0,
        xnorm_before: 0.7,
        rs2: 0.9,
        theta_slack: 0.5,
        inv_step: 1024.0 / 64.0,
    };
    let (mut ids, mut deltas, mut prune, mut admit) =
        ([0u64; 64], [0f64; 64], [0f64; 64], [0u8; 64]);
    v.insert(
        "kernels.l2_batch_ns_per_posting",
        ns_per_op(N * 50, || {
            for _ in 0..50 {
                for chunk in raw.chunks(64 * 4) {
                    let n = chunk.len() / 4;
                    sssj_kernels::l2_candidate_batch(
                        chunk,
                        &params,
                        &factors,
                        &mut ids[..n],
                        &mut deltas[..n],
                        &mut prune[..n],
                        &mut admit[..n],
                    );
                    black_box(&admit);
                }
            }
        }),
    );
    let dts: Vec<f64> = (0..N).map(|i| i as f64 * 0.015).collect();
    let mut out = vec![0.0; N];
    v.insert(
        "kernels.decay_batch_ns_per_posting",
        ns_per_op(N * 50, || {
            for _ in 0..50 {
                sssj_kernels::decay_upper_batch(
                    black_box(&dts),
                    params.inv_step,
                    &factors,
                    &mut out,
                );
                black_box(&out);
            }
        }),
    );
    // A cutoff past every timestamp: the scan visits all N postings.
    v.insert(
        "kernels.partition_ns_per_posting",
        ns_per_op(N * 50, || {
            for _ in 0..50 {
                black_box(sssj_kernels::partition_time_strided(
                    black_box(&raw),
                    4,
                    3,
                    1e9,
                ));
            }
        }),
    );
}

fn collection_micros(v: &mut Values) {
    const N: usize = 65_536;
    v.insert(
        "collections.posting_push_ns",
        ns_per_op(N, || {
            let mut block = PostingBlock::new();
            for i in 0..N {
                block.push(i as u64, 0.5, 0.25, i as f64);
            }
            black_box(block.len());
        }),
    );
    // Steady-state expiry: a 64-entry list loses its 8 oldest entries.
    let mut spent = Duration::ZERO;
    let mut expired = 0usize;
    for round in 0..8 {
        let mut block = PostingBlock::new();
        for i in 0..64 {
            block.push(i, 0.5, 0.25, i as f64);
        }
        let t = Instant::now();
        for step in 0..(N / 8) {
            let base = 64 + step * 8;
            expired += block.expire_before((base - 56) as f64);
            for i in base..base + 8 {
                block.push(i as u64, 0.5, 0.25, i as f64);
            }
        }
        if round > 0 {
            spent += t.elapsed();
        } else {
            expired = 0;
        }
    }
    v.insert(
        "collections.posting_expire_ns",
        spent.as_nanos() as f64 / expired as f64,
    );
    let mut acc = ScoreAccumulator::new();
    v.insert(
        "collections.accumulator_add_clear_ns",
        ns_per_op(N, || {
            for round in 0..(N / 1_024) as u64 {
                for i in 0..1_024u64 {
                    acc.add(round * 16 + i % 257, 0.5);
                }
                black_box(acc.len());
                acc.clear();
            }
        }),
    );
}

fn metrics_micros(v: &mut Values) {
    const N: usize = 100_000;
    let spans = || {
        for i in 0..N as u64 {
            drop(black_box(trace::span_with(Stage::Ingest, i, 0)));
        }
    };
    arm_telemetry(false);
    v.insert("metrics.span_dark_ns", ns_per_op(N, spans));
    arm_telemetry(true);
    v.insert("metrics.span_ns", ns_per_op(N, spans));
    let counter = Registry::global().counter("sssj_bench_probe_total", "harness probe increments");
    v.insert(
        "metrics.counter_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                black_box(counter).inc();
            }
        }),
    );
}

fn store_micros(
    w: &Workload,
    records: &[StreamRecord],
    dir: &Path,
    v: &mut Values,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("wal micro: {e}");
    let wal_dir = dir.join("wal-micro");
    let mut wal =
        Wal::create(&wal_dir, DurableOptions::default().segment_records, false).map_err(io)?;
    let t = Instant::now();
    for r in records {
        wal.append(r).map_err(io)?;
    }
    wal.flush().map_err(io)?;
    v.insert(
        "store.wal_append_ns",
        t.elapsed().as_nanos() as f64 / records.len() as f64,
    );
    drop(wal);
    v.insert(
        "store.wal_bytes_per_record",
        dir_bytes(&wal_dir) as f64 / records.len() as f64,
    );

    // An explicit checkpoint after each quarter of the prefix.
    let inner = JoinSpec::from_str(w.engine).map_err(|e| e.to_string())?;
    let store = |e: sssj_store::StoreError| format!("checkpoint micro: {e}");
    let mut join = DurableJoin::open(&inner, &dir.join("ckpt-micro"), DurableOptions::default())
        .map_err(store)?;
    let mut out = Vec::new();
    let mut ms = Vec::new();
    for quarter in records.chunks(records.len().div_ceil(4)) {
        for r in quarter {
            join.process(r, &mut out);
        }
        let t = Instant::now();
        join.checkpoint(&mut out).map_err(store)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    v.insert("store.checkpoint_ms", median(&ms));
    drop(join);

    // Recovery: ingest without `finish` and drop, which loses the
    // buffered WAL tail as a crash would. What is left in the WAL is
    // what reopening the directory has to replay through the engine.
    let recover_dir = dir.join("recover-micro");
    let spec = format!("{}&durable={}", w.engine, recover_dir.display());
    let mut join = build(&spec)?;
    for r in records {
        join.process(r, &mut out);
    }
    drop(join);
    let mut replayed = 0;
    for segment in std::fs::read_dir(recover_dir.join("wal"))
        .map_err(io)?
        .flatten()
    {
        replayed += sssj_store::wal::read_segment_records(&segment.path())
            .map_err(io)?
            .len();
    }
    v.insert("store.recover_replayed_records", replayed as f64);
    Ok(())
}

fn graph_micros(w: &Workload, v: &mut Values) -> Result<(), String> {
    let horizon = JoinSpec::from_str(w.engine)
        .map_err(|e| e.to_string())?
        .horizon();
    // A ring of 4 096 nodes, each new record pairing with its four
    // predecessors, ten records per horizon.
    const N: u64 = 40_960;
    let graph = GraphHandle::new(horizon);
    let step = horizon / 10.0;
    let mut batch = Vec::with_capacity(4);
    let t = Instant::now();
    for i in 4..N {
        batch.clear();
        for back in 1..=4 {
            batch.push(SimilarPair::new(i - back, i, 0.5 + 0.1 * back as f64));
        }
        graph.add_edges(&batch, i as f64 * step);
    }
    v.insert(
        "graph.add_edge_ns",
        t.elapsed().as_nanos() as f64 / ((N - 4) * 4) as f64,
    );
    let mut us = Vec::new();
    for round in 0..200 {
        let i = N + round;
        graph.add_edges(
            &[SimilarPair::new(i - 1, i, 0.9)],
            (N as f64 + round as f64 * 0.01) * step,
        );
        let t = Instant::now();
        black_box(graph.publish_now());
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    v.insert("graph.publish_us", median(&us));
    let now = graph.now();
    v.insert(
        "graph.snapshot_topk_ns",
        ns_per_op(20_000, || {
            for i in 0..20_000 {
                black_box(graph.snapshot().topk(N - 1 - i % 32, QUERY_K, now));
            }
        }),
    );
    Ok(())
}

/// Self time per stage from drained flight-recorder events: a span's
/// duration minus what its child spans cover, per thread.
fn self_time_ns(events: &mut [TraceEvent], into: &mut BTreeMap<&'static str, u64>) {
    events.sort_by_key(|e| (e.tid, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    // (end, self so far, stage) of the spans still open on this thread.
    let mut open: Vec<(u64, u64, Stage)> = Vec::new();
    let mut tid = u32::MAX;
    let flush = |open: &mut Vec<(u64, u64, Stage)>, into: &mut BTreeMap<&'static str, u64>| {
        for (_, own, stage) in open.drain(..) {
            *into.entry(stage.name()).or_default() += own;
        }
    };
    for e in events.iter().filter(|e| e.kind == EventKind::Span) {
        if e.tid != tid {
            flush(&mut open, into);
            tid = e.tid;
        }
        while open.last().is_some_and(|&(end, _, _)| end <= e.ts_ns) {
            let (_, own, stage) = open.pop().expect("checked non-empty");
            *into.entry(stage.name()).or_default() += own;
        }
        if let Some(parent) = open.last_mut() {
            parent.1 = parent.1.saturating_sub(e.dur_ns);
        }
        open.push((e.ts_ns + e.dur_ns, e.dur_ns, e.stage));
    }
    flush(&mut open, into);
}

/// Disagreement, in percent of the rung delta, between a layer's rung
/// delta and what the program's own spans attribute to it.
fn gap_pct(span_us: f64, delta_us: f64) -> f64 {
    100.0 * (span_us - delta_us) / delta_us.abs().max(1e-3)
}

pub fn trace(w: &Workload, opts: &RunOpts) -> Result<TraceReport, String> {
    let w = &w.scaled(opts.scale);
    let reps = opts.reps.unwrap_or(LADDER_REPS);
    let dir = &opts.state_root;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    sssj_segments::register_spec_builder();

    let records = &w.stream(opts.seed, w.ladder)[..];
    let n = records.len() as f64;
    let keep = w.oracle.min(w.ladder);
    let mut v: Values = BTreeMap::new();
    let mut spans = Spans::new();
    let mut report = TraceReport {
        values: BTreeMap::new(),
        rungs: Vec::new(),
        digest: PairDigest::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        trace_file: String::new(),
    };

    // Micro loops: each layer's entry points on fixed inputs.
    let root = spans.open("micro", u32::MAX);
    for (name, run) in [
        ("micro.kernels", kernel_micros as fn(&mut Values)),
        ("micro.collections", collection_micros),
        ("micro.metrics", metrics_micros),
    ] {
        let id = spans.open(name, root);
        run(&mut v);
        spans.close(id);
    }
    let id = spans.open("micro.store", root);
    store_micros(w, records, dir, &mut v)?;
    spans.close(id);
    let id = spans.open("micro.graph", root);
    graph_micros(w, &mut v)?;
    spans.close(id);
    let lines = request_lines(records);
    v.insert(
        "net.parse_ns_per_line",
        ns_per_op(lines.len(), || {
            for line in &lines {
                black_box(Request::parse(black_box(line)).is_ok());
            }
        }),
    );
    let mut builds = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let join = build(w.engine)?;
        builds.push(t.elapsed().as_nanos() as f64 / 1e3);
        drop(join);
    }
    v.insert("core.spec_build_us", median(&builds));
    spans.close(root);

    // The ladder.
    let at = |rung: &str, rep: usize| dir.join(format!("{rung}-{rep}"));
    let durable = |d: &Path| format!("{}&durable={}", w.engine, d.join("wal").display());
    let full = |d: &Path| format!("{}&graph&history={}", durable(d), d.join("hist").display());
    let rungs: [&'static str; 7] = [
        "core",
        "metrics",
        "store",
        "graph",
        "segments",
        "net.session",
        "net.wire",
    ];
    let mut us_per_record = Vec::new();
    let mut first_kept = Vec::new();
    for rung in rungs {
        let rung_span = spans.open(rung, u32::MAX);
        let mut secs = Vec::new();
        for rep in 0..reps {
            let d = at(rung, rep);
            std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
            arm_telemetry(rung != "core");
            let before = (
                scrape("sssj_store_checkpoint_seconds_count"),
                scrape("sssj_store_gc_segments_total"),
            );
            let tag = Some((&mut spans, rung, rung_span));
            let out = match rung {
                "core" | "metrics" => {
                    let mut join = build(w.engine)?;
                    let out = timed_feed(&mut join, records, keep, tag)?;
                    if rung == "core" && rep == 0 {
                        let s = join.stats();
                        v.insert("core.entries_per_record", s.entries_traversed as f64 / n);
                        v.insert("core.candidates_per_record", s.candidates as f64 / n);
                        v.insert(
                            "core.full_sims_per_candidate",
                            s.full_sims as f64 / (s.candidates as f64).max(1.0),
                        );
                        v.insert(
                            "core.pairs_per_full_sim",
                            s.pairs_output as f64 / (s.full_sims as f64).max(1.0),
                        );
                        v.insert("core.live_postings_peak", s.peak_postings as f64);
                    }
                    out
                }
                "store" => {
                    let out = timed_feed(&mut build(&durable(&d))?, records, keep, tag)?;
                    if rep == 0 {
                        v.insert(
                            "store.checkpoints",
                            scrape("sssj_store_checkpoint_seconds_count") - before.0,
                        );
                        v.insert(
                            "store.wal_segments_collected",
                            scrape("sssj_store_gc_segments_total") - before.1,
                        );
                    }
                    out
                }
                "graph" => timed_feed(
                    &mut build(&format!("{}&graph", durable(&d)))?,
                    records,
                    keep,
                    tag,
                )?,
                "segments" => {
                    let (mut join, reader) = open_local(&full(&d))?;
                    let out = timed_feed(&mut join, records, keep, tag)?;
                    if rep == 0 {
                        v.insert("segments.stall_max_ms", out.max_call_ns as f64 / 1e6);
                        v.insert(
                            "segments.stall_ms_per_100k",
                            out.slow_call_ns as f64 / 1e6 * 100_000.0 / n,
                        );
                        segment_reads(records, &reader, &d, &mut v)?;
                    }
                    out
                }
                "net.session" => {
                    let mut feed = SessionFeed {
                        session: Session::new(SessionDefaults {
                            spec: JoinSpec::from_str(&full(&d)).map_err(|e| e.to_string())?,
                            ..Default::default()
                        }),
                        lines: lines.clone(),
                        next: 0,
                        responses: Vec::new(),
                        wire: String::new(),
                    };
                    timed_feed(&mut feed, records, keep, tag)?
                }
                "net.wire" => {
                    // Server and client on one CPU, as in the serve-*
                    // workloads (see `Cpu`).
                    pin_current_thread(Cpu::Serving);
                    let mut remote = open_remote(&full(&d))?;
                    let out = timed_feed(&mut remote.ingest, records, keep, tag)?;
                    // `FINISH` sealed the pipeline; it still answers reads.
                    if rep == 0 {
                        wire_reads(records, remote.addr(), &mut remote.query, &mut v)?;
                    }
                    remote.close()?;
                    pin_current_thread(Cpu::Any);
                    out
                }
                _ => unreachable!("rung list is fixed"),
            };
            discard_state(&d);
            secs.push(out.secs);

            // Every rung, every rep: the same pair set.
            report.attempted += records.len() as u64 + 1;
            if rung == "core" && rep == 0 {
                report.digest = out.sink.digest;
                first_kept = out.sink.kept;
            } else if out.sink.digest != report.digest {
                report.failed += 1;
                report.failures.push(format!(
                    "rung {rung} rep {rep}: pair-set digest {} differs from core's {}",
                    out.sink.digest.hex(),
                    report.digest.hex()
                ));
            }
        }
        spans.close(rung_span);
        us_per_record.push(median(&secs) * 1e6 / n);
        report.rungs.push((rung, secs));
    }
    arm_telemetry(true);

    // Per-layer self time: a rung minus the rung below it.
    let delta = |i: usize| us_per_record[i] - us_per_record[i - 1];
    v.insert("core.us_per_record", us_per_record[0]);
    v.insert("metrics.us_per_record", delta(1));
    v.insert("store.us_per_record", delta(2));
    v.insert("graph.us_per_record", delta(3));
    v.insert("segments.us_per_record", delta(4));
    v.insert("net.session_us_per_record", delta(5));
    v.insert("net.wire_us_per_record", delta(6));

    // The same stream through MiniBatch: shared-code changes that slow
    // the other framework show here. Same pairs, reported late.
    let mb = w.engine.replacen("str-", "mb-", 1);
    let mut join = build(&mb)?;
    // MiniBatch joins a window when it closes, the last one at `finish`:
    // its time is the whole pass, seal included.
    let t = Instant::now();
    let out = timed_feed(&mut join, records, keep, None)?;
    v.insert(
        "core.mb_l2_us_per_record",
        t.elapsed().as_secs_f64() * 1e6 / n,
    );
    report.attempted += 1;
    if out.sink.digest != report.digest {
        report.failed += 1;
        report.failures.push(format!(
            "mb-l2 pair-set digest {} differs from str-l2's {}",
            out.sink.digest.hex(),
            report.digest.hex()
        ));
    }

    // Oracle on the prefix.
    let t = Instant::now();
    let oracle = Workload {
        oracle: keep,
        ..w.clone()
    };
    let (checked, missing, extra) = check_oracle(&oracle, records, &first_kept);
    v.insert("bench.verify_s", t.elapsed().as_secs_f64());
    report.attempted += checked;
    if missing + extra > 0 {
        report.failed += missing + extra;
        report.failures.push(format!(
            "oracle: {missing} pairs missing, {extra} unexpected in the first {keep} records"
        ));
    }

    // Top in-process rung untraced: what the harness's spans cost, and
    // how much identical reps of it differ.
    let mut plain = Vec::new();
    for rep in 0..reps {
        let d = at("untraced", rep);
        let (mut join, _) = open_local(&full(&d))?;
        plain.push(timed_feed(&mut join, records, 0, None)?.secs);
        drop(join);
        discard_state(&d);
    }
    let traced = median(&report.rungs[4].1);
    v.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced - median(&plain)) / median(&plain),
    );
    let rates: Vec<f64> = plain.iter().map(|s| n / s).collect();
    v.insert("bench.rep_iqr_pct.ingest_rps", iqr_pct(&rates));

    cross_check(records, &full(&at("crosscheck", 0)), &us_per_record, &mut v)?;
    open_loop_health(w, records, reps, &|rep| full(&at("openloop", rep)), &mut v)?;

    report.trace_file =
        crate::report::write_out(&format!("trace-{}.json", w.name), &spans.chrome_json())?
            .display()
            .to_string();
    report.values = v;
    Ok(report)
}

/// Reads against the finished `segments` rung: how many segment pairs
/// the archive holds, what they weigh, and what a time-travel read
/// costs near the live window and deep in history.
fn segment_reads(
    records: &[StreamRecord],
    reader: &Reader,
    dir: &Path,
    v: &mut Values,
) -> Result<(), String> {
    let history = reader
        .history
        .as_ref()
        .ok_or("the segments rung has no history handle")?;
    v.insert("segments.pairs", history.boundary().segments as f64);
    v.insert(
        "segments.bytes_per_record",
        dir_bytes(&dir.join("hist")) as f64 / records.len() as f64,
    );
    let newest = records.len() - 1;
    for (name, frac) in [
        ("segments.topk_at_deep_ns", 0.1),
        ("segments.topk_at_near_ns", 0.9),
    ] {
        let about = (newest as f64 * frac) as usize;
        let ns = ns_per_op(10_000, || {
            for i in 0..10_000 {
                let r = &records[about - i % (about / 2).max(1)];
                black_box(history.topk_at(
                    Some(&reader.graph),
                    r.id,
                    QUERY_K,
                    r.t.seconds(),
                    reader.horizon,
                ));
            }
        });
        v.insert(name, ns);
    }
    Ok(())
}

/// Reads against the `net.wire` rung's server.
fn wire_reads(
    records: &[StreamRecord],
    addr: std::net::SocketAddr,
    query: &mut JoinClient,
    v: &mut Values,
) -> Result<(), String> {
    let net = |e: sssj_net::NetError| format!("wire reads: {e}");
    let newest = records.len() as u64 - 1;
    let mut us = Vec::new();
    for i in 0..2_000 {
        let t = Instant::now();
        black_box(
            query
                .query_topk(newest - i % newest.min(512), QUERY_K as u32)
                .map_err(net)?,
        );
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    v.insert("net.query_rtt_us", median(&us));
    let mut ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box(query.metrics().map_err(net)?);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    v.insert("net.metrics_scrape_ms", median(&ms));
    let mut us = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let c = JoinClient::connect(addr).map_err(net)?;
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        c.quit().map_err(net)?;
    }
    v.insert("net.connect_us", median(&us));
    Ok(())
}

/// The flight-recorder cross-check: one more pass of the `segments`
/// rung, draining the program's own trace rings every 512 records (a
/// ring holds 4 096 events and a record writes about four) and summing
/// span self time per stage. Events that still wrapped out between two
/// drains are counted in `metrics.trace_dropped`. A disagreement with
/// the ladder is a reported row, not a failure.
fn cross_check(
    records: &[StreamRecord],
    spec: &str,
    us_per_record: &[f64],
    v: &mut Values,
) -> Result<(), String> {
    arm_telemetry(true);
    let (mut join, reader) = open_local(spec)?;
    let mut cursors = Vec::new();
    trace::drain_new(&mut cursors);
    let mut own: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut dropped = 0;
    let mut drain = |own: &mut BTreeMap<&'static str, u64>| {
        let before: u64 = cursors.iter().sum();
        let mut events = trace::drain_new(&mut cursors);
        dropped += cursors.iter().sum::<u64>() - before - events.len() as u64;
        self_time_ns(&mut events, own);
    };
    let mut out = Vec::new();
    let mut live_edges_peak = 0;
    for chunk in records.chunks(512) {
        for r in chunk {
            join.process(r, &mut out);
            out.clear();
        }
        drain(&mut own);
        live_edges_peak = live_edges_peak.max(reader.graph.live_edges());
    }
    join.finish(&mut out);
    drain(&mut own);
    v.insert("metrics.trace_dropped", dropped as f64);
    v.insert("graph.live_edges_peak", live_edges_peak as f64);
    let n = records.len() as f64;
    let stage_us = |stages: &[Stage]| {
        stages
            .iter()
            .map(|s| own.get(s.name()).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e3
            / n
    };
    let delta = |i: usize| us_per_record[i] - us_per_record[i - 1];
    v.insert(
        "bench.stage_gap.core_pct",
        gap_pct(
            stage_us(&[Stage::Ingest, Stage::Candidates]),
            us_per_record[1],
        ),
    );
    v.insert(
        "bench.stage_gap.store_pct",
        gap_pct(
            stage_us(&[Stage::WalAppend, Stage::WalFsync, Stage::Checkpoint]),
            delta(2),
        ),
    );
    v.insert(
        "bench.stage_gap.graph_pct",
        gap_pct(stage_us(&[Stage::GraphPublish]), delta(3)),
    );
    v.insert(
        "bench.stage_gap.segments_pct",
        gap_pct(stage_us(&[Stage::Compaction]), delta(4)),
    );
    Ok(())
}

/// Whether the open-loop generator can be trusted at this workload's
/// rate: `reps` uniform passes over the top in-process rung (warm-up on
/// the first half of the prefix, then up to a second of paced records),
/// and one pass on the old timestamp-paced schedule for comparison.
fn open_loop_health(
    w: &Workload,
    records: &[StreamRecord],
    reps: usize,
    spec_for: &dyn Fn(usize) -> String,
    v: &mut Values,
) -> Result<(), String> {
    let (warm, rest) = records.split_at(records.len() / 2);
    let paced = &rest[..rest.len().min(w.rate as usize)];
    let (mut p50, mut p99, mut query_p99, mut lag) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut burst_p99 = f64::NAN;
    let every = match w.queries {
        QueryPlan::Scheduled { every, .. } => every,
        QueryPlan::ClosedLoop => 16,
    };
    for rep in 0..=reps {
        let spec = spec_for(rep);
        let (mut join, mut reader) = open_local(&spec)?;
        let mut out = Vec::new();
        for r in warm {
            join.process(r, &mut out);
            out.clear();
        }
        let mut lat = Vec::with_capacity(paced.len());
        let mut query_lat = Vec::new();
        let us = |sorted: &[u64], p: f64| {
            percentile(sorted, p)
                .or(sorted.last().copied())
                .map_or(f64::NAN, |ns| ns as f64 / 1e3)
        };
        if rep < reps {
            let schedule = Schedule::starting_now(w.rate);
            let mut late = pace(&schedule, Wait::Spin, 0..paced.len(), |k, due| {
                join.process(&paced[k], &mut out);
                lat.push(since_ns(due, Instant::now()));
                out.clear();
                if (k + 1) % every == 0 {
                    reader.answer(query_for(w.mix, query_lat.len(), records, warm.len() + k))?;
                    query_lat.push(since_ns(due, Instant::now()));
                }
                Ok::<(), String>(())
            })?;
            lat.sort_unstable();
            query_lat.sort_unstable();
            late.sort_unstable();
            p50.push(us(&lat, 0.5));
            p99.push(us(&lat, 0.99));
            query_p99.push(us(&query_lat, 0.99));
            lag.push(us(&late, 0.99));
        } else {
            let start = Instant::now() + Duration::from_millis(2);
            for (r, off) in paced.iter().zip(bursty_offsets_ns(paced, w.rate)) {
                let due = start + Duration::from_nanos(off);
                wait_until(due, Wait::Spin);
                join.process(r, &mut out);
                lat.push(since_ns(due, Instant::now()));
                out.clear();
            }
            lat.sort_unstable();
            burst_p99 = us(&lat, 0.99);
        }
        join.finish(&mut out);
    }
    v.insert("bench.sched_lag_p99_us", median(&lag));
    v.insert("bench.ingest_p99_us", median(&p99));
    v.insert("bench.query_p99_us", median(&query_p99));
    v.insert("bench.rep_iqr_pct.ingest_p50_us", iqr_pct(&p50));
    v.insert("bench.rep_iqr_pct.ingest_p99_us", iqr_pct(&p99));
    v.insert("bench.burst_ingest_p99_us", burst_p99);
    Ok(())
}
