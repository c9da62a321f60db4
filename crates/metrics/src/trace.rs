//! Always-on pipeline tracing: spans, instants and a per-thread
//! lock-free **flight recorder**.
//!
//! The [`registry`](crate::registry) answers *how much* and *how slow in
//! aggregate*; it cannot answer "*why was this one request slow*" or
//! "where inside ingest → router → store → graph → net did the time
//! go". This module adds that per-event layer with the same always-on,
//! near-zero-overhead discipline:
//!
//! * **Fixed-width events, no allocation on the record path.** Every
//!   probe writes one 48-byte event (timestamp, duration, stage, trace
//!   id, two integer args, thread + nesting depth) into a per-thread
//!   ring of [`RING_CAPACITY`] slots. Recording is a seqlock-protected
//!   sequence of relaxed stores — no locks, no heap, safe inside the
//!   zero-alloc steady state.
//! * **Flight-recorder semantics.** The ring keeps the newest
//!   [`RING_CAPACITY`] events per thread; older ones are overwritten and
//!   counted exactly (see [`dropped_events`]). Readers drain any
//!   thread's ring concurrently and can never observe a torn event: a
//!   slot mid-overwrite fails its sequence check and is skipped.
//! * **Trace ids stitch one record's journey together.** A net session
//!   allocates an id per request ([`next_trace_id`]), parks it in
//!   thread-local storage ([`TraceScope`]), and every span recorded
//!   downstream on that thread inherits it; the sharded driver carries
//!   ids across thread hops explicitly. Filtering a drain by id
//!   reconstructs the request's span tree end to end.
//! * **`SSSJ_TRACE=off` collapses every probe** to one relaxed load +
//!   branch (≤ ~1 ns), mirroring the registry's `SSSJ_TELEMETRY` gate;
//!   tracing never feeds the join output, so the off lane is
//!   byte-invisible (CI runs the full suite that way).
//!
//! # Reading a trace
//!
//! Three exports share this module's drain: the net `TRACE` verb dumps
//! the last N events over the wire, `sssj trace <addr>` converts a dump
//! to Chrome trace-event JSON ([`chrome_trace_json`]) loadable in
//! Perfetto / `chrome://tracing`, and `sssj serve --trace-log FILE`
//! captures continuously via [`drain_new`]. The `SSSJ_SLOW_MS` slow-
//! query log attaches [`format_span_tree`]; the event-loop stall probe
//! and the panic hook ([`install_panic_hook`]) dump the recorder via
//! [`dump_to_stderr`] for post-mortems.
//!
//! ```
//! use sssj_metrics::trace::{self, Stage};
//!
//! let id = trace::next_trace_id();
//! let _scope = trace::scope(id);
//! {
//!     let _outer = trace::span_with(Stage::NetRequest, 7, 0);
//!     let _inner = trace::span(Stage::Ingest);
//! } // spans record on drop, innermost first
//! if trace::trace_enabled() {
//!     let events = trace::events_for_trace(id);
//!     assert_eq!(events.len(), 2);
//!     assert_eq!(events[0].stage, Stage::NetRequest); // sorted by start
//!     assert_eq!(events[1].depth, 1);
//!     assert!(trace::chrome_trace_json(&events).contains("\"ph\":\"X\""));
//! }
//! ```

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

/// Events each thread's flight-recorder ring retains (power of two).
/// At 48 bytes of payload per slot the ring costs ~256 KiB per tracing
/// thread; exited threads return their ring to a free list for reuse.
pub const RING_CAPACITY: usize = 4096;

static TRACE_ON: AtomicBool = AtomicBool::new(true);
static TRACE_INIT: Once = Once::new();

/// Whether tracing is enabled this process (the `SSSJ_TRACE` gate,
/// resolved once at first probe).
#[inline]
pub fn trace_enabled() -> bool {
    if !TRACE_INIT.is_completed() {
        init_gate();
    }
    TRACE_ON.load(Relaxed)
}

#[cold]
fn init_gate() {
    TRACE_INIT.call_once(|| {
        let off = std::env::var("SSSJ_TRACE")
            .map(|v| v.eq_ignore_ascii_case("off") || v == "0")
            .unwrap_or(false);
        TRACE_ON.store(!off, Relaxed);
    });
}

/// Bench-only override of the `SSSJ_TRACE` gate, so one process can A/B
/// the on- and off-path probe costs (`metrics.span_ns` pair). Burns the
/// env read first so a later first-use cannot undo the override. Not
/// for production code: flipping mid-flight loses events.
#[doc(hidden)]
pub fn force_trace_for_bench(on: bool) {
    init_gate();
    TRACE_ON.store(on, Relaxed);
}

/// The pipeline stage a span or instant belongs to. Names are the
/// Chrome-trace event names and the wire tokens of the `TRACE` verb.
#[repr(u16)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// One record through the whole spec-built pipeline.
    Ingest = 0,
    /// Candidate generation + verification inside the join engine.
    Candidates = 1,
    /// The sharded driver flushing one routed batch to its workers.
    RouterFlush = 2,
    /// A shard worker processing one routed record from a batch.
    ShardRecord = 3,
    /// One record framed and appended to the WAL.
    WalAppend = 4,
    /// A WAL fsync forced by a checkpoint.
    WalFsync = 5,
    /// A durability checkpoint (manifest publish).
    Checkpoint = 6,
    /// A graph snapshot publication (generation bump).
    GraphPublish = 7,
    /// The segment compactor rewriting one retired batch.
    Compaction = 8,
    /// One net request, verb ordinal in `a`.
    NetRequest = 9,
    /// Event-loop stall detection (instant).
    LoopStall = 10,
    /// A request that crossed the `SSSJ_SLOW_MS` threshold (instant).
    SlowRequest = 11,
    /// Recovery cut a torn WAL tail (instant): the cut segment's first
    /// sequence number in `a`, the bytes kept of it in `b`.
    WalTornTail = 12,
}

impl Stage {
    /// Every stage, in discriminant order.
    pub const ALL: [Stage; 13] = [
        Stage::Ingest,
        Stage::Candidates,
        Stage::RouterFlush,
        Stage::ShardRecord,
        Stage::WalAppend,
        Stage::WalFsync,
        Stage::Checkpoint,
        Stage::GraphPublish,
        Stage::Compaction,
        Stage::NetRequest,
        Stage::LoopStall,
        Stage::SlowRequest,
        Stage::WalTornTail,
    ];

    /// The stage's wire token / Chrome-trace event name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Candidates => "candidates",
            Stage::RouterFlush => "router.flush",
            Stage::ShardRecord => "shard.record",
            Stage::WalAppend => "wal.append",
            Stage::WalFsync => "wal.fsync",
            Stage::Checkpoint => "checkpoint",
            Stage::GraphPublish => "graph.publish",
            Stage::Compaction => "segment.compaction",
            Stage::NetRequest => "net.request",
            Stage::LoopStall => "loop.stall",
            Stage::SlowRequest => "slow.request",
            Stage::WalTornTail => "wal.torn_tail",
        }
    }

    /// Parses a wire token back to its stage.
    pub fn from_name(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }

    fn from_u16(v: u16) -> Option<Stage> {
        Stage::ALL.get(v as usize).copied()
    }
}

/// Whether an event is a completed span (has a duration) or a point
/// marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts_ns..ts_ns+dur_ns`.
    Span,
    /// An instantaneous marker (`dur_ns` is 0).
    Instant,
}

/// One drained flight-recorder event. Fixed-width on the record path;
/// this owned form is what drains and the wire carry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Start time, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Correlation id (0 = none); see [`next_trace_id`].
    pub trace_id: u64,
    /// Stage-specific argument (e.g. record id, verb ordinal).
    pub a: u64,
    /// Second stage-specific argument (e.g. pair count, byte count).
    pub b: u64,
    /// The pipeline stage.
    pub stage: Stage,
    /// Span or instant.
    pub kind: EventKind,
    /// Nesting depth at record time (0 = root span of its thread).
    pub depth: u8,
    /// Recording thread's ring ordinal (reused after thread exit).
    pub tid: u32,
}

impl TraceEvent {
    /// The wire form used by the net `TRACE` verb:
    /// `<ts_ns> <dur_ns> <stage> <X|i> <tid> <depth> <trace_id> <a> <b>`.
    pub fn to_wire(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {}",
            self.ts_ns,
            self.dur_ns,
            self.stage.name(),
            match self.kind {
                EventKind::Span => "X",
                EventKind::Instant => "i",
            },
            self.tid,
            self.depth,
            self.trace_id,
            self.a,
            self.b
        )
    }

    /// Parses the wire form back; `None` on any malformed field.
    pub fn from_wire(line: &str) -> Option<TraceEvent> {
        let mut it = line.split_ascii_whitespace();
        let ts_ns = it.next()?.parse().ok()?;
        let dur_ns = it.next()?.parse().ok()?;
        let stage = Stage::from_name(it.next()?)?;
        let kind = match it.next()? {
            "X" => EventKind::Span,
            "i" => EventKind::Instant,
            _ => return None,
        };
        let tid = it.next()?.parse().ok()?;
        let depth = it.next()?.parse().ok()?;
        let trace_id = it.next()?.parse().ok()?;
        let a = it.next()?.parse().ok()?;
        let b = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(TraceEvent {
            ts_ns,
            dur_ns,
            trace_id,
            a,
            b,
            stage,
            kind,
            depth,
            tid,
        })
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>12.3}us {:>10.1}us {}{} tid={} trace={} a={} b={}",
            self.ts_ns as f64 / 1e3,
            self.dur_ns as f64 / 1e3,
            "  ".repeat(self.depth as usize),
            self.stage.name(),
            self.tid,
            self.trace_id,
            self.a,
            self.b
        )
    }
}

/// Nanoseconds since the process trace epoch (first probe).
#[inline]
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

const WORDS: usize = 6;

/// One ring slot: a seqlock sequence plus the event's six payload
/// words. The owning thread is the only writer; any thread may read.
struct Slot {
    /// `2·abs+1` while slot `abs` is being written, `2·abs+2` once
    /// complete — unique per absolute index, so a reader can tell
    /// exactly which write (if any) a slot holds.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// A single-producer flight-recorder ring. Plain atomics throughout —
/// no unsafe — with the classic seqlock protocol making concurrent
/// reads tear-free.
struct Ring {
    tid: u32,
    /// Events ever pushed (monotone; only the owner writes it).
    written: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u32) -> Ring {
        Ring {
            tid,
            written: AtomicU64::new(0),
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Owner-thread only. Seqlock write: mark the slot in progress,
    /// store the payload, mark complete. The release fence orders the
    /// odd mark before the payload stores, so a reader that saw fresh
    /// payload under a stale even sequence is guaranteed to fail its
    /// re-check.
    fn push(&self, words: [u64; WORDS]) {
        let abs = self.written.load(Relaxed);
        let slot = &self.slots[(abs as usize) & (RING_CAPACITY - 1)];
        slot.seq.store(abs * 2 + 1, Relaxed);
        fence(Release);
        for (dst, v) in slot.words.iter().zip(words) {
            dst.store(v, Relaxed);
        }
        slot.seq.store(abs * 2 + 2, Release);
        self.written.store(abs + 1, Release);
    }

    /// Events lost to ring wrap so far (each overwrite drops exactly
    /// one event, so the accounting is exact, not approximate).
    fn dropped(&self) -> u64 {
        self.written
            .load(Acquire)
            .saturating_sub(RING_CAPACITY as u64)
    }

    /// Reads slots `from_abs..written`, skipping any slot whose
    /// sequence check fails (mid-overwrite — its replacement is newer
    /// and will be read on a later drain). Returns `(events, written)`.
    fn read_from(&self, from_abs: u64) -> (Vec<TraceEvent>, u64) {
        let written = self.written.load(Acquire);
        let lo = from_abs.max(written.saturating_sub(RING_CAPACITY as u64));
        let mut out = Vec::with_capacity((written - lo) as usize);
        for abs in lo..written {
            let slot = &self.slots[(abs as usize) & (RING_CAPACITY - 1)];
            let s1 = slot.seq.load(Acquire);
            if s1 != abs * 2 + 2 {
                continue;
            }
            let mut w = [0u64; WORDS];
            for (v, src) in w.iter_mut().zip(slot.words.iter()) {
                *v = src.load(Relaxed);
            }
            fence(Acquire);
            if slot.seq.load(Relaxed) != s1 {
                continue;
            }
            if let Some(ev) = decode(self_tid_override(self.tid, w)) {
                out.push(ev);
            }
        }
        (out, written)
    }
}

/// Packs an event into the six ring words. Word 5 carries stage (low
/// 16 bits), kind (bit 16), depth (bits 24..32) and tid (bits 32..64).
fn encode(ev: &TraceEvent) -> [u64; WORDS] {
    let meta = (ev.stage as u64)
        | (match ev.kind {
            EventKind::Span => 0u64,
            EventKind::Instant => 1,
        } << 16)
        | ((ev.depth as u64) << 24)
        | ((ev.tid as u64) << 32);
    [ev.ts_ns, ev.dur_ns, ev.trace_id, ev.a, ev.b, meta]
}

fn decode(w: [u64; WORDS]) -> Option<TraceEvent> {
    let meta = w[5];
    Some(TraceEvent {
        ts_ns: w[0],
        dur_ns: w[1],
        trace_id: w[2],
        a: w[3],
        b: w[4],
        stage: Stage::from_u16(meta as u16)?,
        kind: if meta & (1 << 16) != 0 {
            EventKind::Instant
        } else {
            EventKind::Span
        },
        depth: (meta >> 24) as u8,
        tid: (meta >> 32) as u32,
    })
}

/// Stamps the ring's own tid into the packed words (a reused ring keeps
/// recording under its ordinal, so the stamp is already right — this
/// just makes the invariant explicit at the single decode site).
fn self_tid_override(tid: u32, mut w: [u64; WORDS]) -> [u64; WORDS] {
    w[5] = (w[5] & 0xFFFF_FFFF) | ((tid as u64) << 32);
    w
}

/// All rings ever registered, in tid order (index == tid). Rings are
/// `Arc`-shared with their owning thread and survive it, so a drain
/// can always read a dead thread's last events.
fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static R: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

/// Rings whose owning thread exited, ready for reuse — bounds recorder
/// memory by peak thread concurrency instead of total threads spawned.
fn free_rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static F: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    F.get_or_init(|| Mutex::new(Vec::new()))
}

/// Per-thread trace state: the ring, the span nesting depth, and the
/// current trace id.
struct ThreadTrace {
    ring: Arc<Ring>,
    depth: Cell<u32>,
    current: Cell<u64>,
}

impl ThreadTrace {
    fn acquire() -> ThreadTrace {
        let reused = free_rings().lock().expect("trace free list poisoned").pop();
        let ring = reused.unwrap_or_else(|| {
            let mut all = rings().lock().expect("trace registry poisoned");
            let ring = Arc::new(Ring::new(all.len() as u32));
            all.push(Arc::clone(&ring));
            ring
        });
        ThreadTrace {
            ring,
            depth: Cell::new(0),
            current: Cell::new(0),
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        free_rings()
            .lock()
            .expect("trace free list poisoned")
            .push(Arc::clone(&self.ring));
    }
}

thread_local! {
    static TT: ThreadTrace = ThreadTrace::acquire();
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static TID_GAUGE: AtomicU32 = AtomicU32::new(0);

/// Allocates a fresh process-unique trace id (never 0). Returns 0 when
/// tracing is off, so callers can thread it unconditionally.
#[inline]
pub fn next_trace_id() -> u64 {
    if !trace_enabled() {
        return 0;
    }
    NEXT_TRACE_ID.fetch_add(1, Relaxed)
}

/// The calling thread's current trace id (0 = none / tracing off).
#[inline]
pub fn current_trace_id() -> u64 {
    if !trace_enabled() {
        return 0;
    }
    TT.with(|t| t.current.get())
}

/// Parks `trace_id` as the thread's current id until the guard drops
/// (restoring the previous id — scopes nest). Every span and instant
/// recorded on this thread meanwhile inherits the id. A no-op when
/// tracing is off or `trace_id` is 0.
#[must_use = "the scope ends when the guard drops"]
pub fn scope(trace_id: u64) -> TraceScope {
    if trace_id == 0 || !trace_enabled() {
        return TraceScope {
            prev: 0,
            armed: false,
            _not_send: PhantomData,
        };
    }
    let prev = TT.with(|t| {
        let prev = t.current.get();
        t.current.set(trace_id);
        prev
    });
    TraceScope {
        prev,
        armed: true,
        _not_send: PhantomData,
    }
}

/// Guard returned by [`scope`]; restores the previous trace id on drop.
pub struct TraceScope {
    prev: u64,
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.armed {
            TT.with(|t| t.current.set(self.prev));
        }
    }
}

/// An in-flight span: records one [`EventKind::Span`] event covering
/// its own lifetime when dropped. Obtained from [`span`] /
/// [`span_with`]; disarmed (free) when tracing is off. Not `Send` —
/// a span must end on the thread that started it.
pub struct Span {
    start_ns: u64,
    trace_id: u64,
    a: u64,
    b: u64,
    stage: Stage,
    depth: u8,
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span for `stage`. One relaxed load + branch when tracing is
/// off; a clock read plus thread-local bookkeeping when on.
#[inline]
pub fn span(stage: Stage) -> Span {
    span_with(stage, 0, 0)
}

/// Opens a span with stage-specific arguments (`a`, `b` land in the
/// event verbatim — ids and counts, never pointers).
#[inline]
pub fn span_with(stage: Stage, a: u64, b: u64) -> Span {
    if !trace_enabled() {
        return Span {
            start_ns: 0,
            trace_id: 0,
            a: 0,
            b: 0,
            stage,
            depth: 0,
            armed: false,
            _not_send: PhantomData,
        };
    }
    armed_span(stage, a, b)
}

fn armed_span(stage: Stage, a: u64, b: u64) -> Span {
    let (trace_id, depth) = TT.with(|t| {
        let d = t.depth.get();
        t.depth.set(d + 1);
        (t.current.get(), d)
    });
    Span {
        start_ns: now_ns(),
        trace_id,
        a,
        b,
        stage,
        depth: depth.min(u8::MAX as u32) as u8,
        armed: true,
        _not_send: PhantomData,
    }
}

impl Span {
    /// Overwrites the span's arguments (for values only known at the
    /// end, e.g. a pair count).
    #[inline]
    pub fn set_args(&mut self, a: u64, b: u64) {
        self.a = a;
        self.b = b;
    }

    /// The trace id this span inherited (0 when none / tracing off).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        let ev = TraceEvent {
            ts_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            trace_id: self.trace_id,
            a: self.a,
            b: self.b,
            stage: self.stage,
            kind: EventKind::Span,
            depth: self.depth,
            tid: 0, // stamped by the ring
        };
        TT.with(|t| {
            t.depth.set(t.depth.get().saturating_sub(1));
            let mut w = encode(&ev);
            w = self_tid_override(t.ring.tid, w);
            t.ring.push(w);
        });
    }
}

/// Records an instantaneous marker at the current depth and trace id.
#[inline]
pub fn instant(stage: Stage, a: u64, b: u64) {
    if !trace_enabled() {
        return;
    }
    let ev = TraceEvent {
        ts_ns: now_ns(),
        dur_ns: 0,
        trace_id: 0,
        a,
        b,
        stage,
        kind: EventKind::Instant,
        depth: 0,
        tid: 0,
    };
    TT.with(|t| {
        let mut e = ev;
        e.trace_id = t.current.get();
        e.depth = t.depth.get().min(u8::MAX as u32) as u8;
        let mut w = encode(&e);
        w = self_tid_override(t.ring.tid, w);
        t.ring.push(w);
    });
}

/// A drained view of the flight recorder.
#[derive(Clone, Debug, Default)]
pub struct TraceDump {
    /// Drain time, nanoseconds since the trace epoch (the same clock as
    /// every event's `ts_ns`).
    pub now_ns: u64,
    /// Total events lost to ring wrap across all threads (exact).
    pub dropped: u64,
    /// Events, oldest first (merged across threads by start time).
    pub events: Vec<TraceEvent>,
}

/// Drains the newest `max` events across every thread's ring, oldest
/// first. Concurrent recording is safe; events mid-overwrite are
/// skipped, never torn.
pub fn drain_last(max: usize) -> TraceDump {
    let all: Vec<Arc<Ring>> = rings().lock().expect("trace registry poisoned").clone();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in &all {
        dropped += ring.dropped();
        events.extend(ring.read_from(0).0);
    }
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    if events.len() > max {
        events.drain(..events.len() - max);
    }
    TraceDump {
        now_ns: now_ns(),
        dropped,
        events,
    }
}

/// Incremental drain for continuous capture (`sssj serve --trace-log`):
/// returns only events newer than the per-ring cursors from the
/// previous call, advancing `cursors` in place (indexed by tid; grows
/// as threads appear). Events that wrapped out between calls are lost
/// and counted in [`dropped_events`].
pub fn drain_new(cursors: &mut Vec<u64>) -> Vec<TraceEvent> {
    let all: Vec<Arc<Ring>> = rings().lock().expect("trace registry poisoned").clone();
    if cursors.len() < all.len() {
        cursors.resize(all.len(), 0);
    }
    let mut events = Vec::new();
    for ring in &all {
        let cursor = &mut cursors[ring.tid as usize];
        let (evs, written) = ring.read_from(*cursor);
        *cursor = written;
        events.extend(evs);
    }
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    events
}

/// Total events lost to ring wrap across all threads so far (exact:
/// each slot overwrite drops exactly one event).
pub fn dropped_events() -> u64 {
    rings()
        .lock()
        .expect("trace registry poisoned")
        .iter()
        .map(|r| r.dropped())
        .sum()
}

/// The calling thread's `(events_written, events_dropped)` ring totals
/// — test/introspection hook (the ring may have been inherited from an
/// exited thread, so totals are per-ring, not per-thread).
pub fn thread_ring_stats() -> (u64, u64) {
    TT.with(|t| (t.ring.written.load(Acquire), t.ring.dropped()))
}

/// Everything still in the recorder for one trace id, oldest first.
pub fn events_for_trace(trace_id: u64) -> Vec<TraceEvent> {
    let mut events = drain_last(usize::MAX).events;
    events.retain(|e| e.trace_id == trace_id);
    events
}

/// Renders one trace id's surviving events as an indented span tree
/// (depth-indented, start-time order) — what the `SSSJ_SLOW_MS` slow-
/// query log attaches. Empty string when nothing survived.
pub fn format_span_tree(trace_id: u64) -> String {
    let mut events = events_for_trace(trace_id);
    if events.is_empty() {
        return String::new();
    }
    events.sort_by_key(|e| (e.ts_ns, e.depth));
    let t0 = events[0].ts_ns;
    let mut out = String::new();
    for e in &events {
        out.push_str(&format!(
            "  {}{} +{:.1}us {:.1}us a={} b={} tid={}\n",
            "  ".repeat(e.depth as usize),
            e.stage.name(),
            (e.ts_ns - t0) as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
            e.a,
            e.b,
            e.tid
        ));
    }
    out
}

/// Dumps the newest `max` flight-recorder events to stderr, one per
/// line — the post-mortem path used by the event-loop stall probe and
/// the panic hook.
pub fn dump_to_stderr(reason: &str, max: usize) {
    let dump = drain_last(max);
    eprintln!(
        "sssj trace[{reason}]: {} event(s), {} dropped to ring wrap",
        dump.events.len(),
        dump.dropped
    );
    for e in &dump.events {
        eprintln!("  {e}");
    }
}

/// Installs (once) a panic hook that dumps the flight recorder to
/// stderr after the default hook runs — the crash's last events are
/// exactly what a post-mortem wants.
pub fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            if trace_enabled() {
                dump_to_stderr("panic", 64);
            }
        }));
    });
}

/// Renders events as Chrome trace-event JSON (the "JSON array format"),
/// loadable in Perfetto and `chrome://tracing`: complete spans as
/// `ph:"X"` with microsecond `ts`/`dur`, instants as `ph:"i"`, the
/// trace id and args under `args`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&chrome_trace_event(e));
    }
    out.push_str("\n]\n");
    out
}

/// One event as a Chrome trace-event JSON object (no trailing comma or
/// newline) — the unit `--trace-log` appends incrementally.
pub fn chrome_trace_event(e: &TraceEvent) -> String {
    let common = format!(
        "\"name\":\"{}\",\"cat\":\"sssj\",\"ts\":{:.3},\"pid\":1,\"tid\":{},\
         \"args\":{{\"trace_id\":{},\"a\":{},\"b\":{},\"depth\":{}}}",
        e.stage.name(),
        e.ts_ns as f64 / 1e3,
        e.tid,
        e.trace_id,
        e.a,
        e.b,
        e.depth
    );
    match e.kind {
        EventKind::Span => {
            format!(
                "{{\"ph\":\"X\",\"dur\":{:.3},{common}}}",
                e.dur_ns as f64 / 1e3
            )
        }
        EventKind::Instant => format!("{{\"ph\":\"i\",\"s\":\"t\",{common}}}"),
    }
}

// Keep the unused gauge warning away while reserving the symbol: the
// tid space is owned by the ring registry (rings().len()), and this
// counter exists only so a future cross-process merge can offset ids.
#[allow(dead_code)]
fn reserved_tid_gauge() -> u32 {
    TID_GAUGE.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring hammer: concurrent writers + a concurrent reader, no
    /// torn events ever observed (satellite: trace-ring exactness).
    #[test]
    fn multi_thread_hammer_no_torn_events() {
        if !trace_enabled() {
            return; // the off lane records nothing; nothing to assert
        }
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 30_000;
        const MAGIC: u64 = 0x5EED_CAFE_F00D_BEEF;
        let base = NEXT_TRACE_ID.fetch_add(THREADS, Relaxed);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let id = base + t;
                s.spawn(move || {
                    let _scope = scope(id);
                    for i in 0..PER_THREAD {
                        // a and b carry a checkable invariant; a torn
                        // event (words from two different writes) would
                        // break it.
                        instant(Stage::ShardRecord, i, i ^ MAGIC);
                    }
                    // Validate this writer's survivors before the
                    // thread exits: rings are recycled on thread exit,
                    // so a concurrently running test could reuse this
                    // ring and wrap our events away after we're gone.
                    let evs: Vec<TraceEvent> = events_for_trace(id);
                    assert!(!evs.is_empty(), "writer's own events visible");
                    for e in &evs {
                        assert_eq!(e.b, e.a ^ MAGIC, "torn event: {e:?}");
                        assert_eq!(e.stage, Stage::ShardRecord);
                    }
                });
            }
            // A racing reader drains continuously while writers hammer.
            let stop_ref = &stop;
            let reader = s.spawn(move || {
                let mut checked = 0u64;
                while !stop_ref.load(Relaxed) {
                    for e in drain_last(usize::MAX).events {
                        if (base..base + THREADS).contains(&e.trace_id) {
                            assert_eq!(e.b, e.a ^ MAGIC, "torn event: {e:?}");
                            checked += 1;
                        }
                    }
                }
                checked
            });
            // Writers finish (scope ends), then stop the reader.
            // (Scoped threads joined implicitly; give the reader one
            // more full pass before stopping.)
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, Relaxed);
            assert!(reader.join().unwrap() > 0, "reader never saw an event");
        });
    }

    /// Ring wrap drops the oldest events and counts them exactly
    /// (satellite: bounded loss accounting).
    #[test]
    fn ring_wrap_loss_is_counted_exactly() {
        if !trace_enabled() {
            return; // the off lane records nothing; nothing to assert
        }
        let id = next_trace_id();
        let handle = std::thread::spawn(move || {
            let _scope = scope(id);
            let (w0, d0) = thread_ring_stats();
            let n = RING_CAPACITY as u64 + 500;
            for i in 0..n {
                instant(Stage::Compaction, i, 0);
            }
            let (w1, d1) = thread_ring_stats();
            // Read the ring back before this thread exits: once its
            // `ThreadTrace` drops, the ring goes on the free list and a
            // concurrent test's new thread may start overwriting it.
            (w0, d0, w1, d1, n, events_for_trace(id))
        });
        let (w0, d0, w1, d1, n, evs) = handle.join().unwrap();
        assert_eq!(w1 - w0, n, "every push was counted");
        let expected_drop =
            w1.saturating_sub(RING_CAPACITY as u64) - w0.saturating_sub(RING_CAPACITY as u64);
        assert_eq!(d1 - d0, expected_drop, "loss accounting is exact");
        // The survivors are exactly the newest RING_CAPACITY of our
        // pushes (the ring may have been reused, but our n > capacity
        // pushes own every live slot).
        assert_eq!(evs.len(), RING_CAPACITY);
        let min_a = evs.iter().map(|e| e.a).min().unwrap();
        let max_a = evs.iter().map(|e| e.a).max().unwrap();
        assert_eq!(max_a, n - 1, "newest event survived");
        assert_eq!(
            min_a,
            n - RING_CAPACITY as u64,
            "oldest survivor is newest-minus-capacity"
        );
    }

    /// Span nesting: depths count up, children nest inside parents,
    /// and the thread's depth counter returns to its floor (satellite:
    /// span nesting well-formedness).
    #[test]
    fn span_nesting_is_well_formed() {
        if !trace_enabled() {
            return; // the off lane records nothing; nothing to assert
        }
        let id = next_trace_id();
        {
            let _scope = scope(id);
            let _root = span_with(Stage::NetRequest, 1, 0);
            {
                let _mid = span_with(Stage::Ingest, 2, 0);
                let _leaf = span_with(Stage::WalAppend, 3, 0);
            }
            let _sibling = span_with(Stage::GraphPublish, 4, 0);
        }
        let evs = events_for_trace(id);
        assert_eq!(evs.len(), 4, "{evs:?}");
        let by_stage = |s: Stage| evs.iter().find(|e| e.stage == s).unwrap();
        let (root, mid, leaf, sib) = (
            by_stage(Stage::NetRequest),
            by_stage(Stage::Ingest),
            by_stage(Stage::WalAppend),
            by_stage(Stage::GraphPublish),
        );
        assert_eq!(root.depth, 0);
        assert_eq!(mid.depth, 1);
        assert_eq!(leaf.depth, 2);
        assert_eq!(sib.depth, 1);
        // Containment: every child interval sits inside its parent's.
        let inside = |c: &TraceEvent, p: &TraceEvent| {
            c.ts_ns >= p.ts_ns && c.ts_ns + c.dur_ns <= p.ts_ns + p.dur_ns
        };
        assert!(inside(mid, root));
        assert!(inside(leaf, mid));
        assert!(inside(sib, root));
        // The thread's depth floor is restored.
        assert_eq!(TT.with(|t| t.depth.get()), 0);
        // And the tree renderer shows all four stages, indented.
        let tree = format_span_tree(id);
        for s in ["net.request", "ingest", "wal.append", "graph.publish"] {
            assert!(tree.contains(s), "{tree}");
        }
    }

    #[test]
    fn off_gate_records_nothing_and_is_cheap() {
        if trace_enabled() {
            return; // this asserts the SSSJ_TRACE=off lane behaviour
        }
        assert_eq!(next_trace_id(), 0);
        assert_eq!(current_trace_id(), 0);
        let _scope = scope(7);
        let mut s = span_with(Stage::Ingest, 1, 2);
        s.set_args(3, 4);
        drop(s);
        instant(Stage::LoopStall, 0, 0);
        assert!(drain_last(16).events.is_empty());
        assert_eq!(dropped_events(), 0);
    }

    #[test]
    fn wire_roundtrip_every_stage_and_kind() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            for kind in [EventKind::Span, EventKind::Instant] {
                let ev = TraceEvent {
                    ts_ns: 123_456_789 + i as u64,
                    dur_ns: if kind == EventKind::Span { 42_000 } else { 0 },
                    trace_id: 7,
                    a: u64::MAX,
                    b: 3,
                    stage,
                    kind,
                    depth: 5,
                    tid: 11,
                };
                let parsed = TraceEvent::from_wire(&ev.to_wire()).unwrap();
                assert_eq!(parsed, ev);
            }
        }
        assert!(TraceEvent::from_wire("1 2 nosuch X 0 0 0 0 0").is_none());
        assert!(TraceEvent::from_wire("1 2 ingest Q 0 0 0 0 0").is_none());
        assert!(TraceEvent::from_wire("1 2 ingest X 0 0 0 0 0 9").is_none());
        assert!(TraceEvent::from_wire("").is_none());
    }

    #[test]
    fn stage_names_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn chrome_json_shape() {
        let span_ev = TraceEvent {
            ts_ns: 1_500,
            dur_ns: 2_000,
            trace_id: 9,
            a: 1,
            b: 2,
            stage: Stage::NetRequest,
            kind: EventKind::Span,
            depth: 0,
            tid: 3,
        };
        let inst_ev = TraceEvent {
            ts_ns: 4_000,
            dur_ns: 0,
            trace_id: 0,
            a: 0,
            b: 0,
            stage: Stage::LoopStall,
            kind: EventKind::Instant,
            depth: 0,
            tid: 3,
        };
        let json = chrome_trace_json(&[span_ev, inst_ev]);
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(
            json.contains("\"ph\":\"X\",\"dur\":2.000,\"name\":\"net.request\""),
            "{json}"
        );
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"trace_id\":9"), "{json}");
        // Exactly one comma-separated list: 2 objects, 1 separator.
        assert_eq!(json.matches("},\n{").count(), 1, "{json}");
    }

    #[test]
    fn drain_new_is_incremental() {
        if !trace_enabled() {
            return; // the off lane records nothing; nothing to assert
        }
        let id = next_trace_id();
        let mut cursors = Vec::new();
        // Burn everything recorded so far.
        let _ = drain_new(&mut cursors);
        {
            let _scope = scope(id);
            instant(Stage::Checkpoint, 1, 0);
        }
        let first: Vec<TraceEvent> = drain_new(&mut cursors)
            .into_iter()
            .filter(|e| e.trace_id == id)
            .collect();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].a, 1);
        // Nothing new: the cursor advanced.
        let second: Vec<TraceEvent> = drain_new(&mut cursors)
            .into_iter()
            .filter(|e| e.trace_id == id)
            .collect();
        assert!(second.is_empty());
    }

    #[test]
    fn scopes_nest_and_restore() {
        if !trace_enabled() {
            return; // the off lane parks no ids; nothing to assert
        }
        let (a, b) = (next_trace_id(), next_trace_id());
        {
            let _outer = scope(a);
            assert_eq!(current_trace_id(), a);
            {
                let _inner = scope(b);
                assert_eq!(current_trace_id(), b);
            }
            assert_eq!(current_trace_id(), a);
        }
        assert_eq!(current_trace_id(), 0);
    }
}
