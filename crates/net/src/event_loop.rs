//! The multiplexed serving engine: every connection on one thread,
//! driven by readiness events from [`crate::poll`].
//!
//! # Architecture
//!
//! One iteration of the loop:
//!
//! 1. **Wait** for readiness (zero timeout when a connection still has
//!    buffered complete lines — the fairness quantum, not the network,
//!    paused it).
//! 2. **Accept** every pending connection; register it non-blocking.
//! 3. **Read** from readable connections into per-connection buffers
//!    (bounded per iteration, skipped under backpressure).
//! 4. **Process** up to a fixed quantum of complete lines per
//!    connection, appending responses to its write buffer — so one
//!    firehose ingest connection cannot starve query connections
//!    (no head-of-line blocking between sessions).
//! 5. **Publish + fan out** (shared mode): if ingest dirtied the graph,
//!    publish a fresh snapshot and route the captured edge deltas to
//!    every subscribed connection's bounded push queue.
//! 6. **Drain** push queues into write buffers — only at reply
//!    boundaries, so pushed `U`/`D` frames never interleave inside a
//!    `P*`-then-`OK` reply.
//! 7. **Flush** write buffers (non-blocking; what does not fit stays
//!    buffered and turns on write interest).
//! 8. **Re-arm interest**: read is withdrawn while a connection's
//!    backlog exceeds `write_buf_cap` (backpressure — a slow reader
//!    stops being read from, it does not stall the loop), write is
//!    armed only while output is pending.
//!
//! # Session modes
//!
//! *Per-session* (default): each connection owns a [`Session`] — its own
//! pipeline, its own stream.
//!
//! *Shared* ([`crate::ServerOptions::shared`]): all connections feed and
//! query **one** session. Queries are served from the graph's published
//! snapshot ([`Session::set_snapshot_reads`]) so they never contend
//! with ingest; `SUBSCRIBE` becomes real server push (step 5);
//! `CONFIG` answers `E` (the operator fixed the pipeline); `QUIT`
//! closes only the issuing connection. `FINISH` seals the shared
//! pipeline for everyone — intended for the end of the stream, not a
//! client departure.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sssj_graph::GraphHandle;
use sssj_metrics::registry::{Counter, Registry};
use sssj_types::SimilarPair;

use crate::poll::{Event, Interest, Poller};
use crate::protocol::{EngineLabel, Request, Response};
use crate::server::{connections_gauge, Framed, LineBuf, ServerOptions};
use crate::session::Session;

/// Lines processed per connection per iteration before yielding to the
/// other connections. Kept small on purpose: a quantum is the
/// head-of-line wait another connection's QUERY can see behind a
/// saturated ingest connection, and a join step can be expensive, so a
/// large quantum trades tail latency for nothing — per-iteration
/// overhead is a poll syscall and a slab scan, orders of magnitude
/// cheaper than eight join steps.
const QUANTUM: usize = 8;
/// Bytes read from one connection per iteration (several quanta worth).
const READ_BURST: usize = 64 * 1024;
/// The accept listener's poll token; connections use their slab index.
const LISTENER_TOKEN: u64 = u64::MAX;

/// The event loop's registry handles, resolved once.
struct LoopMetrics {
    /// `sssj_net_loop_stalls_total`: iterations whose work (everything
    /// between two poll waits) overran the poll interval — each one is
    /// latency every other connection observed. Also surfaced as the
    /// `G loop_stalls=<n>` line preceding every `S` reply, so the probe
    /// works over the wire even with telemetry off.
    stalls: &'static Counter,
    /// `sssj_net_push_dropped_updates_total`: subscription updates
    /// discarded by bounded push queues (the sum of all `D` counts).
    push_drops: &'static Counter,
    /// `sssj_net_backpressure_events_total`: read-interest withdrawals —
    /// a connection's un-flushed output crossed `write_buf_cap` and the
    /// loop stopped reading from it until it drains.
    backpressure: &'static Counter,
}

fn loop_metrics() -> &'static LoopMetrics {
    static M: OnceLock<LoopMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = Registry::global();
        LoopMetrics {
            stalls: reg.counter(
                "sssj_net_loop_stalls_total",
                "event-loop iterations whose work overran the poll interval",
            ),
            push_drops: reg.counter(
                "sssj_net_push_dropped_updates_total",
                "subscription updates discarded by bounded push queues",
            ),
            backpressure: reg.counter(
                "sssj_net_backpressure_events_total",
                "read-interest withdrawals under write-buffer backpressure",
            ),
        }
    })
}

/// A bounded queue of pushed `U` frames with a drop-oldest overflow
/// policy; discarded frames are coalesced into one `D <count>` line
/// emitted before the survivors at the next drain.
pub(crate) struct PushQueue {
    cap: usize,
    items: VecDeque<Response>,
    dropped: u64,
}

impl PushQueue {
    pub(crate) fn new(cap: usize) -> PushQueue {
        PushQueue {
            cap: cap.max(1),
            items: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, update: Response) {
        if self.items.len() >= self.cap {
            self.items.pop_front();
            self.dropped += 1;
            loop_metrics().push_drops.inc();
        }
        self.items.push_back(update);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty() && self.dropped == 0
    }

    /// Serializes the queue (a coalescing `D` first when frames were
    /// dropped) into a write buffer and empties it.
    pub(crate) fn drain_to(&mut self, wbuf: &mut Vec<u8>) {
        if self.dropped > 0 {
            append_response(wbuf, &Response::Dropped(self.dropped));
            self.dropped = 0;
        }
        for r in self.items.drain(..) {
            append_response(wbuf, &r);
        }
    }
}

fn append_response(wbuf: &mut Vec<u8>, r: &Response) {
    wbuf.extend_from_slice(r.to_string().as_bytes());
    wbuf.push(b'\n');
}

/// The one shared pipeline of a `--shared` server.
struct SharedPipeline {
    session: Session,
    graph: Option<GraphHandle>,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Unconsumed input, framed into lines.
    lines: LineBuf,
    /// Pending output, drained from `wpos`.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Per-session mode: this connection's own pipeline.
    session: Option<Session>,
    /// Shared mode: this connection's subscribed nodes.
    subs: Vec<u64>,
    push_q: PushQueue,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Readiness reported this iteration.
    readable: bool,
    /// The last write hit `WouldBlock`; wait for a writable event before
    /// trying again.
    write_blocked: bool,
    /// A complete line is buffered but unprocessed (quantum or
    /// backpressure paused this connection, not the network).
    line_ready: bool,
    eof: bool,
    /// Flush remaining output, then retire.
    closing: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, options: &ServerOptions) -> Conn {
        let session = if options.shared {
            None
        } else {
            let mut s = Session::new(options.defaults.clone());
            s.set_serving_info(EngineLabel::EventLoop, false);
            Some(s)
        };
        Conn {
            stream,
            lines: LineBuf::default(),
            wbuf: Vec::new(),
            wpos: 0,
            session,
            subs: Vec::new(),
            push_q: PushQueue::new(options.push_queue_cap),
            interest: Interest {
                read: true,
                write: false,
            },
            readable: false,
            write_blocked: false,
            line_ready: false,
            eof: false,
            closing: false,
            dead: false,
        }
    }

    fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// Runs the event loop until `stop`. Owns the listener, the poller, and
/// every connection; the whole engine is one thread.
pub(crate) fn run(
    listener: TcpListener,
    options: ServerOptions,
    stop: Arc<AtomicBool>,
    started: Arc<AtomicU64>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut poller = Poller::new();
    if poller
        .register(
            listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest {
                read: true,
                write: false,
            },
        )
        .is_err()
    {
        return;
    }

    let mut shared = if options.shared {
        let mut session = Session::new(options.defaults.clone());
        session.set_serving_info(EngineLabel::EventLoop, true);
        session.set_snapshot_reads(true);
        let graph = session.graph_handle();
        if let Some(g) = &graph {
            g.set_collect_deltas(true);
        }
        Some(SharedPipeline { session, graph })
    } else {
        None
    };

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut responses: Vec<Response> = Vec::new();
    // Stall probe: an iteration's work (between two poll waits) running
    // past the poll interval is head-of-line latency every connection
    // observed. Tracked locally (for the G line on STATS replies) and as
    // `sssj_net_loop_stalls_total`.
    let stall_budget = options.poll_interval.max(Duration::from_millis(1));
    let mut loop_stalls: u64 = 0;
    // Resolve the loop's metric handles up front so every series exists
    // (at zero) in a scrape even before the first stall or drop.
    let _ = loop_metrics();

    while !stop.load(Ordering::SeqCst) {
        // 1. Wait — immediately when paused work is buffered.
        let immediate = conns.iter().flatten().any(|c| {
            !c.dead && !c.closing && c.line_ready && c.pending_out() < options.write_buf_cap
        });
        let timeout = if immediate {
            Duration::ZERO
        } else {
            options.poll_interval
        };
        let mut accept_ready = false;
        if poller.wait(&mut events, timeout).is_err() {
            break;
        }
        for e in &events {
            if e.token == LISTENER_TOKEN {
                accept_ready = true;
            } else if let Some(Some(c)) = conns.get_mut(e.token as usize) {
                c.readable |= e.readable;
                if e.writable {
                    c.write_blocked = false;
                }
            }
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let work_started = Instant::now();

        // 2. Accept everything pending.
        if accept_ready {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        started.fetch_add(1, Ordering::SeqCst);
                        let conn = Conn::new(stream, &options);
                        let token = match conns.iter().position(Option::is_none) {
                            Some(i) => i,
                            None => {
                                conns.push(None);
                                conns.len() - 1
                            }
                        };
                        if poller
                            .register(conn.stream.as_raw_fd(), token as u64, conn.interest)
                            .is_ok()
                        {
                            conns[token] = Some(conn);
                            connections_gauge().add(1);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // 3. Read.
        let mut chunk = [0u8; 4096];
        for conn in conns.iter_mut().flatten() {
            if !conn.readable || conn.closing || conn.dead {
                continue;
            }
            if conn.pending_out() >= options.write_buf_cap {
                continue; // backpressure: leave bytes in the kernel
            }
            conn.readable = false;
            let mut budget = READ_BURST;
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.lines.push(&chunk[..n]);
                        budget = budget.saturating_sub(n);
                        if budget == 0 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }

        // 4. Process lines, a quantum per connection.
        for slot in conns.iter_mut() {
            let Some(conn) = slot.as_mut() else { continue };
            if conn.dead || conn.closing {
                continue;
            }
            process_lines(conn, shared.as_mut(), &options, loop_stalls, &mut responses);
        }

        // 5. Shared mode: fan out push deltas. (Snapshot publication is
        // NOT done here: it is lazy, folded into the query path —
        // `Session` publishes before answering when the graph is dirty
        // — so pure-ingest iterations never pay an O(live) capture and
        // the cadence inside `GraphHandle` still bounds staleness for
        // wait-free readers.)
        if let Some(sh) = &mut shared {
            if let Some(g) = &sh.graph {
                let deltas = g.take_deltas();
                if !deltas.is_empty() {
                    for conn in conns.iter_mut().flatten() {
                        if conn.dead || conn.subs.is_empty() {
                            continue;
                        }
                        for d in &deltas {
                            for node in [d.left, d.right] {
                                if conn.subs.contains(&node) {
                                    conn.push_q.push(Response::Update {
                                        node,
                                        pair: SimilarPair::new(d.left, d.right, d.similarity),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        // 6. Drain push queues (reply boundaries only: every response in
        // step 4 was appended whole).
        for conn in conns.iter_mut().flatten() {
            if !conn.dead && !conn.closing && !conn.push_q.is_empty() {
                conn.push_q.drain_to(&mut conn.wbuf);
            }
        }

        // 7. Flush.
        for conn in conns.iter_mut().flatten() {
            if conn.dead {
                continue;
            }
            while conn.pending_out() > 0 && !conn.write_blocked {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        conn.write_blocked = true;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.wpos > 0 && conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
            } else if conn.wpos > READ_BURST {
                conn.wbuf.drain(..conn.wpos);
                conn.wpos = 0;
            }
            if (conn.closing || conn.eof) && conn.pending_out() == 0 && !conn.line_ready {
                conn.dead = true;
            }
        }

        // 8. Re-arm interest where it changed.
        for (i, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else { continue };
            if conn.dead {
                continue;
            }
            let want = Interest {
                read: !conn.closing && conn.pending_out() < options.write_buf_cap,
                write: conn.pending_out() > 0,
            };
            if conn.interest.read && !want.read && !conn.closing {
                loop_metrics().backpressure.inc();
            }
            if want != conn.interest
                && poller
                    .reregister(conn.stream.as_raw_fd(), i as u64, want)
                    .is_ok()
            {
                conn.interest = want;
            }
        }

        // 9. Retire the dead.
        for slot in conns.iter_mut() {
            if slot.as_ref().is_some_and(|c| c.dead) {
                let conn = slot.take().expect("checked above");
                let _ = poller.deregister(conn.stream.as_raw_fd());
                connections_gauge().add(-1);
            }
        }

        if work_started.elapsed() > stall_budget {
            loop_stalls += 1;
            loop_metrics().stalls.inc();
            // A stalled loop is exactly when the flight recorder earns
            // its keep: note the stall and dump the recent events, rate-
            // limited to one dump per second so a pathological stream
            // cannot flood stderr.
            sssj_metrics::trace::instant(
                sssj_metrics::trace::Stage::LoopStall,
                loop_stalls,
                work_started.elapsed().as_micros() as u64,
            );
            static LAST_DUMP: std::sync::Mutex<Option<std::time::Instant>> =
                std::sync::Mutex::new(None);
            if sssj_metrics::trace_enabled() {
                let mut last = LAST_DUMP.lock().expect("stall-dump clock poisoned");
                if last.is_none_or(|at| at.elapsed().as_secs_f64() >= 1.0) {
                    *last = Some(std::time::Instant::now());
                    sssj_metrics::trace::dump_to_stderr("event-loop stall", 64);
                }
            }
        }
    }

    // Teardown: best-effort flush, then drop everything.
    for conn in conns.iter_mut().flatten() {
        if conn.pending_out() > 0 {
            let _ = conn.stream.write_all(&conn.wbuf[conn.wpos..]);
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        connections_gauge().add(-1);
    }
}

/// Processes up to [`QUANTUM`] complete lines from `conn`, appending the
/// serialized responses to its write buffer. Pauses (not fails) on
/// quantum exhaustion or backpressure; `conn.line_ready` records whether
/// buffered work remains. `STATS` replies are prefixed with a
/// `G loop_stalls=<n>` line — the loop's stall-probe reading, surfaced
/// on the wire regardless of the telemetry switch.
fn process_lines(
    conn: &mut Conn,
    mut shared: Option<&mut SharedPipeline>,
    options: &ServerOptions,
    loop_stalls: u64,
    responses: &mut Vec<Response>,
) {
    let mut processed = 0;
    conn.line_ready = false;
    loop {
        if processed >= QUANTUM || conn.pending_out() >= options.write_buf_cap {
            conn.line_ready = conn.lines.has_line();
            return;
        }
        let line = match conn.lines.next_line(options.max_line_bytes) {
            Framed::Line(line) => line,
            Framed::Partial => return,
            Framed::TooLong => {
                responses.clear();
                responses.push(Response::Err("line exceeds size cap".into()));
                for r in responses.iter() {
                    append_response(&mut conn.wbuf, r);
                }
                conn.closing = true;
                return;
            }
        };
        processed += 1;
        if line.trim().is_empty() {
            continue;
        }
        responses.clear();
        match Request::parse(&line) {
            Ok(req) => {
                let is_stats = matches!(req, Request::Stats);
                match (&mut shared, &mut conn.session) {
                    (Some(sh), _) => {
                        handle_shared_request(sh, &mut conn.subs, &mut conn.closing, req, responses)
                    }
                    (None, Some(session)) => {
                        if !session.handle(req, responses) {
                            conn.closing = true;
                        }
                    }
                    (None, None) => unreachable!("per-session connections own a session"),
                }
                if is_stats {
                    responses.insert(
                        0,
                        Response::Graph(vec![("loop_stalls".into(), loop_stalls)]),
                    );
                }
            }
            Err(e) => responses.push(Response::Err(e.to_string())),
        }
        for r in responses.iter() {
            append_response(&mut conn.wbuf, r);
        }
        if conn.closing {
            return;
        }
    }
}

/// Dispatches one request against the shared pipeline. Connection-scoped
/// verbs (`SUBSCRIBE`, `QUIT`) are intercepted here; `CONFIG` is
/// refused; everything else hits the shared session.
fn handle_shared_request(
    sh: &mut SharedPipeline,
    subs: &mut Vec<u64>,
    closing: &mut bool,
    req: Request,
    out: &mut Vec<Response>,
) {
    match req {
        Request::Config(_) => out.push(Response::Err(
            "shared server: the pipeline is fixed by the operator \
             (CONFIG needs a per-session server)"
                .into(),
        )),
        Request::Subscribe { node } => {
            if sh.graph.is_none() {
                out.push(Response::Err(
                    "session has no graph (start the server with a \
                     graph-wrapped spec, e.g. str-l2?theta=0.7&tau=10&graph)"
                        .into(),
                ));
            } else {
                if !subs.contains(&node) {
                    subs.push(node);
                }
                out.push(Response::Ok(0));
            }
        }
        Request::Quit => {
            out.push(Response::Bye);
            *closing = true;
        }
        other => {
            sh.session.handle(other, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(node: u64, l: u64, r: u64) -> Response {
        Response::Update {
            node,
            pair: SimilarPair::new(l, r, 0.9),
        }
    }

    #[test]
    fn push_queue_drops_oldest_and_coalesces_one_d_line() {
        let mut q = PushQueue::new(3);
        for i in 0..8 {
            q.push(update(1, i, i + 1));
        }
        let mut wbuf = Vec::new();
        q.drain_to(&mut wbuf);
        let text = String::from_utf8(wbuf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 5 oldest dropped, coalesced into one D; the 3 newest survive
        // in order.
        assert_eq!(lines[0], "D 5");
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1], "U 1 5 6 0.9");
        assert_eq!(lines[3], "U 1 7 8 0.9");
        assert!(q.is_empty());
        // A drained queue resets: the next drain has no D line.
        q.push(update(2, 0, 2));
        let mut wbuf = Vec::new();
        q.drain_to(&mut wbuf);
        assert_eq!(String::from_utf8(wbuf).unwrap(), "U 2 0 2 0.9\n");
    }

    #[test]
    fn push_queue_cap_is_at_least_one() {
        let mut q = PushQueue::new(0);
        q.push(update(1, 0, 1));
        q.push(update(1, 1, 2));
        let mut wbuf = Vec::new();
        q.drain_to(&mut wbuf);
        let text = String::from_utf8(wbuf).unwrap();
        assert_eq!(text, "D 1\nU 1 1 2 0.9\n");
    }
}
