//! The TCP server, with two serving engines behind one [`Server`] API.
//!
//! * [`ServerEngine::EventLoop`] (default) — every connection on one
//!   thread, multiplexed over readiness events (epoll on Linux x86-64,
//!   a portable scan fallback elsewhere; see `poll`, crate-private).
//!   Scales
//!   to many concurrent connections without a thread per socket, gives
//!   each connection a fairness quantum (no head-of-line blocking
//!   between an ingest firehose and query clients), applies
//!   backpressure to slow readers via bounded per-connection write
//!   buffers, and is the only engine that does real server-push
//!   `SUBSCRIBE` in shared mode. The loop's architecture is documented
//!   in `event_loop` (crate-private).
//! * [`ServerEngine::Threaded`] — the original thread-per-connection
//!   engine, kept as the differential baseline: blocking reads with a
//!   poll timeout, one OS thread per session.
//!
//! Orthogonally, [`ServerOptions::shared`] selects the session model:
//! per-connection pipelines (every connection is an independent join —
//! the paper's single-core-per-join shape) or one **shared** pipeline
//! all connections feed and query. In shared mode the event loop serves
//! queries from the graph's published snapshot (wait-free reads, see
//! `sssj_graph::GraphSnapshot`) while the threaded engine serializes
//! every request behind one mutex — which is exactly the baseline the
//! event loop's snapshot reads are tested against.
//!
//! Shutdown: [`Server::shutdown`] sets a flag, wakes the engine with a
//! loopback connection, and joins every thread. In-flight requests
//! complete before connections close.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sssj_metrics::registry::{Gauge, Registry};

use crate::protocol::{EngineLabel, Request, Response, MAX_LINE_BYTES};
use crate::session::{Session, SessionDefaults};

/// `sssj_net_connections`: currently open connections, whichever engine
/// serves them. Resolved once; shared by both engines.
pub(crate) fn connections_gauge() -> &'static Gauge {
    static G: std::sync::OnceLock<&'static Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| Registry::global().gauge("sssj_net_connections", "open client connections"))
}

/// Which serving engine [`Server::bind`] starts. The compiled-in
/// default is the event loop; the `SSSJ_NET_ENGINE` environment
/// variable (`eventloop` | `threaded`) overrides
/// [`ServerOptions::default`], and an explicit field value overrides
/// both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerEngine {
    /// One thread, readiness-multiplexed connections (default).
    EventLoop,
    /// One OS thread per connection (the differential baseline).
    Threaded,
}

impl ServerEngine {
    /// The environment default: `SSSJ_NET_ENGINE=threaded` selects the
    /// thread-per-connection baseline, anything else the event loop.
    pub fn from_env() -> ServerEngine {
        match std::env::var("SSSJ_NET_ENGINE").as_deref() {
            Ok("threaded") => ServerEngine::Threaded,
            _ => ServerEngine::EventLoop,
        }
    }
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Defaults every session starts from (overridable via `CONFIG` on
    /// per-session servers; fixed in shared mode).
    pub defaults: SessionDefaults,
    /// How often an idle session checks the shutdown flag (also the
    /// event loop's maximum sleep).
    pub poll_interval: Duration,
    /// Per-line size cap; longer lines close the connection.
    pub max_line_bytes: usize,
    /// The serving engine (see [`ServerEngine`]).
    pub engine: ServerEngine,
    /// One shared pipeline instead of per-connection sessions: every
    /// connection feeds/queries the same join, `SUBSCRIBE` is real
    /// server push (event-loop engine), and `CONFIG` is refused.
    pub shared: bool,
    /// Per-connection bound on queued pushed updates (shared event-loop
    /// mode). Overflow drops oldest and reports one coalesced `D <n>`.
    pub push_queue_cap: usize,
    /// Per-connection write-buffer backpressure threshold (bytes): a
    /// connection whose un-flushed output exceeds this stops being read
    /// from until it drains.
    pub write_buf_cap: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            defaults: SessionDefaults::default(),
            poll_interval: Duration::from_millis(50),
            max_line_bytes: MAX_LINE_BYTES,
            engine: ServerEngine::from_env(),
            shared: false,
            push_queue_cap: 1024,
            write_buf_cap: 256 * 1024,
        }
    }
}

/// A running join server. Dropping it (or calling [`Server::shutdown`])
/// stops accepting, closes idle sessions and joins all threads.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    started: Arc<AtomicU64>,
}

impl Server {
    /// Binds and starts serving in background threads. Use
    /// `"127.0.0.1:0"` to let the OS pick a free port and read it back
    /// with [`Server::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, options: ServerOptions) -> io::Result<Server> {
        // A panicking server dumps its flight recorder: the last events
        // before the crash are usually the diagnosis.
        sssj_metrics::trace::install_panic_hook();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let started = Arc::new(AtomicU64::new(0));

        let accept_stop = Arc::clone(&stop);
        let accept_sessions = Arc::clone(&sessions);
        let accept_started = Arc::clone(&started);
        let accept_thread = match options.engine {
            ServerEngine::EventLoop => thread::Builder::new()
                .name("sssj-net-loop".into())
                .spawn(move || {
                    crate::event_loop::run(listener, options, accept_stop, accept_started)
                })
                .expect("spawn event-loop thread"),
            ServerEngine::Threaded => thread::Builder::new()
                .name("sssj-net-accept".into())
                .spawn(move || {
                    // Threaded shared mode: one session, every connection
                    // behind its mutex — the serialization baseline.
                    let shared = options.shared.then(|| {
                        crate::register_spec_builders();
                        let mut s = Session::new(options.defaults.clone());
                        s.set_serving_info(EngineLabel::Threaded, true);
                        Arc::new(Mutex::new(s))
                    });
                    for stream in listener.incoming() {
                        if accept_stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = match stream {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        accept_started.fetch_add(1, Ordering::SeqCst);
                        let stop = Arc::clone(&accept_stop);
                        let options = options.clone();
                        let shared = shared.clone();
                        let handle = thread::Builder::new()
                            .name("sssj-net-session".into())
                            .spawn(move || serve_connection(stream, options, shared, &stop))
                            .expect("spawn session thread");
                        accept_sessions.lock().expect("sessions lock").push(handle);
                    }
                })
                .expect("spawn accept thread"),
        };

        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            sessions,
            started,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of sessions accepted so far.
    pub fn sessions_started(&self) -> u64 {
        self.started.load(Ordering::SeqCst)
    }

    /// Stops accepting, lets sessions notice the flag, and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self
            .sessions
            .lock()
            .expect("sessions lock")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Reads `\n`-terminated lines from a stream whose reads time out, so the
/// loop can poll a shutdown flag between partial reads without ever
/// losing buffered bytes (unlike `BufRead::read_line`, whose buffer is
/// unspecified after an error).
struct LineReader<R> {
    inner: R,
    pending: Vec<u8>,
    scanned: usize,
    chunk: [u8; 4096],
}

enum LineEvent {
    Line(String),
    Eof,
    Stopped,
    TooLong,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R) -> Self {
        LineReader {
            inner,
            pending: Vec::new(),
            scanned: 0,
            chunk: [0; 4096],
        }
    }

    fn take_line(&mut self, newline_at: usize) -> String {
        let rest = self.pending.split_off(newline_at + 1);
        let mut line = std::mem::replace(&mut self.pending, rest);
        line.pop(); // the newline
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        self.scanned = 0;
        String::from_utf8_lossy(&line).into_owned()
    }

    /// Blocks (in poll-sized steps) until a full line, EOF, the shutdown
    /// flag, or the size cap.
    fn read_line(&mut self, stop: &AtomicBool, max: usize) -> io::Result<LineEvent> {
        loop {
            if let Some(i) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                return Ok(LineEvent::Line(self.take_line(self.scanned + i)));
            }
            self.scanned = self.pending.len();
            if self.pending.len() > max {
                return Ok(LineEvent::TooLong);
            }
            if stop.load(Ordering::SeqCst) {
                return Ok(LineEvent::Stopped);
            }
            match self.inner.read(&mut self.chunk) {
                Ok(0) => return Ok(LineEvent::Eof),
                Ok(n) => self.pending.extend_from_slice(&self.chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue; // poll tick: re-check the stop flag
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    options: ServerOptions,
    shared: Option<Arc<Mutex<Session>>>,
    stop: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(options.poll_interval));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream);
    let mut session = match shared {
        Some(_) => None,
        None => {
            let mut s = Session::new(options.defaults);
            s.set_serving_info(EngineLabel::Threaded, false);
            Some(s)
        }
    };
    let mut responses = Vec::new();
    connections_gauge().add(1);

    loop {
        match reader.read_line(stop, options.max_line_bytes) {
            Ok(LineEvent::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                responses.clear();
                let keep_alive = match Request::parse(&line) {
                    Ok(req) => match (&shared, &mut session) {
                        // Shared threaded mode: every request behind the
                        // one session's mutex. Connection-scoped verbs
                        // are intercepted — QUIT must not seal the
                        // pipeline for everyone, and server push needs
                        // the event-loop engine's out-of-band writes.
                        (Some(sh), _) => match req {
                            Request::Config(_) => {
                                responses.push(Response::Err(
                                    "shared server: the pipeline is fixed by the \
                                     operator (CONFIG needs a per-session server)"
                                        .into(),
                                ));
                                true
                            }
                            Request::Subscribe { .. } => {
                                responses.push(Response::Err(
                                    "shared SUBSCRIBE needs the event-loop engine \
                                     (server push; restart without \
                                     SSSJ_NET_ENGINE=threaded)"
                                        .into(),
                                ));
                                true
                            }
                            Request::Quit => {
                                responses.push(Response::Bye);
                                false
                            }
                            other => sh
                                .lock()
                                .expect("shared session lock")
                                .handle(other, &mut responses),
                        },
                        (None, Some(session)) => session.handle(req, &mut responses),
                        (None, None) => unreachable!("per-session connections own a session"),
                    },
                    Err(e) => {
                        responses.push(Response::Err(e.to_string()));
                        true
                    }
                };
                if write_responses(&mut writer, &responses).is_err() {
                    break;
                }
                if !keep_alive {
                    break;
                }
            }
            Ok(LineEvent::TooLong) => {
                let _ = write_responses(
                    &mut writer,
                    &[Response::Err("line exceeds size cap".into())],
                );
                break;
            }
            Ok(LineEvent::Eof) | Ok(LineEvent::Stopped) | Err(_) => break,
        }
    }
    let _ = writer.flush();
    let _ = writer.shutdown(Shutdown::Both);
    connections_gauge().add(-1);
}

fn write_responses(w: &mut impl Write, responses: &[Response]) -> io::Result<()> {
    let mut buf = String::new();
    for r in responses {
        buf.push_str(&r.to_string());
        buf.push('\n');
    }
    w.write_all(buf.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_reader_splits_and_strips_crlf() {
        let data: &[u8] = b"one\r\ntwo\nthree";
        let mut r = LineReader::new(data);
        let stop = AtomicBool::new(false);
        match r.read_line(&stop, 100).unwrap() {
            LineEvent::Line(l) => assert_eq!(l, "one"),
            _ => panic!("expected line"),
        }
        match r.read_line(&stop, 100).unwrap() {
            LineEvent::Line(l) => assert_eq!(l, "two"),
            _ => panic!("expected line"),
        }
        // Trailing bytes without a newline: EOF (partial line dropped —
        // the protocol requires terminated lines).
        assert!(matches!(r.read_line(&stop, 100).unwrap(), LineEvent::Eof));
    }

    #[test]
    fn line_reader_enforces_size_cap() {
        let long = vec![b'x'; 300];
        let mut r = LineReader::new(&long[..]);
        let stop = AtomicBool::new(false);
        assert!(matches!(
            r.read_line(&stop, 100).unwrap(),
            LineEvent::TooLong
        ));
    }

    #[test]
    fn line_reader_observes_stop_flag() {
        struct NeverReady;
        impl Read for NeverReady {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(ErrorKind::WouldBlock, "not ready"))
            }
        }
        let mut r = LineReader::new(NeverReady);
        let stop = AtomicBool::new(true);
        assert!(matches!(
            r.read_line(&stop, 100).unwrap(),
            LineEvent::Stopped
        ));
    }

    #[test]
    fn line_reader_handles_split_reads() {
        // A reader that yields one byte at a time exercises resumed scans.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut r = LineReader::new(OneByte(b"hello\nworld\n", 0));
        let stop = AtomicBool::new(false);
        for want in ["hello", "world"] {
            match r.read_line(&stop, 100).unwrap() {
                LineEvent::Line(l) => assert_eq!(l, want),
                _ => panic!("expected line"),
            }
        }
    }
}
