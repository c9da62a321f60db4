//! The TCP server: every connection on one thread, multiplexed over
//! readiness events (epoll on Linux x86-64, a portable scan fallback
//! elsewhere; see `poll`, crate-private). The loop scales to many
//! concurrent connections without a thread per socket, gives each
//! connection a fairness quantum (no head-of-line blocking between an
//! ingest firehose and query clients) and applies backpressure to slow
//! readers via bounded per-connection write buffers. Its architecture
//! is documented in `event_loop` (crate-private).
//!
//! [`ServerOptions::shared`] selects the session model: per-connection
//! pipelines (every connection is an independent join — the paper's
//! single-core-per-join shape) or one **shared** pipeline all
//! connections feed and query. In shared mode queries are served from
//! the graph's published snapshot (wait-free reads, see
//! `sssj_graph::GraphSnapshot`) and `SUBSCRIBE` is real server push.
//!
//! Shutdown: [`Server::shutdown`] sets a flag, wakes the loop with a
//! loopback connection, and joins its thread. In-flight requests
//! complete before connections close.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sssj_metrics::registry::{Gauge, Registry};

use crate::protocol::MAX_LINE_BYTES;
use crate::session::SessionDefaults;

/// `sssj_net_connections`: currently open connections. Resolved once.
pub(crate) fn connections_gauge() -> &'static Gauge {
    static G: std::sync::OnceLock<&'static Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| Registry::global().gauge("sssj_net_connections", "open client connections"))
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Defaults every session starts from (overridable via `CONFIG` on
    /// per-session servers; fixed in shared mode).
    pub defaults: SessionDefaults,
    /// The event loop's maximum sleep: how often an idle server checks
    /// the shutdown flag, and the budget of the loop's stall probe.
    pub poll_interval: Duration,
    /// Per-line size cap; longer lines close the connection.
    pub max_line_bytes: usize,
    /// One shared pipeline instead of per-connection sessions: every
    /// connection feeds/queries the same join, `SUBSCRIBE` is real
    /// server push, and `CONFIG` is refused.
    pub shared: bool,
    /// Per-connection bound on queued pushed updates (shared mode).
    /// Overflow drops oldest and reports one coalesced `D <n>`.
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
            shared: false,
            push_queue_cap: 1024,
            write_buf_cap: 256 * 1024,
        }
    }
}

/// A running join server. Dropping it (or calling [`Server::shutdown`])
/// stops accepting, closes every connection and joins the loop thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loop_thread: Option<JoinHandle<()>>,
    started: Arc<AtomicU64>,
}

impl Server {
    /// Binds and starts serving on a background thread. Use
    /// `"127.0.0.1:0"` to let the OS pick a free port and read it back
    /// with [`Server::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, options: ServerOptions) -> io::Result<Server> {
        // A panicking server dumps its flight recorder: the last events
        // before the crash are usually the diagnosis.
        sssj_metrics::trace::install_panic_hook();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicU64::new(0));

        let loop_stop = Arc::clone(&stop);
        let loop_started = Arc::clone(&started);
        let loop_thread = thread::Builder::new()
            .name("sssj-net-loop".into())
            .spawn(move || crate::event_loop::run(listener, options, loop_stop, loop_started))
            .expect("spawn event-loop thread");

        Ok(Server {
            addr,
            stop,
            loop_thread: Some(loop_thread),
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

    /// Stops accepting, lets the loop notice the flag, and joins its
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the loop's poll wait with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Splits a connection's byte stream into `\n`-terminated lines across
/// arbitrary read boundaries: push what the socket yielded, take
/// complete lines out, never lose buffered bytes in between.
#[derive(Default)]
pub(crate) struct LineBuf {
    /// Unconsumed input; `scanned` bytes from the front are known
    /// newline-free (resumed scans stay linear on split reads).
    pending: Vec<u8>,
    scanned: usize,
}

/// What [`LineBuf::next_line`] found.
pub(crate) enum Framed {
    /// One complete line, terminator (and a preceding `\r`) stripped.
    Line(String),
    /// No complete line is buffered yet.
    Partial,
    /// More than the cap is buffered and still no newline.
    TooLong,
}

impl LineBuf {
    /// Appends bytes read from the stream.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Index of the next newline, or `None` (advancing `scanned` so the
    /// searched prefix is never rescanned).
    fn find_newline(&mut self) -> Option<usize> {
        match self.pending[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(i) => Some(self.scanned + i),
            None => {
                self.scanned = self.pending.len();
                None
            }
        }
    }

    /// Whether a complete line is buffered.
    pub(crate) fn has_line(&mut self) -> bool {
        self.find_newline().is_some()
    }

    /// Consumes and returns the next complete line; without one, says
    /// whether the unterminated backlog already exceeds `max` bytes.
    pub(crate) fn next_line(&mut self, max: usize) -> Framed {
        match self.find_newline() {
            Some(newline_at) => Framed::Line(self.take_line(newline_at)),
            None if self.pending.len() > max => Framed::TooLong,
            None => Framed::Partial,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect_line(buf: &mut LineBuf, want: &str) {
        match buf.next_line(100) {
            Framed::Line(l) => assert_eq!(l, want),
            _ => panic!("expected line {want:?}"),
        }
    }

    #[test]
    fn line_reader_splits_and_strips_crlf() {
        let mut buf = LineBuf::default();
        buf.push(b"one\r\ntwo\nthree");
        assert!(buf.has_line());
        expect_line(&mut buf, "one");
        expect_line(&mut buf, "two");
        // Trailing bytes without a newline are not a line yet (the
        // protocol requires terminated lines; at EOF they are dropped).
        assert!(!buf.has_line());
        assert!(matches!(buf.next_line(100), Framed::Partial));
        buf.push(b"\n");
        expect_line(&mut buf, "three");
    }

    #[test]
    fn line_reader_enforces_size_cap() {
        let mut buf = LineBuf::default();
        buf.push(&[b'x'; 300]);
        assert!(matches!(buf.next_line(100), Framed::TooLong));
        // The cap bounds the unterminated backlog, not a line whose
        // newline has already arrived.
        buf.push(b"\n");
        assert!(matches!(buf.next_line(100), Framed::Line(l) if l.len() == 300));
    }

    #[test]
    fn line_reader_handles_split_reads() {
        // One byte per push exercises resumed scans.
        let mut buf = LineBuf::default();
        let mut lines = Vec::new();
        for b in b"hello\nworld\n" {
            buf.push(&[*b]);
            if let Framed::Line(l) = buf.next_line(100) {
                lines.push(l);
            }
        }
        assert_eq!(lines, ["hello", "world"]);
        assert!(matches!(buf.next_line(100), Framed::Partial));
    }
}
