#![warn(missing_docs)]
//! The streaming similarity self-join as a network service.
//!
//! This crate wraps the joins of [`sssj_core`] in a line-protocol TCP
//! service — the deployment shape the paper's motivating applications
//! (trend detection, near-duplicate filtering over a feed) actually run
//! in: producers push timestamped items over a socket and receive each
//! similar pair the moment it completes.
//!
//! * [`Server`] — accepts connections and serves them all from one
//!   readiness-multiplexed event-loop thread (epoll on Linux x86-64).
//!   Each connection is an independent session running its own join (θ,
//!   λ, index, framework and out-of-order slack are all per-session,
//!   negotiated via `CONFIG`) — or, with [`ServerOptions::shared`], all
//!   connections feed and query **one** pipeline, queries are served
//!   wait-free from published graph snapshots, and `SUBSCRIBE` is real
//!   server push (`U` frames arrive without the subscriber writing).
//! * [`JoinClient`] — a synchronous client: one request, one response
//!   (plus passive listening for pushed updates).
//! * [`protocol`] — the wire format, pure and property-tested.
//! * [`session`] — the socket-free state machine behind each connection.
//!
//! # Quickstart
//!
//! ```
//! use sssj_net::{ConfigRequest, JoinClient, Server, ServerOptions};
//!
//! let server = Server::bind("127.0.0.1:0", ServerOptions::default())?;
//! let mut client = JoinClient::connect(server.local_addr())?;
//! client.configure(ConfigRequest {
//!     theta: Some(0.7),
//!     lambda: Some(0.1),
//!     ..Default::default()
//! })?;
//! assert!(client.send_vector(0.0, &[(7, 1.0)])?.is_empty());
//! let pairs = client.send_vector(1.0, &[(7, 1.0)])?; // near-duplicate
//! assert_eq!(pairs.len(), 1);
//! client.quit()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Scraping metrics
//!
//! Every server answers the `METRICS` verb with the process-global
//! telemetry registry in Prometheus text-exposition format — per-verb
//! request counts and latency summaries, connection gauge, ingest and
//! store counters, the event-loop stall probe. One verb, zero server
//! configuration; `sssj metrics <addr>` wraps exactly this exchange
//! (add `--watch SECS` for periodic scrapes with per-counter rates):
//!
//! ```
//! use sssj_net::{JoinClient, Server, ServerOptions};
//!
//! let server = Server::bind("127.0.0.1:0", ServerOptions::default())?;
//! let mut client = JoinClient::connect(server.local_addr())?;
//! client.send_vector(0.0, &[(7, 1.0)])?;
//!
//! let lines = client.metrics()?; // `# HELP`/`# TYPE` + samples
//! if sssj_metrics::telemetry_enabled() {
//!     assert!(lines.iter().any(|l| l.starts_with("sssj_core_records_total")));
//! } else {
//!     assert!(lines.is_empty()); // SSSJ_TELEMETRY=off scrapes empty
//! }
//! client.quit()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
mod event_loop;
mod poll;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{JoinClient, NetError};
pub use protocol::{
    ConfigRequest, EngineLabel, GraphQuery, Request, Response, SessionMode, SessionStats,
};
pub use server::{Server, ServerOptions};
pub use session::{Session, SessionDefaults};

/// Registers the downstream engines (LSH, sharded), the durable store,
/// the live graph and the historical tier with the [`sssj_core::spec`]
/// factory, so client-negotiated specs reach every variant — including
/// `…&durable=<dir>` pipelines, which create or resume persistent
/// state, `…&graph` pipelines, whose sessions serve the
/// `QUERY`/`SUBSCRIBE` verbs, and `…&history=<dir>` pipelines, whose
/// sessions additionally serve `QUERY … at=<t>` time travel. Idempotent;
/// [`Session::new`] calls it, so any server built on this crate serves
/// the full family automatically.
pub fn register_spec_builders() {
    sssj_lsh::register_spec_builder();
    sssj_parallel::register_spec_builder();
    sssj_segments::register_spec_builder();
}
