//! The wire protocol: line-delimited, human-readable text.
//!
//! One request or response per `\n`-terminated line. Requests flow client
//! to server, responses server to client. Every request is answered; a
//! `V`/`T` request is answered by zero or more `P` lines followed by one
//! `OK <count>` line, so the client always knows when the response is
//! complete. The session state machine lives in
//! [`crate::session::Session`]; this module is pure parsing/formatting
//! and is round-trip property-tested.
//!
//! ```text
//! client → server                         server → client
//! ------------------------------------    -----------------------------
//! CONFIG spec=str-l2?theta=0.7&reorder=5  OK 0            (or E <msg>)
//! CONFIG theta=0.7 lambda=0.1 index=l2    OK 0
//! CONFIGJ {"engine":"str","theta":0.7}    OK 0
//! V 12.5 3:0.6 9:0.8                      P 0 4 0.8231…   zero or more
//! T 13.0 some raw text                    OK 2            always last
//! STATS                                   [G loop_stalls=0] S records=5 pairs=2 …
//! METRICS                                 M <text line> … / OK <count>
//! TRACE 256                               R <event line> … / OK <count>
//! FINISH                                  P … / OK <count>
//! QUERY neighbors 4                       P 4 0 0.82… / OK <count>
//! QUERY topk 4 3                          P 4 9 0.93… / OK <count>
//! QUERY component 4                       G root=0 size=17
//! QUERY stats                             G nodes=40 edges=95 components=3
//! SUBSCRIBE 4                             OK 0
//! QUIT                                    BYE
//! ```
//!
//! # Scraping telemetry: `METRICS`
//!
//! `METRICS` exports the process-global registry
//! ([`sssj_metrics::Registry`]) in Prometheus text exposition format,
//! one `M`-prefixed line per exposition line:
//!
//! ```text
//! metrics-reply := ( "M" text-line )* "OK" <line-count>
//! text-line     := "# HELP" … | "# TYPE" … | sample-line
//! sample-line   := name [ "{" label ( "," label )* "}" ] " " value
//! ```
//!
//! Strip the leading `M ` from every line and the remainder is a valid
//! Prometheus scrape body (recorders surface as true histograms:
//! cumulative `_bucket{le=…}` series over the populated buckets plus
//! `le="+Inf"`, then `_sum`/`_count` samples). Like `STATS`, the
//! reply is clocked at the session's watermark: counters include every
//! record the server accepted before the `METRICS` line was read, so on
//! a quiesced stream `sssj_core_records_total` equals the number of
//! records fed and `sssj_core_pairs_total` the number of `P` lines
//! emitted — the invariant the CI serve-smoke asserts. The reply is
//! empty (`OK 0`) when the server runs with `SSSJ_TELEMETRY=off`.
//!
//! Relatedly, an event-loop server prefixes every `STATS` reply with one
//! `G loop_stalls=<n>` line — its stall probe's reading (loop iterations
//! whose work overran the poll interval). The probe line is emitted
//! regardless of the telemetry switch; threaded servers, having no loop,
//! send the bare `S` line.
//!
//! # Dumping the flight recorder: `TRACE`
//!
//! `TRACE [n]` dumps the newest `n` (default 256) events from the
//! process-wide flight recorder ([`sssj_metrics::trace`]), one
//! `R`-prefixed line per event, oldest first:
//!
//! ```text
//! trace-request := "TRACE" [ max-events ]
//! trace-reply   := "R" header ( "R" event )* "OK" <R-line-count>
//! header        := "# now=" ns " watermark=" t " dropped=" count
//! event         := ts_ns dur_ns stage kind tid depth trace_id a b
//! stage         := "ingest" | "candidates" | "router.flush"
//!                | "shard.record" | "wal.append" | "wal.fsync"
//!                | "checkpoint" | "graph.publish" | "segment.compaction"
//!                | "net.request" | "loop.stall" | "slow.request"
//!                | "wal.torn_tail"
//! kind          := "X" (complete span, dur_ns > 0 possible)
//!                | "i" (instant, dur_ns = 0)
//! ```
//!
//! The header's `now=` is the server's trace clock (nanoseconds since
//! its first probe — the same clock as every event's `ts_ns`, so a
//! client can compute event age), `watermark=` is the session's stream
//! watermark (the reply is clocked like `STATS`: events from every
//! record accepted before the `TRACE` line was read are visible), and
//! `dropped=` counts events lost to ring wrap process-wide. `OK` counts
//! every `R` line including the header. Events carry a `trace_id`
//! correlating one request's journey across stages and threads; 0 means
//! unattributed. With `SSSJ_TRACE=off` the reply is the bare header
//! (`OK 1`) with `dropped=0`. `sssj trace <addr>` converts a dump to
//! Chrome trace-event JSON loadable in Perfetto/`chrome://tracing`.
//!
//! # Negotiating the join: the spec grammar
//!
//! A session runs one join pipeline, described by a
//! [`sssj_core::JoinSpec`]. `CONFIG` accepts the spec's compact text
//! form under the `spec=` key. The grammar (engines, indexes, engine
//! keys and the `reorder=`/`checked`/`durable=`/`graph`/`history=`
//! wrappers) is documented once, in [`sssj_core::spec`]. So *every*
//! join variant the workspace implements, not just the classic
//! framework × index grid, is reachable over the wire, e.g.
//! `CONFIG spec=topk-l2?theta=0.5&lambda=0.01&k=3`,
//! `CONFIG spec=lsh?theta=0.7&lambda=0.01&verify=est` or a sharded
//! pipeline with its inner engine spelled out,
//! `CONFIG spec=sharded?theta=0.7&lambda=0.01&shards=4&inner=mb-l2ap`
//! (the inner spec round-trips through negotiation like any other
//! parameter). The compact form
//! is whitespace-free, so it embeds in the line protocol's `key=value`
//! framing unchanged. The scalar keys (`theta=`, `lambda=`, `index=`,
//! `framework=`, `slack=`) are retained for simple clients and apply
//! *on top of* the spec (they override its corresponding fields), in
//! the order: spec first, then scalars.
//!
//! `CONFIGJ` carries the same spec as a single JSON object
//! ([`sssj_core::JoinSpec::to_json`] /
//! [`sssj_core::JoinSpec::from_json`]) for programmatic clients, e.g.
//! `CONFIGJ {"engine":"topk","index":"l2","theta":0.5,"lambda":0.01,"k":3}`.
//!
//! # Querying the live graph: `QUERY` and `SUBSCRIBE`
//!
//! A session configured with a `graph`-wrapped spec (e.g.
//! `CONFIG spec=str-l2?theta=0.7&tau=10&graph`) maintains a live
//! similarity graph over its pair stream (`sssj-graph`) and serves it
//! over four query verbs, evaluated at the session's stream watermark
//! (the newest accepted timestamp — the data's clock, not the wall
//! clock):
//!
//! ```text
//! QUERY neighbors <node>      every live neighbour of <node>, one
//!                             `P <node> <nbr> <sim>` line each
//!                             (neighbour-id order), then `OK <count>`
//! QUERY topk <node> <k>       the k best neighbours, best first
//!                             (similarity desc, id asc ties), same framing
//! QUERY component <node>      `G root=<min-member-id> size=<n>`;
//!                             `G root=<node> size=0` for an edgeless node
//! QUERY stats                 `G nodes=<n> edges=<e> components=<c>`;
//!                             on a history session three extra fields
//!                             follow: `history_segments=<n>
//!                             history_oldest_ms=<ms> watermark_ms=<ms>`
//!                             (times in integer milliseconds)
//! SUBSCRIBE <node>            `OK 0`; from then on, every delivered pair
//!                             touching <node> additionally produces a
//!                             pushed `U <node> <left> <right> <sim>` line
//! ```
//!
//! `U` lines are *push* traffic in the netidx sense — the server
//! volunteers them as edges are emitted; they are not counted by any
//! `OK <count>` (which keeps counting `P` lines only), so
//! pre-subscription clients remain wire-compatible. On a session whose
//! spec has no `graph` wrapper, every `QUERY`/`SUBSCRIBE` answers
//! `E session has no graph …`.
//!
//! ## Push framing: where `U` (and `D`) lines may appear
//!
//! On a *per-session* server (every connection owns its own pipeline)
//! the only ingest is the subscriber's own, so updates ride the
//! subscriber's response stream: `U` lines appear between the `P` lines
//! and the `OK` of the `V`/`T`/`FINISH` request that surfaced them.
//!
//! On a *shared* event-loop server (`--shared`: all connections feed
//! and query one pipeline) `SUBSCRIBE` is real server push — updates
//! triggered by **other** clients' ingest arrive out of band, without
//! the subscriber writing anything. Framing rule:
//!
//! ```text
//! response-stream := ( reply | push )*
//! reply           := P* ( "OK" n | "E" msg ) | "G" fields | "S" fields | "BYE"
//! push            := [ "D" n ] "U" node left right sim
//! ```
//!
//! pushed frames are inserted only at *reply boundaries* — never between
//! a reply's `P` lines and its terminating `OK` — so a synchronous
//! client can keep reading `P*`-then-`OK` and set pushed lines aside.
//! Each subscriber has a **bounded** per-connection push queue
//! (drop-oldest): when a slow reader overflows it, the discarded
//! updates are coalesced into one `D <count>` line preceding the
//! surviving `U` lines. Updates are deduplicated per delivered edge,
//! not per subscription: an edge touching two of one connection's
//! subscribed nodes yields two `U` lines (one per node), exactly like
//! the per-session framing.
//!
//! ## Time travel: the `at=` suffix
//!
//! `neighbors`, `topk` and `component` accept one optional trailing
//! `at=<t>` token — evaluate the query *as of* stream time `t` (edges
//! delivered in `[t − τ, t]`) instead of the live watermark:
//!
//! ```text
//! at-query := "QUERY" kind args "at=" t
//! kind     := "neighbors" | "topk" | "component"
//! t        := finite decimal stream time (the data's clock)
//! ```
//!
//! On a `history=`-wrapped session (`sssj-segments`) the answer
//! overlays the live window with the compacted segment tier, so any
//! `t` back to the history floor (`QUERY stats` reports it) answers
//! exactly; on a graph-only session `at=` answers `E …` — the expired
//! edges are gone. `QUERY stats` takes no `at=`.
//!
//! # Durable sessions: resuming from a manifest
//!
//! A `durable=<dir>` parameter (the `sssj-store` wrapper) makes the
//! session's state survive crashes:
//! `CONFIG spec=str-l2?theta=0.7&tau=10&durable=/var/sssj` *creates*
//! the store on first use and **resumes** it whenever `<dir>` already
//! holds a manifest — the server reloads the last checkpoint, replays
//! the WAL tail, and the session continues the recovered stream: record
//! ids restart *after* the ingested prefix (so `P` lines keep referring
//! to pre-crash records), the monotonic-timestamp watermark picks up at
//! the recovered stamp, and any pairs whose pre-crash delivery cannot
//! be proven are re-emitted with the first record's response
//! (at-least-once; pairs delivered before the last checkpoint are never
//! repeated). A producer that replays its own stream should skip the
//! first `ingested` records — the count a resumed session starts ids
//! at.

use std::fmt;

use sssj_core::{Framework, JoinSpec};
use sssj_index::IndexKind;
use sssj_types::SimilarPair;

/// Maximum accepted line length (64 KiB) — guards the server against a
/// client streaming an unbounded line.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Events a bare `TRACE` (no count) returns.
pub const DEFAULT_TRACE_EVENTS: u64 = 256;

/// How a session interprets payload lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionMode {
    /// `V <t> <dim>:<weight> …` — pre-vectorised input.
    Vector,
    /// `T <t> <raw text…>` — server-side tokenisation + TF weighting.
    Text,
}

impl SessionMode {
    fn parse(s: &str) -> Option<SessionMode> {
        match s {
            "vector" => Some(SessionMode::Vector),
            "text" => Some(SessionMode::Text),
            _ => None,
        }
    }
}

impl fmt::Display for SessionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SessionMode::Vector => "vector",
            SessionMode::Text => "text",
        })
    }
}

/// Session parameters carried by a `CONFIG`/`CONFIGJ` request. Fields
/// left `None` keep the server's defaults. When `spec` is present it is
/// applied first and the scalar fields override it.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ConfigRequest {
    /// A complete join pipeline description (compact form via
    /// `CONFIG spec=…`, JSON via `CONFIGJ`).
    pub spec: Option<JoinSpec>,
    /// Similarity threshold `θ`.
    pub theta: Option<f64>,
    /// Decay rate `λ`.
    pub lambda: Option<f64>,
    /// Index kind (`inv`, `l2ap`, `l2`, `ap`).
    pub index: Option<IndexKind>,
    /// Framework (`str`, `mb`).
    pub framework: Option<Framework>,
    /// Payload interpretation.
    pub mode: Option<SessionMode>,
    /// Out-of-order tolerance: records may arrive up to `slack` time
    /// units late and are re-sorted server-side (see
    /// [`sssj_core::ReorderBuffer`]). Zero (the default) requires sorted
    /// input.
    pub slack: Option<f64>,
}

/// A graph query (`QUERY …`), served by sessions whose spec carries the
/// `graph` wrapper. See the [module docs](self) for the grammar. A
/// trailing `at=<t>` on `neighbors`/`topk`/`component` evaluates the
/// query at historical time `t` instead of the live watermark — the
/// session needs a `history=`-wrapped spec (`sssj-segments`) for any
/// `t` whose edges have already expired.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphQuery {
    /// `QUERY neighbors <node> [at=<t>]` — every neighbour live at the
    /// watermark (or at `t`).
    Neighbors {
        /// The queried record id.
        node: u64,
        /// Historical evaluation time (`None` = the live watermark).
        at: Option<f64>,
    },
    /// `QUERY topk <node> <k> [at=<t>]` — the `k` best neighbours.
    TopK {
        /// The queried record id.
        node: u64,
        /// How many neighbours to return.
        k: u32,
        /// Historical evaluation time (`None` = the live watermark).
        at: Option<f64>,
    },
    /// `QUERY component <node> [at=<t>]` — the node's connected
    /// component.
    Component {
        /// The queried record id.
        node: u64,
        /// Historical evaluation time (`None` = the live watermark).
        at: Option<f64>,
    },
    /// `QUERY stats` — aggregate graph counters.
    Stats,
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Reconfigure the session (only before the first record).
    Config(ConfigRequest),
    /// A pre-vectorised record: timestamp + sparse entries.
    Vector {
        /// Arrival timestamp.
        t: f64,
        /// `(dimension, weight)` entries; weights need not be normalised.
        entries: Vec<(u32, f64)>,
    },
    /// A raw-text record, tokenised server-side (text mode only).
    Text {
        /// Arrival timestamp.
        t: f64,
        /// The raw text.
        text: String,
    },
    /// Ask for the session's work counters.
    Stats,
    /// Ask for the process-global metric registry (Prometheus text
    /// exposition, one `M` line per exposition line).
    Metrics,
    /// Ask for the newest flight-recorder events (`TRACE [n]`; one `R`
    /// line per event after the `R #`-prefixed header line).
    Trace {
        /// Maximum events to return (the server may cap it).
        max: u64,
    },
    /// A live-graph query (graph-wrapped sessions only).
    Query(GraphQuery),
    /// Subscribe to pushed `U` edge updates for one node
    /// (graph-wrapped sessions only).
    Subscribe {
        /// The record id to watch.
        node: u64,
    },
    /// End-of-stream: flush buffered pairs (MiniBatch reports late).
    Finish,
    /// Close the session.
    Quit,
}

/// Parse errors carry the reason; the server reports them as `E` lines
/// and keeps the session alive.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

fn parse_timestamp(s: Option<&str>) -> Result<f64, ProtocolError> {
    let s = s.ok_or_else(|| err("missing timestamp"))?;
    let t: f64 = s
        .parse()
        .map_err(|e| err(format!("bad timestamp {s:?}: {e}")))?;
    if !t.is_finite() {
        return Err(err(format!("non-finite timestamp {s:?}")));
    }
    Ok(t)
}

impl Request {
    /// Parses one request line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim_start()),
            None => (line, ""),
        };
        match verb {
            "CONFIG" => {
                let mut c = ConfigRequest::default();
                for kv in rest.split_ascii_whitespace() {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| err(format!("CONFIG expects key=value, got {kv:?}")))?;
                    match k {
                        "spec" => {
                            c.spec = Some(
                                v.parse::<JoinSpec>()
                                    .map_err(|e| err(format!("bad spec {v:?}: {e}")))?,
                            );
                        }
                        "theta" => {
                            let x: f64 = v
                                .parse()
                                .map_err(|e| err(format!("bad theta {v:?}: {e}")))?;
                            if !(x > 0.0 && x <= 1.0) {
                                return Err(err(format!("theta out of (0, 1]: {v}")));
                            }
                            c.theta = Some(x);
                        }
                        "lambda" => {
                            let x: f64 = v
                                .parse()
                                .map_err(|e| err(format!("bad lambda {v:?}: {e}")))?;
                            if !(x.is_finite() && x >= 0.0) {
                                return Err(err(format!("lambda must be ≥ 0: {v}")));
                            }
                            c.lambda = Some(x);
                        }
                        "index" => {
                            c.index = Some(
                                IndexKind::parse(v)
                                    .ok_or_else(|| err(format!("unknown index {v:?}")))?,
                            );
                        }
                        "framework" => {
                            c.framework = Some(
                                Framework::parse(v)
                                    .ok_or_else(|| err(format!("unknown framework {v:?}")))?,
                            );
                        }
                        "mode" => {
                            c.mode = Some(
                                SessionMode::parse(v)
                                    .ok_or_else(|| err(format!("unknown mode {v:?}")))?,
                            );
                        }
                        "slack" => {
                            let x: f64 = v
                                .parse()
                                .map_err(|e| err(format!("bad slack {v:?}: {e}")))?;
                            if !(x.is_finite() && x >= 0.0) {
                                return Err(err(format!("slack must be ≥ 0: {v}")));
                            }
                            c.slack = Some(x);
                        }
                        other => return Err(err(format!("unknown CONFIG key {other:?}"))),
                    }
                }
                Ok(Request::Config(c))
            }
            "CONFIGJ" => {
                let spec = JoinSpec::from_json(rest).map_err(|e| err(format!("CONFIGJ: {e}")))?;
                Ok(Request::Config(ConfigRequest {
                    spec: Some(spec),
                    ..Default::default()
                }))
            }
            "V" => {
                let mut parts = rest.split_ascii_whitespace();
                let t = parse_timestamp(parts.next())?;
                let mut entries = Vec::new();
                for tok in parts {
                    let (d, w) = tok
                        .split_once(':')
                        .ok_or_else(|| err(format!("expected dim:weight, got {tok:?}")))?;
                    let dim: u32 = d
                        .parse()
                        .map_err(|e| err(format!("bad dimension {d:?}: {e}")))?;
                    let weight: f64 = w
                        .parse()
                        .map_err(|e| err(format!("bad weight {w:?}: {e}")))?;
                    if !weight.is_finite() || weight <= 0.0 {
                        return Err(err(format!("weight must be positive: {w}")));
                    }
                    entries.push((dim, weight));
                }
                if entries.is_empty() {
                    return Err(err("vector has no entries"));
                }
                Ok(Request::Vector { t, entries })
            }
            "T" => {
                let (t_str, text) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
                let t = parse_timestamp(if t_str.is_empty() { None } else { Some(t_str) })?;
                Ok(Request::Text {
                    t,
                    text: text.to_string(),
                })
            }
            "STATS" => Ok(Request::Stats),
            "METRICS" => Ok(Request::Metrics),
            "TRACE" => {
                let mut parts = rest.split_ascii_whitespace();
                let max = match parts.next() {
                    None => DEFAULT_TRACE_EVENTS,
                    Some(s) => {
                        let n: u64 = s
                            .parse()
                            .map_err(|e| err(format!("TRACE: bad count {s:?}: {e}")))?;
                        if n == 0 {
                            return Err(err("TRACE: count must be >= 1"));
                        }
                        n
                    }
                };
                if parts.next().is_some() {
                    return Err(err("TRACE: trailing arguments"));
                }
                Ok(Request::Trace { max })
            }
            "QUERY" => {
                let mut parts = rest.split_ascii_whitespace();
                let kind = parts
                    .next()
                    .ok_or_else(|| err("QUERY expects neighbors|topk|component|stats"))?;
                let mut node = |what: &str| -> Result<u64, ProtocolError> {
                    let s = parts
                        .next()
                        .ok_or_else(|| err(format!("QUERY {what}: missing node id")))?;
                    s.parse()
                        .map_err(|e| err(format!("QUERY {what}: bad node id {s:?}: {e}")))
                };
                let mut query = match kind {
                    "neighbors" => GraphQuery::Neighbors {
                        node: node("neighbors")?,
                        at: None,
                    },
                    "topk" => {
                        let n = node("topk")?;
                        let k_str = parts.next().ok_or_else(|| err("QUERY topk: missing k"))?;
                        let k: u32 = k_str
                            .parse()
                            .map_err(|e| err(format!("QUERY topk: bad k {k_str:?}: {e}")))?;
                        if k == 0 {
                            return Err(err("QUERY topk: k must be >= 1"));
                        }
                        GraphQuery::TopK {
                            node: n,
                            k,
                            at: None,
                        }
                    }
                    "component" => GraphQuery::Component {
                        node: node("component")?,
                        at: None,
                    },
                    "stats" => GraphQuery::Stats,
                    other => {
                        return Err(err(format!(
                            "unknown QUERY kind {other:?} (neighbors|topk|component|stats)"
                        )))
                    }
                };
                // Optional trailing `at=<t>`: evaluate at historical
                // time t instead of the live watermark.
                if let Some(tok) = parts.next() {
                    let at_slot = match &mut query {
                        GraphQuery::Neighbors { at, .. }
                        | GraphQuery::TopK { at, .. }
                        | GraphQuery::Component { at, .. } => Some(at),
                        GraphQuery::Stats => None,
                    };
                    match (at_slot, tok.strip_prefix("at=")) {
                        (Some(at), Some(t_str)) => {
                            let t: f64 = t_str
                                .parse()
                                .map_err(|e| err(format!("QUERY: bad at={t_str:?}: {e}")))?;
                            if !t.is_finite() {
                                return Err(err("QUERY: at= must be finite"));
                            }
                            *at = Some(t);
                        }
                        (None, Some(_)) => {
                            return Err(err("QUERY stats takes no at= (history is in its output)"))
                        }
                        (_, None) => {
                            return Err(err(format!("QUERY: unexpected argument {tok:?}")))
                        }
                    }
                }
                if parts.next().is_some() {
                    return Err(err("QUERY: trailing arguments"));
                }
                Ok(Request::Query(query))
            }
            "SUBSCRIBE" => {
                let mut parts = rest.split_ascii_whitespace();
                let s = parts
                    .next()
                    .ok_or_else(|| err("SUBSCRIBE: missing node id"))?;
                let node: u64 = s
                    .parse()
                    .map_err(|e| err(format!("SUBSCRIBE: bad node id {s:?}: {e}")))?;
                if parts.next().is_some() {
                    return Err(err("SUBSCRIBE: trailing arguments"));
                }
                Ok(Request::Subscribe { node })
            }
            "FINISH" => Ok(Request::Finish),
            "QUIT" => Ok(Request::Quit),
            "" => Err(err("empty request")),
            other => Err(err(format!("unknown verb {other:?}"))),
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Config(c) => {
                write!(f, "CONFIG")?;
                if let Some(x) = &c.spec {
                    write!(f, " spec={x}")?;
                }
                if let Some(x) = c.theta {
                    write!(f, " theta={x}")?;
                }
                if let Some(x) = c.lambda {
                    write!(f, " lambda={x}")?;
                }
                if let Some(x) = c.index {
                    write!(f, " index={}", x.to_string().to_ascii_lowercase())?;
                }
                if let Some(x) = c.framework {
                    write!(f, " framework={}", x.to_string().to_ascii_lowercase())?;
                }
                if let Some(x) = c.mode {
                    write!(f, " mode={x}")?;
                }
                if let Some(x) = c.slack {
                    write!(f, " slack={x}")?;
                }
                Ok(())
            }
            Request::Vector { t, entries } => {
                write!(f, "V {t}")?;
                for (d, w) in entries {
                    write!(f, " {d}:{w}")?;
                }
                Ok(())
            }
            Request::Text { t, text } => write!(f, "T {t} {text}"),
            Request::Stats => f.write_str("STATS"),
            Request::Metrics => f.write_str("METRICS"),
            Request::Trace { max } => write!(f, "TRACE {max}"),
            Request::Query(q) => {
                let at = match q {
                    GraphQuery::Neighbors { node, at } => {
                        write!(f, "QUERY neighbors {node}")?;
                        at
                    }
                    GraphQuery::TopK { node, k, at } => {
                        write!(f, "QUERY topk {node} {k}")?;
                        at
                    }
                    GraphQuery::Component { node, at } => {
                        write!(f, "QUERY component {node}")?;
                        at
                    }
                    GraphQuery::Stats => {
                        f.write_str("QUERY stats")?;
                        &None
                    }
                };
                if let Some(t) = at {
                    write!(f, " at={t}")?;
                }
                Ok(())
            }
            Request::Subscribe { node } => write!(f, "SUBSCRIBE {node}"),
            Request::Finish => f.write_str("FINISH"),
            Request::Quit => f.write_str("QUIT"),
        }
    }
}

/// Which serving engine answered a `STATS` request (the `engine=` key
/// of the `S` line).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineLabel {
    /// The server did not say (pre-PR9 server, or a synthesized value).
    #[default]
    Unknown,
    /// Thread-per-connection serving.
    Threaded,
    /// The single-thread multiplexed event loop.
    EventLoop,
}

impl EngineLabel {
    fn parse(s: &str) -> Option<EngineLabel> {
        match s {
            "threaded" => Some(EngineLabel::Threaded),
            "eventloop" => Some(EngineLabel::EventLoop),
            "unknown" => Some(EngineLabel::Unknown),
            _ => None,
        }
    }
}

impl fmt::Display for EngineLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineLabel::Unknown => "unknown",
            EngineLabel::Threaded => "threaded",
            EngineLabel::EventLoop => "eventloop",
        })
    }
}

/// Session work counters reported by `STATS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Records accepted so far.
    pub records: u64,
    /// Pairs reported so far.
    pub pairs: u64,
    /// Posting entries traversed during candidate generation.
    pub entries_traversed: u64,
    /// Candidates generated.
    pub candidates: u64,
    /// Full similarities computed.
    pub full_sims: u64,
    /// Live posting entries (memory proxy).
    pub live_postings: u64,
    /// Which serving engine answered (`engine=threaded|eventloop`).
    pub engine: EngineLabel,
    /// Whether the session feeds a shared pipeline (`shared=0|1`).
    pub shared: bool,
    /// Graph snapshot generation at answer time (`generation=`; 0 when
    /// the session has no graph or nothing was published yet).
    pub generation: u64,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// One similar pair (`P <left> <right> <similarity>`).
    Pair(SimilarPair),
    /// Request completed; for `V`/`T`/`FINISH` carries the number of `P`
    /// lines that preceded it.
    Ok(u64),
    /// Request failed; the session stays open.
    Err(String),
    /// Stats snapshot.
    Stats(SessionStats),
    /// A pushed edge update for a subscribed node
    /// (`U <node> <left> <right> <sim>`). Not counted by `OK <count>`.
    Update {
        /// The subscribed node this update is for.
        node: u64,
        /// The delivered pair forming the new edge.
        pair: SimilarPair,
    },
    /// `D <n>`: the server's bounded push queue overflowed and `n`
    /// subscription updates were discarded (oldest first) before the
    /// `U` lines that follow. Push traffic like `U` — never counted by
    /// `OK <count>`; a slow subscriber sees one coalesced `D` per drain,
    /// not one line per drop.
    Dropped(u64),
    /// One Prometheus text-exposition line of a `METRICS` reply
    /// (`M <line>`), emitted zero or more times before the `OK <count>`.
    Metric(String),
    /// One flight-recorder line of a `TRACE` reply (`R <payload>`): the
    /// `# now=… watermark=… dropped=…` header first, then one wire-form
    /// event per line ([`sssj_metrics::trace::TraceEvent::to_wire`]).
    TraceLine(String),
    /// A graph scalar answer (`G key=value …`, e.g. `component` /
    /// `stats` replies), insertion-ordered.
    Graph(Vec<(String, u64)>),
    /// Session closed by the server (answer to `QUIT`).
    Bye,
}

impl Response {
    /// Parses one response line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Response, ProtocolError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim_start()),
            None => (line, ""),
        };
        match verb {
            "P" => {
                let mut p = rest.split_ascii_whitespace();
                let left: u64 = p
                    .next()
                    .ok_or_else(|| err("P: missing left id"))?
                    .parse()
                    .map_err(|e| err(format!("P: bad left id: {e}")))?;
                let right: u64 = p
                    .next()
                    .ok_or_else(|| err("P: missing right id"))?
                    .parse()
                    .map_err(|e| err(format!("P: bad right id: {e}")))?;
                let similarity: f64 = p
                    .next()
                    .ok_or_else(|| err("P: missing similarity"))?
                    .parse()
                    .map_err(|e| err(format!("P: bad similarity: {e}")))?;
                Ok(Response::Pair(SimilarPair::new(left, right, similarity)))
            }
            "OK" => {
                let n: u64 = rest
                    .parse()
                    .map_err(|e| err(format!("OK: bad count {rest:?}: {e}")))?;
                Ok(Response::Ok(n))
            }
            "E" => Ok(Response::Err(rest.to_string())),
            "S" => {
                fn num(kv: &str, v: &str) -> Result<u64, ProtocolError> {
                    v.parse()
                        .map_err(|e| err(format!("S: bad value in {kv:?}: {e}")))
                }
                let mut s = SessionStats::default();
                for kv in rest.split_ascii_whitespace() {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| err(format!("S: expected key=value, got {kv:?}")))?;
                    match k {
                        "records" => s.records = num(kv, v)?,
                        "pairs" => s.pairs = num(kv, v)?,
                        "entries" => s.entries_traversed = num(kv, v)?,
                        "candidates" => s.candidates = num(kv, v)?,
                        "full_sims" => s.full_sims = num(kv, v)?,
                        "live_postings" => s.live_postings = num(kv, v)?,
                        "engine" => {
                            s.engine = EngineLabel::parse(v)
                                .ok_or_else(|| err(format!("S: unknown engine {v:?}")))?
                        }
                        "shared" => s.shared = num(kv, v)? != 0,
                        "generation" => s.generation = num(kv, v)?,
                        // Forward compatibility: ignore unknown counters.
                        _ => {}
                    }
                }
                Ok(Response::Stats(s))
            }
            "M" => Ok(Response::Metric(rest.to_string())),
            "R" => Ok(Response::TraceLine(rest.to_string())),
            "U" => {
                let mut p = rest.split_ascii_whitespace();
                let mut num = |what: &str| -> Result<u64, ProtocolError> {
                    p.next()
                        .ok_or_else(|| err(format!("U: missing {what}")))?
                        .parse()
                        .map_err(|e| err(format!("U: bad {what}: {e}")))
                };
                let node = num("node")?;
                let left = num("left id")?;
                let right = num("right id")?;
                let similarity: f64 = p
                    .next()
                    .ok_or_else(|| err("U: missing similarity"))?
                    .parse()
                    .map_err(|e| err(format!("U: bad similarity: {e}")))?;
                Ok(Response::Update {
                    node,
                    pair: SimilarPair::new(left, right, similarity),
                })
            }
            "D" => {
                let n: u64 = rest
                    .parse()
                    .map_err(|e| err(format!("D: bad count {rest:?}: {e}")))?;
                Ok(Response::Dropped(n))
            }
            "G" => {
                let mut fields = Vec::new();
                for kv in rest.split_ascii_whitespace() {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| err(format!("G: expected key=value, got {kv:?}")))?;
                    let v: u64 = v
                        .parse()
                        .map_err(|e| err(format!("G: bad value in {kv:?}: {e}")))?;
                    fields.push((k.to_string(), v));
                }
                if fields.is_empty() {
                    return Err(err("G: no fields"));
                }
                Ok(Response::Graph(fields))
            }
            "BYE" => Ok(Response::Bye),
            other => Err(err(format!("unknown response verb {other:?}"))),
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Pair(p) => write!(f, "P {} {} {}", p.left, p.right, p.similarity),
            Response::Ok(n) => write!(f, "OK {n}"),
            Response::Err(msg) => write!(f, "E {}", msg.replace('\n', " ")),
            Response::Stats(s) => write!(
                f,
                "S records={} pairs={} entries={} candidates={} full_sims={} live_postings={} \
                 engine={} shared={} generation={}",
                s.records,
                s.pairs,
                s.entries_traversed,
                s.candidates,
                s.full_sims,
                s.live_postings,
                s.engine,
                s.shared as u8,
                s.generation
            ),
            Response::Metric(line) => write!(f, "M {}", line.replace('\n', " ")),
            Response::TraceLine(line) => write!(f, "R {}", line.replace('\n', " ")),
            Response::Update { node, pair } => write!(
                f,
                "U {node} {} {} {}",
                pair.left, pair.right, pair.similarity
            ),
            Response::Dropped(n) => write!(f, "D {n}"),
            Response::Graph(fields) => {
                f.write_str("G")?;
                for (k, v) in fields {
                    write!(f, " {k}={v}")?;
                }
                Ok(())
            }
            Response::Bye => f.write_str("BYE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_vector_request() {
        let r = Request::parse("V 12.5 3:0.6 9:0.8").unwrap();
        assert_eq!(
            r,
            Request::Vector {
                t: 12.5,
                entries: vec![(3, 0.6), (9, 0.8)],
            }
        );
    }

    #[test]
    fn parse_config_request() {
        let r = Request::parse("CONFIG theta=0.7 lambda=0.01 index=l2 framework=str").unwrap();
        match r {
            Request::Config(c) => {
                assert_eq!(c.theta, Some(0.7));
                assert_eq!(c.lambda, Some(0.01));
                assert_eq!(c.index, Some(IndexKind::L2));
                assert_eq!(c.framework, Some(Framework::Streaming));
                assert_eq!(c.mode, None);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parse_config_spec_request() {
        let r = Request::parse("CONFIG spec=topk-l2?theta=0.5&lambda=0.01&k=3 mode=text").unwrap();
        match r {
            Request::Config(c) => {
                let spec = c.spec.expect("spec parsed");
                assert_eq!(spec.to_string(), "topk-l2?theta=0.5&lambda=0.01&k=3");
                assert_eq!(c.mode, Some(SessionMode::Text));
            }
            other => panic!("wrong request: {other:?}"),
        }
        // Display → parse round-trips the spec-carrying config.
        let req = Request::Config(ConfigRequest {
            spec: Some("str-l2?theta=0.8&lambda=0.1&reorder=2".parse().unwrap()),
            ..Default::default()
        });
        assert_eq!(Request::parse(&req.to_string()).unwrap(), req);
    }

    #[test]
    fn configj_parses_json_spec() {
        let r = Request::parse(
            "CONFIGJ {\"engine\":\"lsh\",\"theta\":0.7,\"lambda\":0.01,\
             \"bits\":128,\"bands\":16,\"verify\":\"est\"}",
        )
        .unwrap();
        match r {
            Request::Config(c) => {
                let spec = c.spec.expect("spec parsed");
                assert_eq!(
                    spec.to_string(),
                    "lsh?theta=0.7&lambda=0.01&bits=128&bands=16&verify=est"
                );
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parse_text_request_keeps_whole_text() {
        let r = Request::parse("T 3.0 the quick  brown fox").unwrap();
        assert_eq!(
            r,
            Request::Text {
                t: 3.0,
                text: "the quick  brown fox".into(),
            }
        );
    }

    #[test]
    fn bare_verbs() {
        assert_eq!(Request::parse("STATS").unwrap(), Request::Stats);
        assert_eq!(Request::parse("METRICS").unwrap(), Request::Metrics);
        assert_eq!(Request::parse("FINISH\r\n").unwrap(), Request::Finish);
        assert_eq!(Request::parse("QUIT").unwrap(), Request::Quit);
    }

    #[test]
    fn trace_request_roundtrips() {
        assert_eq!(
            Request::parse("TRACE").unwrap(),
            Request::Trace {
                max: DEFAULT_TRACE_EVENTS
            }
        );
        let req = Request::Trace { max: 1024 };
        assert_eq!(Request::parse("TRACE 1024").unwrap(), req);
        assert_eq!(Request::parse(&req.to_string()).unwrap(), req);
        for bad in ["TRACE 0", "TRACE x", "TRACE -1", "TRACE 5 6"] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn trace_lines_roundtrip() {
        for line in [
            "# now=123456 watermark=12.5 dropped=0",
            "1500 2000 net.request X 3 0 9 1 2",
            "4000 0 loop.stall i 3 0 0 0 0",
        ] {
            let resp = Response::parse(&format!("R {line}")).unwrap();
            assert_eq!(resp, Response::TraceLine(line.to_string()));
            assert_eq!(Response::parse(&resp.to_string()).unwrap(), resp);
        }
    }

    #[test]
    fn stats_serving_shape_fields_roundtrip() {
        let s = Response::parse(
            "S records=5 pairs=2 entries=9 candidates=4 full_sims=3 live_postings=8 \
             engine=eventloop shared=1 generation=7",
        )
        .unwrap();
        match s {
            Response::Stats(s) => {
                assert_eq!(s.engine, EngineLabel::EventLoop);
                assert!(s.shared);
                assert_eq!(s.generation, 7);
            }
            other => panic!("wrong response: {other:?}"),
        }
        // A pre-PR9 S line (no serving-shape keys) still parses.
        let s = Response::parse("S records=5 pairs=2").unwrap();
        match s {
            Response::Stats(s) => {
                assert_eq!(s.engine, EngineLabel::Unknown);
                assert!(!s.shared);
                assert_eq!(s.generation, 0);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn metric_lines_roundtrip() {
        for line in [
            "# HELP sssj_core_records_total records ingested",
            "# TYPE sssj_core_records_total counter",
            "sssj_core_records_total 6003",
            "sssj_net_requests_total{verb=\"query\"} 42",
        ] {
            let resp = Response::parse(&format!("M {line}")).unwrap();
            assert_eq!(resp, Response::Metric(line.to_string()));
            assert_eq!(Response::parse(&resp.to_string()).unwrap(), resp);
        }
    }

    #[test]
    fn query_and_subscribe_roundtrip() {
        for (line, req) in [
            (
                "QUERY neighbors 5",
                Request::Query(GraphQuery::Neighbors { node: 5, at: None }),
            ),
            (
                "QUERY topk 5 3",
                Request::Query(GraphQuery::TopK {
                    node: 5,
                    k: 3,
                    at: None,
                }),
            ),
            (
                "QUERY component 9",
                Request::Query(GraphQuery::Component { node: 9, at: None }),
            ),
            (
                "QUERY neighbors 5 at=12.5",
                Request::Query(GraphQuery::Neighbors {
                    node: 5,
                    at: Some(12.5),
                }),
            ),
            (
                "QUERY topk 5 3 at=0.25",
                Request::Query(GraphQuery::TopK {
                    node: 5,
                    k: 3,
                    at: Some(0.25),
                }),
            ),
            (
                "QUERY component 9 at=-4",
                Request::Query(GraphQuery::Component {
                    node: 9,
                    at: Some(-4.0),
                }),
            ),
            ("QUERY stats", Request::Query(GraphQuery::Stats)),
            ("SUBSCRIBE 7", Request::Subscribe { node: 7 }),
        ] {
            assert_eq!(Request::parse(line).unwrap(), req, "{line}");
            assert_eq!(Request::parse(&req.to_string()).unwrap(), req, "{line}");
        }
        // Malformed at= forms are rejected.
        for bad in [
            "QUERY stats at=3",
            "QUERY neighbors 5 at=nan",
            "QUERY neighbors 5 at=",
            "QUERY neighbors 5 когда=3",
            "QUERY topk 5 3 at=1 at=2",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn update_and_graph_responses_roundtrip() {
        for (line, resp) in [
            (
                "U 4 0 4 0.75",
                Response::Update {
                    node: 4,
                    pair: SimilarPair::new(0, 4, 0.75),
                },
            ),
            (
                "G root=0 size=17",
                Response::Graph(vec![("root".into(), 0), ("size".into(), 17)]),
            ),
            ("D 3", Response::Dropped(3)),
            ("D 0", Response::Dropped(0)),
            (
                "G nodes=40 edges=95 components=3",
                Response::Graph(vec![
                    ("nodes".into(), 40),
                    ("edges".into(), 95),
                    ("components".into(), 3),
                ]),
            ),
        ] {
            assert_eq!(Response::parse(line).unwrap(), resp, "{line}");
            assert_eq!(Response::parse(&resp.to_string()).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn rejects_malformed_graph_requests() {
        for bad in [
            "QUERY",
            "QUERY everything",
            "QUERY neighbors",
            "QUERY neighbors x",
            "QUERY topk 5",
            "QUERY topk 5 0",
            "QUERY topk 5 k",
            "QUERY component 5 6",
            "QUERY stats 5",
            "SUBSCRIBE",
            "SUBSCRIBE x",
            "SUBSCRIBE 1 2",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
        for bad in [
            "U 1 2 3",
            "U 1 2 3 x",
            "G",
            "G root",
            "G root=x",
            "D",
            "D x",
            "D -1",
        ] {
            assert!(Response::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "WHAT 1 2 3",
            "V",
            "V notanumber 1:0.5",
            "V inf 1:0.5",
            "V 1.0",
            "V 1.0 3",
            "V 1.0 x:0.5",
            "V 1.0 3:-0.5",
            "V 1.0 3:nan",
            "CONFIG theta",
            "CONFIG theta=2.0",
            "CONFIG lambda=-1",
            "CONFIG index=quantum",
            "CONFIG mode=binary",
            "CONFIG slack=-1",
            "CONFIG slack=inf",
            "CONFIG flux=9",
            "CONFIG spec=quantum",
            "CONFIG spec=topk-l2?k=0",
            "CONFIGJ",
            "CONFIGJ not json",
            "CONFIGJ {\"volume\":11}",
            "T",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_responses() {
        for bad in [
            "",
            "Z 1",
            "P 1",
            "P 1 2",
            "P 1 2 x",
            "OK",
            "OK x",
            "S a",
            "S engine=warp",
            "S shared=x",
        ] {
            assert!(Response::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn stats_roundtrip_ignores_unknown_keys() {
        let s = Response::parse("S records=5 pairs=2 entries=100 future_counter=9").unwrap();
        match s {
            Response::Stats(s) => {
                assert_eq!(s.records, 5);
                assert_eq!(s.pairs, 2);
                assert_eq!(s.entries_traversed, 100);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    proptest! {
        /// Display → parse is the identity for vector requests.
        #[test]
        fn vector_request_roundtrips(
            t in -1e6f64..1e6,
            entries in proptest::collection::vec((0u32..1_000_000, 1e-6f64..1e6), 1..20),
        ) {
            let req = Request::Vector { t, entries };
            let line = req.to_string();
            prop_assert_eq!(Request::parse(&line).unwrap(), req);
        }

        /// Display → parse is the identity for pair responses.
        #[test]
        fn pair_response_roundtrips(
            left in 0u64..1_000_000,
            right in 0u64..1_000_000,
            sim in 0.0f64..=1.0,
        ) {
            let resp = Response::Pair(SimilarPair::new(left, right, sim));
            let line = resp.to_string();
            prop_assert_eq!(Response::parse(&line).unwrap(), resp);
        }

        /// Stats responses round-trip, serving-shape fields included.
        #[test]
        fn stats_response_roundtrips(
            records in 0u64..u64::MAX,
            pairs in 0u64..u64::MAX,
            entries in 0u64..u64::MAX,
            engine in prop_oneof![
                Just(EngineLabel::Unknown),
                Just(EngineLabel::Threaded),
                Just(EngineLabel::EventLoop),
            ],
            shared in proptest::bool::ANY,
            generation in 0u64..u64::MAX,
        ) {
            let resp = Response::Stats(SessionStats {
                records,
                pairs,
                entries_traversed: entries,
                candidates: 1,
                full_sims: 2,
                live_postings: 3,
                engine,
                shared,
                generation,
            });
            let line = resp.to_string();
            prop_assert_eq!(Response::parse(&line).unwrap(), resp);
        }
    }
}
