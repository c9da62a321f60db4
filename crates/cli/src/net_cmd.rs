//! `sssj net-serve` / `sssj net-send` — the TCP join service.
//!
//! `net-serve` runs a [`sssj_net::Server`] until stdin closes (or the
//! process is killed); every TCP connection is an independent join
//! session. `net-send` streams a dataset file to such a server and prints
//! the pairs it gets back — a smoke client and a building block for
//! shell pipelines across machines.

use std::io::Read;

use sssj_core::{EngineSpec, Framework, JoinSpec, WrapperSpec};
use sssj_index::IndexKind;
use sssj_net::{ConfigRequest, JoinClient, Server, ServerOptions, SessionDefaults};

use crate::args::parse;
use crate::io::load;

/// `sssj net-serve --listen 127.0.0.1:7878 [--spec S] [--theta --lambda
/// --index --framework --mode --slack] [--shared]`
///
/// `--spec` sets the default join pipeline for every session (any
/// variant; see `sssj specs`); the scalar flags override its fields.
///
/// `--shared` serves ONE pipeline to every connection instead of a
/// session per connection: all clients feed/query the same join,
/// `CONFIG` is refused (the spec is fixed by these flags), and
/// `SUBSCRIBE` is real server push driven by other clients' ingest.
///
/// Serves until stdin reaches EOF, so `sssj net-serve < /dev/null` exits
/// immediately after binding (useful in scripts) while an interactive run
/// serves until Ctrl-D.
pub fn net_serve(args: &[String]) -> Result<(), String> {
    net_serve_impl(args, &mut std::io::stdin().lock())
}

fn net_serve_impl(args: &[String], wait_on: &mut impl Read) -> Result<(), String> {
    let p = parse(args, &["shared"])?;
    if !p.positional.is_empty() {
        return Err("net-serve takes no positional arguments".into());
    }
    p.only(&[
        "listen",
        "spec",
        "theta",
        "lambda",
        "index",
        "framework",
        "mode",
        "slack",
        "shared",
    ])?;
    let listen = p.get("listen").unwrap_or("127.0.0.1:7878").to_string();
    let mut defaults = SessionDefaults::default();
    let mut spec = match p.get("spec") {
        Some(s) => s.parse::<JoinSpec>().map_err(|e| format!("--spec: {e}"))?,
        None => defaults.spec,
    };
    spec.theta = p.get_parsed("theta", spec.theta)?;
    spec.lambda = p.get_parsed("lambda", spec.lambda)?;
    if let Some(s) = p.get("index") {
        spec.index = IndexKind::parse(s).ok_or_else(|| format!("unknown index {s:?}"))?;
    }
    if let Some(s) = p.get("framework") {
        spec.engine = match Framework::parse(s).ok_or_else(|| format!("unknown framework {s:?}"))? {
            Framework::Streaming => EngineSpec::Streaming,
            Framework::MiniBatch => EngineSpec::MiniBatch,
        };
    }
    if let Some(s) = p.get("mode") {
        defaults.mode = match s {
            "vector" => sssj_net::SessionMode::Vector,
            "text" => sssj_net::SessionMode::Text,
            other => return Err(format!("unknown mode {other:?} (vector|text)")),
        };
    }
    if let Some(s) = p.get("slack") {
        let slack: f64 = s.parse().map_err(|e| format!("bad slack: {e}"))?;
        if !(slack.is_finite() && slack >= 0.0) {
            return Err(format!("slack must be ≥ 0: {s}"));
        }
        if let (inner, Some(_)) = spec.split_outer_reorder() {
            spec = inner;
        }
        if slack > 0.0 {
            spec.wrappers.push(WrapperSpec::Reorder(slack));
        }
    }
    spec.validate().map_err(|e| e.to_string())?;
    defaults.spec = spec;
    let shared = p.flag("shared");
    let server = Server::bind(
        &listen,
        ServerOptions {
            defaults: defaults.clone(),
            shared,
            ..Default::default()
        },
    )
    .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    eprintln!(
        "sssj: serving on {} (spec {}{}); close stdin to stop",
        server.local_addr(),
        defaults.spec,
        if shared { ", shared" } else { "" },
    );
    // Block until the controlling stream closes.
    let mut sink = [0u8; 1024];
    loop {
        match wait_on.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) => return Err(format!("stdin error: {e}")),
        }
    }
    eprintln!(
        "sssj: shutting down after {} session(s)",
        server.sessions_started()
    );
    server.shutdown();
    Ok(())
}

/// `sssj net-send <file> --connect 127.0.0.1:7878 [--spec S] [--theta
/// --lambda --index --framework --quiet] [--subscribe N]
/// [--query 'topk N K; neighbors N; component N; stats']
/// [--no-finish] [--watch SECS]`
///
/// With a graph-wrapped `--spec` (`…&graph`), `--subscribe` registers
/// for pushed `U` edge updates before streaming (printed as
/// `update <node>: <left> <right> <sim>`), and `--query` answers each
/// `;`-separated graph query over the wire after the stream finishes —
/// in the same one-line format as the local `sssj graph` command, so
/// the two diff cleanly.
///
/// Against a `--shared` server two more flags matter: `--no-finish`
/// skips the end-of-stream `FINISH` (which would seal the shared
/// pipeline for *every* client — a subscriber sending no records wants
/// this), and `--watch SECS` listens passively for that long after the
/// stream/queries, printing server-pushed updates as they arrive (the
/// server pushes them without this client writing a byte).
pub fn net_send(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["quiet", "no-finish"])?;
    let [file] = p.positional.as_slice() else {
        return Err("net-send expects exactly one input file".into());
    };
    let addr = p.get("connect").unwrap_or("127.0.0.1:7878").to_string();
    let quiet = p.flag("quiet");

    let records = load(std::path::Path::new(file))?;
    let mut client =
        JoinClient::connect(&*addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    let mut config = ConfigRequest {
        theta: p
            .get("theta")
            .map(|s| s.parse().map_err(|e| format!("bad theta: {e}")))
            .transpose()?,
        lambda: p
            .get("lambda")
            .map(|s| s.parse().map_err(|e| format!("bad lambda: {e}")))
            .transpose()?,
        ..Default::default()
    };
    if let Some(s) = p.get("spec") {
        config.spec = Some(s.parse().map_err(|e| format!("--spec: {e}"))?);
    }
    if let Some(s) = p.get("index") {
        config.index = Some(IndexKind::parse(s).ok_or_else(|| format!("unknown index {s:?}"))?);
    }
    if let Some(s) = p.get("framework") {
        config.framework =
            Some(Framework::parse(s).ok_or_else(|| format!("unknown framework {s:?}"))?);
    }
    if config != ConfigRequest::default() {
        client.configure(config).map_err(|e| e.to_string())?;
    }
    let queries = p
        .get("query")
        .map(crate::graph_cmd::parse_queries)
        .transpose()?;
    if let Some(node) = p.get("subscribe") {
        let node: u64 = node
            .parse()
            .map_err(|e| format!("--subscribe: bad node id: {e}"))?;
        client.subscribe(node).map_err(|e| e.to_string())?;
    }

    let watch: Option<f64> = p
        .get("watch")
        .map(|s| s.parse().map_err(|e| format!("bad --watch: {e}")))
        .transpose()?;
    if let Some(secs) = watch {
        if !(secs.is_finite() && secs >= 0.0) {
            return Err(format!("--watch must be ≥ 0 seconds, got {secs}"));
        }
    }

    let mut total = 0u64;
    for r in &records {
        for pair in client.send_record(r).map_err(|e| e.to_string())? {
            total += 1;
            if !quiet {
                println!("{} {} {}", pair.left, pair.right, pair.similarity);
            }
        }
    }
    if !p.flag("no-finish") {
        for pair in client.finish().map_err(|e| e.to_string())? {
            total += 1;
            if !quiet {
                println!("{} {} {}", pair.left, pair.right, pair.similarity);
            }
        }
    }
    for (node, pair) in client.take_updates() {
        println!(
            "update {node}: {} {} {:.6}",
            pair.left, pair.right, pair.similarity
        );
    }
    if let Some(queries) = queries {
        use crate::graph_cmd::{format_edge_list, Query};
        // An edge pair (node, neighbour) comes back id-normalised; the
        // neighbour is whichever member is not the queried node.
        let far = |node: u64, p: &sssj_types::SimilarPair| {
            if p.left == node {
                p.right
            } else {
                p.left
            }
        };
        for q in queries {
            let line = match q {
                Query::Neighbors(node, at) => {
                    let edges: Vec<(u64, f64)> = client
                        .query_neighbors_at(node, at)
                        .map_err(|e| e.to_string())?
                        .iter()
                        .map(|p| (far(node, p), p.similarity))
                        .collect();
                    format_edge_list(&q.label(), &edges)
                }
                Query::TopK(node, k, at) => {
                    let edges: Vec<(u64, f64)> = client
                        .query_topk_at(node, k as u32, at)
                        .map_err(|e| e.to_string())?
                        .iter()
                        .map(|p| (far(node, p), p.similarity))
                        .collect();
                    format_edge_list(&q.label(), &edges)
                }
                Query::Component(node, at) => {
                    let (root, size) = client
                        .query_component_at(node, at)
                        .map_err(|e| e.to_string())?;
                    format!("{}: root={root} size={size}", q.label())
                }
                Query::Stats => {
                    let fields = client.graph_stats().map_err(|e| e.to_string())?;
                    let mut line = "stats:".to_string();
                    for (k, v) in fields {
                        line.push_str(&format!(" {k}={v}"));
                    }
                    line
                }
            };
            println!("{line}");
        }
    }
    if let Some(secs) = watch {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(secs);
        while let Some(left) = deadline
            .checked_duration_since(std::time::Instant::now())
            .filter(|d| !d.is_zero())
        {
            let step = left.min(std::time::Duration::from_millis(250));
            for (node, pair) in client.poll_updates(step).map_err(|e| e.to_string())? {
                println!(
                    "update {node}: {} {} {:.6}",
                    pair.left, pair.right, pair.similarity
                );
            }
        }
    }
    let stats = client.stats().map_err(|e| e.to_string())?;
    eprintln!(
        "sssj: {} records sent, {total} pairs, {} entries traversed",
        stats.records, stats.entries_traversed
    );
    // Surface coalesced `D <n>` drops whether or not --watch ran: a
    // subscriber that only read its own responses still learns its
    // update stream has holes (also counted server-side in
    // `sssj_net_push_dropped_updates_total`).
    let dropped = client.dropped_updates();
    if dropped > 0 {
        eprintln!("sssj: {dropped} pushed update(s) dropped by the server's bounded queue");
    }
    client.quit().map_err(|e| e.to_string())?;
    Ok(())
}

/// `sssj metrics <addr> [--watch SECS [--count N]]`
///
/// Scrapes the server's `METRICS` verb. One-shot (the default) prints
/// the Prometheus text exposition verbatim — pipe it to a file and any
/// Prometheus tooling parses it. `--watch SECS` re-scrapes on that
/// interval and annotates every `_total` counter with its delta per
/// second since the previous scrape; `--count N` stops after N reports
/// (default: run until interrupted).
pub fn metrics_cmd(args: &[String]) -> Result<(), String> {
    let p = parse(args, &[])?;
    let addr = match p.positional.as_slice() {
        [] => "127.0.0.1:7878".to_string(),
        [a] => a.clone(),
        _ => return Err("metrics expects at most one server address".into()),
    };
    let watch: Option<f64> = p
        .get("watch")
        .map(|s| s.parse().map_err(|e| format!("bad --watch: {e}")))
        .transpose()?;
    if let Some(secs) = watch {
        if !(secs.is_finite() && secs > 0.0) {
            return Err(format!("--watch must be > 0 seconds, got {secs}"));
        }
    }
    let count: Option<u64> = p
        .get("count")
        .map(|s| s.parse().map_err(|e| format!("bad --count: {e}")))
        .transpose()?;
    let mut client =
        JoinClient::connect(&*addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    let Some(secs) = watch else {
        let lines = client.metrics().map_err(|e| e.to_string())?;
        if lines.is_empty() {
            eprintln!("sssj: server reports no metrics (running with SSSJ_TELEMETRY=off?)");
        }
        for line in &lines {
            println!("{line}");
        }
        return client.quit().map_err(|e| e.to_string());
    };

    // Watch mode: sample values per series, report deltas/sec.
    let mut prev = scrape_samples(&mut client)?;
    let mut reports = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        let cur = scrape_samples(&mut client)?;
        reports += 1;
        println!("--- scrape {reports} (+{secs}s)");
        for (name, value) in &cur {
            if name.contains("_total") {
                // Clamped at zero: a counter that went backwards means
                // the server restarted between scrapes, and a negative
                // rate would be nonsense.
                let delta = (value
                    - prev
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |(_, v)| *v))
                .max(0.0);
                println!("{name} {value} (+{:.2}/s)", delta / secs);
            } else {
                println!("{name} {value}");
            }
        }
        prev = cur;
        if count.is_some_and(|c| reports >= c) {
            break;
        }
    }
    client.quit().map_err(|e| e.to_string())
}

/// `sssj trace [<addr>] [--last N] [--out FILE] [--from-log FILE]`
///
/// Dumps a server's flight recorder (the `TRACE` verb) and renders it
/// as Chrome trace-event JSON — load the output in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing` to see every span
/// (ingest, candidate generation, shard fan-out, WAL, graph publish,
/// net requests) on a per-thread timeline, correlated by trace id.
///
/// `--last N` asks for the newest N events (default 4096); `--out FILE`
/// writes the JSON there instead of stdout. `--from-log FILE` skips the
/// network and renders a `sssj serve --trace-log` capture instead — the
/// two sources share the wire format, so one renderer serves both.
pub fn trace_cmd(args: &[String]) -> Result<(), String> {
    use sssj_metrics::trace::{chrome_trace_json, TraceEvent};
    let p = parse(args, &[])?;
    let from_log = p.get("from-log");
    let addr = match (p.positional.as_slice(), from_log) {
        ([], None) => Some("127.0.0.1:7878".to_string()),
        ([a], None) => Some(a.clone()),
        ([], Some(_)) => None,
        (_, Some(_)) => return Err("trace takes either <addr> or --from-log, not both".into()),
        _ => return Err("trace expects at most one server address".into()),
    };
    let last: u64 = p
        .get("last")
        .map(|s| s.parse().map_err(|e| format!("bad --last: {e}")))
        .transpose()?
        .unwrap_or(4096);
    if last == 0 {
        return Err("--last must be >= 1".into());
    }

    let mut events: Vec<TraceEvent> = Vec::new();
    if let Some(addr) = addr {
        let mut client =
            JoinClient::connect(&*addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let lines = client.trace(last).map_err(|e| e.to_string())?;
        let Some((header, body)) = lines.split_first() else {
            return Err("server sent an empty TRACE reply".into());
        };
        if !header.starts_with('#') {
            return Err(format!("malformed TRACE header: {header:?}"));
        }
        eprintln!("sssj: trace {header}");
        for line in body {
            events.push(
                TraceEvent::from_wire(line)
                    .ok_or_else(|| format!("malformed trace event: {line:?}"))?,
            );
        }
        if events.is_empty() {
            eprintln!("sssj: no events (server running with SSSJ_TRACE=off?)");
        }
        client.quit().map_err(|e| e.to_string())?;
    } else {
        let path = from_log.expect("checked above");
        let body = std::fs::read_to_string(path).map_err(|e| format!("--from-log {path}: {e}"))?;
        for line in body
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            events.push(
                TraceEvent::from_wire(line)
                    .ok_or_else(|| format!("{path}: malformed trace event: {line:?}"))?,
            );
        }
        if events.len() as u64 > last {
            events.drain(..events.len() - last as usize);
        }
    }

    let json = chrome_trace_json(&events);
    match p.get("out") {
        Some(file) => {
            std::fs::write(file, &json).map_err(|e| format!("--out {file}: {e}"))?;
            eprintln!("sssj: wrote {} event(s) to {file}", events.len());
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// One `METRICS` scrape reduced to `(series, value)` samples (comment
/// lines skipped), in exposition order.
fn scrape_samples(client: &mut JoinClient) -> Result<Vec<(String, f64)>, String> {
    Ok(client
        .metrics()
        .map_err(|e| e.to_string())?
        .iter()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse::<f64>().ok()?))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_net::{Server, ServerOptions};

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn net_serve_exits_on_eof() {
        let mut empty: &[u8] = b"";
        net_serve_impl(&s(&["--listen", "127.0.0.1:0"]), &mut empty).unwrap();
    }

    #[test]
    fn net_serve_rejects_positional_args() {
        let mut empty: &[u8] = b"";
        assert!(net_serve_impl(&s(&["file.bin"]), &mut empty).is_err());
    }

    #[test]
    fn net_serve_accepts_mode_and_slack() {
        let mut empty: &[u8] = b"";
        net_serve_impl(
            &s(&["--listen", "127.0.0.1:0", "--mode", "text", "--slack", "30"]),
            &mut empty,
        )
        .unwrap();
        let mut empty: &[u8] = b"";
        assert!(net_serve_impl(
            &s(&["--listen", "127.0.0.1:0", "--slack", "-4"]),
            &mut empty
        )
        .is_err());
    }

    #[test]
    fn net_serve_rejects_bad_index() {
        let mut empty: &[u8] = b"";
        assert!(
            net_serve_impl(&s(&["--listen", "127.0.0.1:0", "--index", "x"]), &mut empty).is_err()
        );
    }

    #[test]
    fn net_send_roundtrip_against_in_process_server() {
        // Write a tiny stream file, serve in-process, send it.
        let dir = std::env::temp_dir().join(format!("sssj-net-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("mini.txt");
        std::fs::write(&file, "0.0 7:1.0\n1.0 7:1.0\n").unwrap();

        let server = Server::bind("127.0.0.1:0", ServerOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        net_send(&s(&[
            file.to_str().unwrap(),
            "--connect",
            &addr,
            "--theta",
            "0.7",
            "--lambda",
            "0.1",
            "--quiet",
        ]))
        .unwrap();
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn net_send_requires_a_file() {
        assert!(net_send(&s(&[])).is_err());
    }

    #[test]
    fn metrics_cmd_scrapes_one_shot_and_watch() {
        let server = Server::bind("127.0.0.1:0", ServerOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        metrics_cmd(&s(&[&addr])).unwrap();
        metrics_cmd(&s(&[&addr, "--watch", "0.05", "--count", "2"])).unwrap();
        assert!(metrics_cmd(&s(&[&addr, "--watch", "0"])).is_err());
        assert!(metrics_cmd(&s(&[&addr, "extra"])).is_err());
        server.shutdown();
    }

    #[test]
    fn trace_cmd_renders_chrome_json_from_a_live_server() {
        let dir = std::env::temp_dir().join(format!("sssj-net-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Durable + graph on a shared server: one ingest crosses
        // the WAL, the graph publish and the net layer — the full span
        // set the flight recorder promises.
        let spec = format!(
            "str-l2?theta=0.5&tau=10&durable={}&graph",
            dir.join("wal").display()
        );
        let server = Server::bind(
            "127.0.0.1:0",
            ServerOptions {
                defaults: sssj_net::SessionDefaults {
                    spec: spec.parse().unwrap(),
                    ..Default::default()
                },
                shared: true,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut client = JoinClient::connect(&*addr).unwrap();
        for i in 0..20u64 {
            let mut b = sssj_types::SparseVectorBuilder::with_capacity(1);
            b.push(7, 1.0);
            let r = sssj_types::StreamRecord::new(
                i,
                sssj_types::Timestamp::new(i as f64 * 0.1),
                b.build_normalized().unwrap(),
            );
            client.send_record(&r).unwrap();
        }
        client.quit().unwrap();

        let out = dir.join("trace.json");
        trace_cmd(&s(&[
            &addr,
            "--last",
            "20000",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        assert!(body.trim_start().starts_with('['), "{body}");
        assert!(body.trim_end().ends_with(']'), "{body}");
        if sssj_metrics::trace_enabled() {
            for stage in ["ingest", "wal.append", "graph.publish", "net.request"] {
                assert!(
                    body.contains(&format!("\"name\":\"{stage}\"")),
                    "missing {stage} span in:\n{body}"
                );
            }
            // One record's journey is correlated: an ingest span's trace
            // id also labels a net.request span (same request).
            let trace_id_of = |line: &str| -> Option<u64> {
                let rest = line.split("\"trace_id\":").nth(1)?;
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            };
            let ingest_id = body
                .lines()
                .filter(|l| l.contains("\"name\":\"ingest\""))
                .filter_map(trace_id_of)
                .find(|&id| id != 0)
                .expect("an attributed ingest span");
            assert!(
                body.lines()
                    .filter(|l| l.contains("\"name\":\"net.request\""))
                    .filter_map(trace_id_of)
                    .any(|id| id == ingest_id),
                "ingest trace id {ingest_id} must label a net.request span"
            );
        }
        // Bad usage is rejected before any connection attempt.
        assert!(trace_cmd(&s(&[&addr, "--last", "0"])).is_err());
        assert!(trace_cmd(&s(&[&addr, "--from-log", "x"])).is_err());
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_cmd_renders_a_trace_log_capture() {
        use sssj_metrics::trace::{instant, Stage};
        let dir = std::env::temp_dir().join(format!("sssj-cli-tracelog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("cap.log");
        // A wire-format capture (as `sssj serve --trace-log` writes) —
        // hand-rolled here so the off lane exercises the renderer too.
        std::fs::write(
            &log,
            "120 0 loop.stall i 2 0 3 1 2\n540 80 ingest X 2 1 9 7 1\n",
        )
        .unwrap();
        instant(Stage::LoopStall, 0, 0); // exercise the symbol either lane
        let out = dir.join("cap.json");
        trace_cmd(&s(&[
            "--from-log",
            log.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        assert!(body.contains("\"name\":\"ingest\""), "{body}");
        assert!(body.contains("\"ph\":\"i\""), "{body}");
        // --last trims from the front (oldest dropped first).
        trace_cmd(&s(&[
            "--from-log",
            log.to_str().unwrap(),
            "--last",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        assert!(!body.contains("loop.stall"), "{body}");
        // A malformed line is a hard error, not silent truncation.
        std::fs::write(&log, "garbage\n").unwrap();
        let err = trace_cmd(&s(&["--from-log", log.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn net_serve_accepts_shared_and_engine_flags() {
        let mut empty: &[u8] = b"";
        net_serve_impl(
            &s(&[
                "--listen",
                "127.0.0.1:0",
                "--spec",
                "str-l2?theta=0.5&tau=10&graph",
                "--shared",
            ]),
            &mut empty,
        )
        .unwrap();
        // The serving engine is not an option: a retired flag is refused
        // by name, not silently ignored.
        let mut empty: &[u8] = b"";
        let err = net_serve_impl(
            &s(&["--listen", "127.0.0.1:0", "--engine", "threaded"]),
            &mut empty,
        )
        .unwrap_err();
        assert!(err.contains("unknown option --engine"), "{err}");
    }

    #[test]
    fn net_send_watch_and_no_finish_work_against_a_shared_server() {
        let dir = std::env::temp_dir().join(format!("sssj-net-watch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("mini.txt");
        std::fs::write(&file, "0.0 7:1.0\n1.0 7:1.0\n2.0 7:1.0\n").unwrap();
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "").unwrap();

        let server = Server::bind(
            "127.0.0.1:0",
            ServerOptions {
                defaults: sssj_net::SessionDefaults {
                    spec: "str-l2?theta=0.5&tau=100&graph".parse().unwrap(),
                    ..Default::default()
                },
                shared: true,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        // A record-less subscriber watches while another client ingests
        // — real push, no FINISH so the shared pipeline stays open.
        let watcher = {
            let (addr, empty) = (addr.clone(), empty.clone());
            std::thread::spawn(move || {
                net_send(&s(&[
                    empty.to_str().unwrap(),
                    "--connect",
                    &addr,
                    "--subscribe",
                    "0",
                    "--no-finish",
                    "--watch",
                    "1.5",
                    "--quiet",
                ]))
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(200));
        net_send(&s(&[
            file.to_str().unwrap(),
            "--connect",
            &addr,
            "--no-finish",
            "--quiet",
        ]))
        .unwrap();
        watcher.join().unwrap().unwrap();
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn net_send_serves_graph_queries_and_subscriptions() {
        let dir = std::env::temp_dir().join(format!("sssj-net-graph-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("mini.txt");
        std::fs::write(&file, "0.0 7:1.0\n1.0 7:1.0\n2.0 7:1.0\n").unwrap();

        let server = Server::bind("127.0.0.1:0", ServerOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        net_send(&s(&[
            file.to_str().unwrap(),
            "--connect",
            &addr,
            "--spec",
            "str-l2?theta=0.5&tau=10&graph",
            "--subscribe",
            "0",
            "--query",
            "neighbors 1; topk 1 1; component 2; stats",
            "--quiet",
        ]))
        .unwrap();
        // Queries against a non-graph session come back as errors.
        let err = net_send(&s(&[
            file.to_str().unwrap(),
            "--connect",
            &addr,
            "--query",
            "stats",
            "--quiet",
        ]))
        .unwrap_err();
        assert!(err.contains("no graph"), "{err}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn net_send_serves_time_travel_queries() {
        let dir = std::env::temp_dir().join(format!("sssj-net-travel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("mini.txt");
        // Two near-duplicates, then enough disjoint filler to expire
        // their edge out of the live window (tau=4).
        let mut body = String::from("0.0 7:1.0\n1.0 7:1.0\n");
        for i in 0..40 {
            body.push_str(&format!("{}.0 {}:1.0\n", 20 + i, 100 + i));
        }
        std::fs::write(&file, body).unwrap();

        let server = Server::bind("127.0.0.1:0", ServerOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        let spec = format!(
            "str-l2?theta=0.5&tau=4&durable={}&graph&history={}",
            dir.join("wal").display(),
            dir.join("hist").display()
        );
        net_send(&s(&[
            file.to_str().unwrap(),
            "--connect",
            &addr,
            "--spec",
            &spec,
            "--query",
            "neighbors 0 at=1.5; component 0 at=1.5; neighbors 0; stats",
            "--quiet",
        ]))
        .unwrap();
        // at= against a history-less graph session is a server error.
        let err = net_send(&s(&[
            file.to_str().unwrap(),
            "--connect",
            &addr,
            "--spec",
            "str-l2?theta=0.5&tau=4&graph",
            "--query",
            "neighbors 0 at=1.5",
            "--quiet",
        ]))
        .unwrap_err();
        assert!(err.contains("history"), "{err}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
