//! End-to-end tests of the join service over real loopback sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;

use sssj_baseline::brute_force_stream;
use sssj_core::Framework;
use sssj_data::{generate, preset, Preset};
use sssj_index::IndexKind;
use sssj_net::{ConfigRequest, JoinClient, NetError, Server, ServerOptions, SessionMode};
use sssj_types::SimilarPair;

fn server() -> Server {
    Server::bind("127.0.0.1:0", ServerOptions::default()).expect("bind loopback")
}

fn keys(pairs: &[SimilarPair]) -> Vec<(u64, u64)> {
    let mut k: Vec<_> = pairs.iter().map(|p| p.key()).collect();
    k.sort_unstable();
    k.dedup();
    k
}

#[test]
fn basic_session_reports_near_duplicates() {
    let server = server();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    client
        .configure(ConfigRequest {
            theta: Some(0.7),
            lambda: Some(0.1),
            ..Default::default()
        })
        .unwrap();
    assert!(client.send_vector(0.0, &[(7, 1.0)]).unwrap().is_empty());
    let pairs = client.send_vector(1.0, &[(7, 1.0)]).unwrap();
    assert_eq!(keys(&pairs), vec![(0, 1)]);
    assert!((pairs[0].similarity - (-0.1f64).exp()).abs() < 1e-9);
    let stats = client.stats().unwrap();
    assert_eq!(stats.records, 2);
    assert_eq!(stats.pairs, 1);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn server_matches_brute_force_on_a_preset_stream() {
    let records = generate(&preset(Preset::Rcv1, 300));
    let (theta, lambda) = (0.6, 0.01);
    let want = keys(&brute_force_stream(&records, theta, lambda));

    let server = server();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    client
        .configure(ConfigRequest {
            theta: Some(theta),
            lambda: Some(lambda),
            index: Some(IndexKind::L2),
            ..Default::default()
        })
        .unwrap();
    let mut got = Vec::new();
    for r in &records {
        got.extend(client.send_record(r).unwrap());
    }
    got.extend(client.finish().unwrap());
    client.quit().unwrap();
    server.shutdown();

    // Server ids are session ordinals == positions == generated ids here.
    assert_eq!(keys(&got), want);
}

#[test]
fn minibatch_session_flushes_on_finish() {
    let server = server();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    client
        .configure(ConfigRequest {
            theta: Some(0.7),
            lambda: Some(0.01),
            framework: Some(Framework::MiniBatch),
            ..Default::default()
        })
        .unwrap();
    // Two identical vectors close in time, within one MB window.
    assert!(client.send_vector(0.0, &[(3, 1.0)]).unwrap().is_empty());
    assert!(client.send_vector(1.0, &[(3, 1.0)]).unwrap().is_empty());
    let flushed = client.finish().unwrap();
    assert_eq!(keys(&flushed), vec![(0, 1)]);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn concurrent_sessions_are_isolated() {
    let server = server();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            thread::spawn(move || {
                let mut client = JoinClient::connect(addr).unwrap();
                client
                    .configure(ConfigRequest {
                        theta: Some(0.7),
                        lambda: Some(0.1),
                        ..Default::default()
                    })
                    .unwrap();
                // Each session uses its own dimension: pairs never cross
                // sessions, and each session sees exactly one pair.
                let dim = 100 + i as u32;
                assert!(client.send_vector(0.0, &[(dim, 1.0)]).unwrap().is_empty());
                let pairs = client.send_vector(1.0, &[(dim, 1.0)]).unwrap();
                assert_eq!(keys(&pairs), vec![(0, 1)]);
                let stats = client.stats().unwrap();
                assert_eq!(stats.records, 2, "session {i} saw foreign records");
                client.quit().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.sessions_started(), 4);
    server.shutdown();
}

#[test]
fn text_mode_sessions_tokenize_server_side() {
    let server = server();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    client
        .configure(ConfigRequest {
            theta: Some(0.8),
            lambda: Some(0.001),
            mode: Some(SessionMode::Text),
            ..Default::default()
        })
        .unwrap();
    assert!(client
        .send_text(0.0, "breaking news big event downtown")
        .unwrap()
        .is_empty());
    let pairs = client
        .send_text(5.0, "breaking news big event downtown")
        .unwrap();
    assert_eq!(keys(&pairs), vec![(0, 1)]);
    // Embedded newlines are rejected client-side before hitting the wire.
    assert!(matches!(
        client.send_text(6.0, "two\nlines"),
        Err(NetError::Protocol(_))
    ));
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn out_of_order_with_slack_still_joins() {
    let server = server();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    client
        .configure(ConfigRequest {
            theta: Some(0.7),
            lambda: Some(0.1),
            slack: Some(10.0),
            ..Default::default()
        })
        .unwrap();
    client.send_vector(2.0, &[(7, 1.0)]).unwrap();
    client.send_vector(1.0, &[(7, 1.0)]).unwrap(); // 1 late, within slack
    let mut got = client.finish().unwrap();
    got = keys(&got)
        .into_iter()
        .map(|(l, r)| SimilarPair::new(l, r, 1.0))
        .collect();
    assert_eq!(got.len(), 1);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn server_errors_keep_session_alive() {
    let server = server();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    // Out-of-order without slack → server error…
    client.send_vector(5.0, &[(1, 1.0)]).unwrap();
    assert!(matches!(
        client.send_vector(1.0, &[(1, 1.0)]),
        Err(NetError::Server(_))
    ));
    // …but the session keeps working.
    client.send_vector(6.0, &[(1, 1.0)]).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.records, 2);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn raw_socket_malformed_lines_get_error_responses() {
    let server = server();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    writer
        .write_all(b"BLURB nonsense\nV 1.0 3:0.5\nQUIT\n")
        .unwrap();
    writer.flush().unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("E "), "got {line:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK 0");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "BYE");
    server.shutdown();
}

#[test]
fn oversized_line_closes_connection_with_error() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions {
            max_line_bytes: 256,
            ..Default::default()
        },
    )
    .unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let huge = vec![b'x'; 10_000];
    writer.write_all(&huge).unwrap();
    writer.flush().unwrap();

    let mut response = String::new();
    reader.read_to_string(&mut response).unwrap(); // server closes
    assert!(response.starts_with("E "), "got {response:?}");
    server.shutdown();
}

#[test]
fn eof_without_quit_is_a_clean_close() {
    let server = server();
    {
        let mut client = JoinClient::connect(server.local_addr()).unwrap();
        client.send_vector(0.0, &[(1, 1.0)]).unwrap();
        // Drop without QUIT: the server must treat EOF as session end.
    }
    // The server still accepts new sessions afterwards.
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    client.send_vector(0.0, &[(1, 1.0)]).unwrap();
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_with_idle_clients_does_not_hang() {
    let server = server();
    let addr = server.local_addr();
    // Idle client that never sends anything.
    let _idle = TcpStream::connect(addr).unwrap();
    // Client mid-session.
    let mut client = JoinClient::connect(addr).unwrap();
    client.send_vector(0.0, &[(1, 1.0)]).unwrap();
    // Must return promptly despite both open connections.
    server.shutdown();
}

#[test]
fn blank_lines_are_ignored() {
    let server = server();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"\n\n  \nSTATS\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    // Blank lines produce no reply: the first line back is already the
    // STATS answer, led by the loop's stall-probe reading.
    assert!(line.starts_with("G loop_stalls="), "got {line:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("S "), "got {line:?}");
    server.shutdown();
}

#[test]
fn stats_and_metrics_report_the_serving_shape() {
    let server = server();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    client.send_vector(0.0, &[(7, 1.0)]).unwrap();
    client.send_vector(1.0, &[(7, 1.0)]).unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.records, 2);
    assert!(!stats.shared, "per-session server");
    assert_eq!(stats.engine, sssj_net::EngineLabel::EventLoop);
    assert!(
        client.loop_stalls().is_some(),
        "STATS carries the loop's stall probe"
    );

    let lines = client.metrics().unwrap();
    if sssj_metrics::telemetry_enabled() {
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("sssj_net_requests_total")),
            "scrape must include the per-verb request counter"
        );
    } else {
        assert!(lines.is_empty(), "off lane answers an empty scrape");
    }
    client.quit().unwrap();
    server.shutdown();
}
