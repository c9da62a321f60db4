//! End-to-end tests of shared-pipeline serving over real loopback
//! sockets: the multiplexed event loop, real server-push `SUBSCRIBE`,
//! and wire compatibility for clients that never subscribe.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use sssj_net::{ConfigRequest, JoinClient, NetError, Server, ServerOptions, SessionDefaults};

/// A shared-pipeline server over the paper's streaming join with the
/// live graph wrapper — the spec every connection serves, since shared
/// mode refuses `CONFIG`.
fn shared_options() -> ServerOptions {
    ServerOptions {
        defaults: SessionDefaults {
            spec: "str-l2?theta=0.5&tau=1000&graph".parse().unwrap(),
            ..Default::default()
        },
        shared: true,
        ..Default::default()
    }
}

#[test]
fn shared_event_loop_pushes_updates_to_passive_subscribers() {
    let server = Server::bind("127.0.0.1:0", shared_options()).unwrap();
    let mut sub = JoinClient::connect(server.local_addr()).unwrap();
    sub.subscribe(0).unwrap();
    sub.subscribe(1).unwrap();

    // A *different* connection ingests; the subscriber never writes
    // another byte.
    let mut ingest = JoinClient::connect(server.local_addr()).unwrap();
    for t in 0..3 {
        ingest.send_vector(t as f64, &[(7, 1.0)]).unwrap();
    }

    // Pairs (0,1), (0,2), (1,2) touch the watched endpoints 0,1 / 0 / 1
    // → four pushed frames, arriving without any request from us.
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < 4 && Instant::now() < deadline {
        got.extend(sub.poll_updates(Duration::from_millis(200)).unwrap());
    }
    assert_eq!(got.len(), 4, "{got:?}");
    assert!(got.iter().all(|(node, _)| *node == 0 || *node == 1));
    assert_eq!(got.iter().filter(|(n, _)| *n == 0).count(), 2);
    assert_eq!(sub.dropped_updates(), 0);

    // Old-client wire compat: the ingest connection never subscribed,
    // so no `U`/`D` frame ever reached it.
    assert!(ingest.take_updates().is_empty());
    assert_eq!(ingest.dropped_updates(), 0);
    server.shutdown();
}

#[test]
fn shared_event_loop_reads_see_your_own_writes() {
    let server = Server::bind("127.0.0.1:0", shared_options()).unwrap();
    let mut a = JoinClient::connect(server.local_addr()).unwrap();
    assert!(a.send_vector(0.0, &[(3, 1.0)]).unwrap().is_empty());
    assert_eq!(a.send_vector(1.0, &[(3, 1.0)]).unwrap().len(), 1);

    // The loop publishes a fresh snapshot before flushing replies: by
    // the time `OK` for the ingest arrived, the very next query sees
    // the new edge — no sleep, no retry.
    assert_eq!(a.query_neighbors(0).unwrap().len(), 1);

    // `CONFIG` is refused: the shared pipeline is fixed by the operator.
    assert!(matches!(
        a.configure(ConfigRequest {
            theta: Some(0.9),
            ..Default::default()
        }),
        Err(NetError::Server(_))
    ));

    // QUIT closes only this connection; the pipeline survives for the
    // next client.
    a.quit().unwrap();
    let mut b = JoinClient::connect(server.local_addr()).unwrap();
    let stats = b.graph_stats().unwrap();
    assert_eq!(
        stats,
        vec![
            ("nodes".to_string(), 2),
            ("edges".to_string(), 1),
            ("components".to_string(), 1),
        ]
    );
    // Both connections drive the same join: b's record pairs with a's.
    assert_eq!(b.send_vector(2.0, &[(3, 1.0)]).unwrap().len(), 2);
    server.shutdown();
}

#[test]
fn pushed_frames_land_only_between_replies() {
    let server = Server::bind("127.0.0.1:0", shared_options()).unwrap();
    let addr = server.local_addr();

    // A raw-socket subscriber that keeps querying while another client
    // ingests, so pushes and replies compete for the same connection.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"SUBSCRIBE 0\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK 0");

    const RECORDS: u64 = 200;
    let ingest = thread::spawn(move || {
        let mut c = JoinClient::connect(addr).unwrap();
        for t in 0..RECORDS {
            c.send_vector(t as f64 * 1e-3, &[(7, 1.0)]).unwrap();
        }
        c.quit().unwrap();
    });

    // Every record pairs with node 0, so RECORDS-1 updates must reach
    // us — and `U`/`D` must never split a reply (P-lines … OK).
    let mut in_reply = false;
    let mut pushed = 0u64;
    let mut dropped = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while pushed + dropped < RECORDS - 1 {
        assert!(
            Instant::now() < deadline,
            "saw {pushed} pushes + {dropped} drops, want {}",
            RECORDS - 1
        );
        writer.write_all(b"QUERY neighbors 0\n").unwrap();
        loop {
            line.clear();
            assert_ne!(reader.read_line(&mut line).unwrap(), 0, "server closed");
            let l = line.trim();
            if l.starts_with("P ") {
                in_reply = true;
            } else if l.starts_with("OK") {
                in_reply = false;
                break;
            } else if let Some(rest) = l.strip_prefix("U ") {
                assert!(!in_reply, "push frame inside a reply: {rest:?}");
                pushed += 1;
            } else if let Some(rest) = l.strip_prefix("D ") {
                assert!(!in_reply, "drop report inside a reply: {rest:?}");
                dropped += rest.parse::<u64>().unwrap();
            } else {
                panic!("unexpected frame {l:?}");
            }
        }
    }
    ingest.join().unwrap();
    assert_eq!(pushed + dropped, RECORDS - 1);
    // The default queue (1024) never overflowed at this rate.
    assert_eq!(dropped, 0);
    server.shutdown();
}

#[test]
fn push_queue_overflow_drops_oldest_and_reports_coalesced_d() {
    let mut options = shared_options();
    options.push_queue_cap = 1;
    let server = Server::bind("127.0.0.1:0", options).unwrap();
    let mut sub = JoinClient::connect(server.local_addr()).unwrap();
    sub.subscribe(0).unwrap();

    // One pipelined write delivers a whole batch into (typically) a
    // single loop iteration: its deltas all hit the 1-slot queue before
    // the next drain, so all but the newest drop and are reported as a
    // coalesced `D <n>`.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut received = 0u64;
    for round in 0..50u64 {
        let mut batch = String::new();
        for i in 0..32u64 {
            batch.push_str(&format!("V {} 7:1.0\n", (round * 32 + i) as f64 * 1e-3));
        }
        writer.write_all(batch.as_bytes()).unwrap();
        let mut line = String::new();
        let mut oks = 0;
        while oks < 32 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            let l = line.trim();
            if l.starts_with("OK") {
                oks += 1;
            } else {
                assert!(l.starts_with("P "), "unexpected ingest reply {l:?}");
            }
        }
        received += sub.poll_updates(Duration::from_millis(300)).unwrap().len() as u64;
        if sub.dropped_updates() > 0 {
            break;
        }
    }
    assert!(
        sub.dropped_updates() > 0,
        "no overflow after 50 pipelined batches (received {received})"
    );
    // Dropping is lossy, not fatal: the connection still serves.
    assert!(!sub.graph_stats().unwrap().is_empty());
    server.shutdown();
}

#[test]
fn scan_poll_backend_serves_shared_push_too() {
    // Force the portable fallback poller. The variable stays set until
    // a full round-trip proves the loop (and hence its poller) exists —
    // `bind` does not wait for the loop thread to start.
    std::env::set_var("SSSJ_NET_POLL", "scan");
    let server = Server::bind("127.0.0.1:0", shared_options()).unwrap();
    let mut sub = JoinClient::connect(server.local_addr()).unwrap();
    sub.subscribe(0).unwrap();
    std::env::remove_var("SSSJ_NET_POLL");

    let mut ingest = JoinClient::connect(server.local_addr()).unwrap();
    assert!(ingest.send_vector(0.0, &[(9, 1.0)]).unwrap().is_empty());
    assert_eq!(ingest.send_vector(1.0, &[(9, 1.0)]).unwrap().len(), 1);
    assert_eq!(ingest.query_neighbors(1).unwrap().len(), 1);

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    while got.is_empty() && Instant::now() < deadline {
        got.extend(sub.poll_updates(Duration::from_millis(200)).unwrap());
    }
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].0, 0);
    server.shutdown();
}
