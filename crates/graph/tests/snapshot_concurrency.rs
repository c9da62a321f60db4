//! Concurrency differential suite for the snapshot read path: one
//! ingest thread hammers a handle while N query threads read snapshots,
//! and **every** answer must equal a brute-force replay of the delivery
//! log truncated at that snapshot's own watermark.
//!
//! Verification is post-hoc by construction: delivery stamps are
//! strictly increasing, and the ingest thread logs each edge *before*
//! adding it, so for any published watermark `w` the graph state equals
//! exactly the log prefix with `t ≤ w` (an edge logged but unadded at
//! publish time has `t > w`). Checking against the live graph instead
//! would race — by the time a probe is compared the writer may have
//! advanced past `w` and swept edges that were live at `w`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use sssj_graph::{GraphHandle, GraphStats, SimilarityGraph};

/// left, right, sim, stamp — stamps strictly increasing.
type LogEntry = (u64, u64, f64, f64);

/// One snapshot observation taken by a query thread.
struct Probe {
    watermark: f64,
    node: u64,
    neighbors: Vec<(u64, f64)>,
    topk: Vec<(u64, f64)>,
    component: Option<(u64, u64)>,
    stats: GraphStats,
}

/// Deterministic clustered edge stream: ids in a few dozen clusters so
/// components merge and split as the horizon slides.
fn edge_stream(n: usize) -> Vec<LogEntry> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|i| {
            let cluster = next() % 24;
            let a = cluster * 8 + next() % 8;
            let mut b = cluster * 8 + next() % 8;
            if b == a {
                b = cluster * 8 + (a + 1) % 8;
            }
            let sim = 0.5 + (next() % 1000) as f64 / 2000.0;
            (a.min(b), a.max(b), sim, i as f64 * 0.05)
        })
        .collect()
}

fn pairs_of(edges: &[sssj_graph::Edge]) -> Vec<(u64, f64)> {
    edges.iter().map(|e| (e.neighbor, e.similarity)).collect()
}

#[test]
fn snapshot_reads_under_concurrent_ingest_match_the_log_prefix() {
    const HORIZON: f64 = 20.0;
    const EDGES: usize = 12_000;
    const QUERY_THREADS: usize = 3;
    const PROBE_CAP: usize = 4000;

    let stream = Arc::new(edge_stream(EDGES));
    let handle = GraphHandle::with_options(HORIZON, false);
    // The log the verifier replays: filled strictly ahead of the graph.
    let log: Arc<Mutex<Vec<LogEntry>>> = Arc::new(Mutex::new(Vec::with_capacity(EDGES)));
    let done = Arc::new(AtomicBool::new(false));

    let ingest = {
        let (handle, log, done, stream) = (
            handle.clone(),
            Arc::clone(&log),
            Arc::clone(&done),
            Arc::clone(&stream),
        );
        std::thread::spawn(move || {
            for &(l, r, sim, t) in stream.iter() {
                log.lock().unwrap().push((l, r, sim, t));
                handle.add_edge(l, r, sim, t);
            }
            done.store(true, Ordering::Release);
        })
    };

    let queriers: Vec<_> = (0..QUERY_THREADS)
        .map(|q| {
            let (handle, done, stream) = (handle.clone(), Arc::clone(&done), Arc::clone(&stream));
            std::thread::spawn(move || {
                let mut probes = Vec::new();
                let mut published = 0usize;
                let mut i = q;
                while !done.load(Ordering::Acquire) || probes.len() < 50 {
                    let snap = handle.snapshot();
                    let w = snap.watermark();
                    // Only probes of published state count toward the
                    // cap: on two cores every querier can take 4 000
                    // probes before the writer's first publish. Earlier
                    // ones are kept (they must read as the empty graph)
                    // under a cap of their own.
                    if w.is_finite() {
                        published += 1;
                    } else if probes.len() - published >= PROBE_CAP {
                        std::thread::yield_now();
                        continue;
                    }
                    // Probe a node likely to be live near the watermark.
                    let node = stream[(i * 37) % stream.len()].0;
                    i += 1;
                    probes.push(Probe {
                        watermark: w,
                        node,
                        neighbors: pairs_of(&snap.neighbors(node, w)),
                        topk: pairs_of(&snap.topk(node, 3, w)),
                        component: snap.component(node, w),
                        stats: snap.stats(w),
                    });
                    if published >= PROBE_CAP {
                        break;
                    }
                }
                probes
            })
        })
        .collect();

    ingest.join().unwrap();
    let mut probes: Vec<Probe> = queriers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let log = Arc::try_unwrap(log).ok().unwrap().into_inner().unwrap();
    assert_eq!(log.len(), EDGES);
    assert!(
        probes.iter().any(|p| p.watermark.is_finite()),
        "at least some probes must have seen published state"
    );

    // Replay the log incrementally, verifying probes in watermark order.
    probes.sort_by(|a, b| a.watermark.total_cmp(&b.watermark));
    let mut oracle = SimilarityGraph::new(HORIZON);
    let mut cursor = 0usize;
    for p in &probes {
        while cursor < log.len() && log[cursor].3 <= p.watermark {
            let (l, r, sim, t) = log[cursor];
            oracle.add_edge(l, r, sim, t);
            cursor += 1;
        }
        let w = p.watermark;
        assert_eq!(
            p.neighbors,
            pairs_of(&oracle.neighbors(p.node, w)),
            "neighbors({}) at watermark {w}",
            p.node
        );
        assert_eq!(
            p.topk,
            pairs_of(&oracle.topk(p.node, 3, w)),
            "topk({}) at watermark {w}",
            p.node
        );
        assert_eq!(
            p.component,
            oracle.component(p.node, w),
            "component({}) at watermark {w}",
            p.node
        );
        assert_eq!(p.stats, oracle.stats(w), "stats at watermark {w}");
    }
}

#[test]
fn snapshot_and_oracle_handles_agree_on_the_same_stream() {
    // The flagged Mutex path and the snapshot path, fed identically,
    // must answer identically at any query time — including times that
    // advance the clock past the last delivery.
    const HORIZON: f64 = 10.0;
    let published = GraphHandle::with_options(HORIZON, false);
    let oracle = GraphHandle::new_oracle(HORIZON);
    for &(l, r, sim, t) in &edge_stream(3_000) {
        published.add_edge(l, r, sim, t);
        oracle.add_edge(l, r, sim, t);
    }
    let last_t = 3_000.0 * 0.05;
    for now in [last_t * 0.5, last_t, last_t + HORIZON * 0.5] {
        for node in 0..192u64 {
            assert_eq!(
                pairs_of(&published.neighbors(node, now)),
                pairs_of(&oracle.neighbors(node, now)),
                "neighbors({node}) at {now}"
            );
            assert_eq!(
                pairs_of(&published.topk(node, 4, now)),
                pairs_of(&oracle.topk(node, 4, now)),
                "topk({node}) at {now}"
            );
            assert_eq!(
                published.component(node, now),
                oracle.component(node, now),
                "component({node}) at {now}"
            );
        }
        assert_eq!(published.stats(now), oracle.stats(now), "stats at {now}");
    }
}

/// Seeded interleaving of `add_edge` with every read, at `now` behind,
/// at and past the write clock. The snapshot handle serves a dirty
/// `neighbors`/`topk` from the write side without publishing and
/// publishes for everything else; the oracle reads the write side
/// throughout. Answers must agree, and both handles must hand the
/// historical tier the same expired edges by the end of every read.
fn interleaved_reads_match_the_oracle(seed: u64, collect: bool) {
    const HORIZON: f64 = 2.0;
    const NODES: u64 = 48;
    let handle = GraphHandle::with_options(HORIZON, collect);
    let oracle = GraphHandle::new_oracle(HORIZON);
    oracle.set_collect_expired(collect);
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let sorted = |mut edges: Vec<sssj_graph::ExpiredEdge>| {
        edges.sort_by_key(|e| (e.left, e.right, e.t.to_bits(), e.similarity.to_bits()));
        edges
    };
    let mut clock = 0.0f64;
    let (mut retired, mut write_side_reads) = (0usize, 0usize);
    for step in 0..6_000 {
        let op = next() % 8;
        if op < 4 {
            clock += (next() % 4) as f64 * 0.01;
            let a = next() % NODES;
            let b = (a + 1 + next() % (NODES - 1)) % NODES;
            let sim = 0.5 + (next() % 1000) as f64 / 2000.0;
            handle.add_edge(a, b, sim, clock);
            oracle.add_edge(a, b, sim, clock);
            continue;
        }
        let now = match next() % 3 {
            0 => clock - (next() % 100) as f64 * 0.01,
            1 => clock,
            _ => clock + (next() % 100) as f64 * 0.01,
        };
        // Deliveries never run behind the clock a read advanced.
        clock = clock.max(now);
        let node = next() % NODES;
        let generation = handle.snapshot().generation();
        let dirty = handle.is_dirty();
        let at = format!("step {step}, now {now}, node {node}");
        match op {
            4 | 5 => {
                if op == 4 {
                    assert_eq!(
                        pairs_of(&handle.neighbors(node, now)),
                        pairs_of(&oracle.neighbors(node, now)),
                        "neighbors, {at}"
                    );
                } else {
                    let k = 1 + (next() % 5) as usize;
                    assert_eq!(
                        pairs_of(&handle.topk(node, k, now)),
                        pairs_of(&oracle.topk(node, k, now)),
                        "topk {k}, {at}"
                    );
                }
                if dirty {
                    write_side_reads += 1;
                    assert_eq!(handle.snapshot().generation(), generation, "{at}");
                    assert!(handle.is_dirty(), "{at}");
                }
            }
            6 => assert_eq!(
                handle.component(node, now),
                oracle.component(node, now),
                "component, {at}"
            ),
            _ => assert_eq!(handle.stats(now), oracle.stats(now), "stats, {at}"),
        }
        let got = sorted(handle.take_expired());
        assert_eq!(got, sorted(oracle.take_expired()), "expired edges, {at}");
        retired += got.len();
    }
    assert!(
        write_side_reads > 100,
        "only {write_side_reads} dirty reads"
    );
    if collect {
        assert!(retired > 1_000, "only {retired} edges expired");
    } else {
        assert_eq!(retired, 0);
    }
}

#[test]
fn interleaved_reads_match_the_oracle_collecting_expired_edges() {
    for seed in [1, 7, 42] {
        interleaved_reads_match_the_oracle(seed, true);
    }
}

#[test]
fn interleaved_reads_match_the_oracle_without_collection() {
    for seed in [1, 7, 42] {
        interleaved_reads_match_the_oracle(seed, false);
    }
}
