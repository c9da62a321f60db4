//! The four pinned workloads and what connects the harness to the
//! program: spec strings, the in-process handles and the wire client.
//!
//! Why these four: `engine-dense` is the one workload where the join
//! engine (kernels, collections, index, core) does nearly all the work;
//! `stack-tweets` puts the same engine under the full wrapper chain on a
//! stream so sparse that WAL, graph and archive dominate; `serve-ingest`
//! and `serve-query` put that stack behind the loopback server and use
//! it the two ways round — write-heavy and read-heavy. An optimisation
//! to any one layer has a workload that exercises it and one that
//! bypasses it.

use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sssj_core::{JoinSpec, StreamJoin, WrapperSpec};
use sssj_data::{generate, preset, Preset};
use sssj_graph::GraphHandle;
use sssj_net::{JoinClient, Server, ServerOptions, SessionDefaults};
use sssj_segments::HistoryHandle;
use sssj_types::{SimilarPair, StreamRecord};

use crate::stats::PairDigest;

/// `k` of every top-k query.
pub const QUERY_K: usize = 8;

/// One kind of read. `TopkAt(f)` asks for the neighbours a record had
/// when it arrived, for the record `f` of the way through what has been
/// ingested so far: deep, mid and near history as `f` grows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ask {
    Topk,
    Neighbors,
    TopkAt(f64),
}

/// How reads are issued beside the open-loop ingest phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryPlan {
    /// One query after every `every`-th ingest, due at that ingest's
    /// instant; afterwards `burst` back-to-back queries give `query_qps`.
    Scheduled { every: usize, burst: usize },
    /// The query connection runs closed-loop for the whole phase (the
    /// read-heavy mix); `query_qps` is its rate.
    ClosedLoop,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub preset: Preset,
    /// Engine and parameters; the wrappers are appended per state dir.
    pub engine: &'static str,
    /// Whether the spec carries `history=` (the segment archive).
    pub history: bool,
    /// Through a loopback `Server` instead of in-process.
    pub wire: bool,
    /// Records ingested (in-process, then sealed) before the server
    /// starts: set-up, so the archive is deep when reads begin.
    pub preload: usize,
    /// Closed-loop drain: `ingest_rps`.
    pub drain: usize,
    /// Open-loop phase: `open` records at `rate` per second.
    pub rate: f64,
    pub open: usize,
    pub queries: QueryPlan,
    pub mix: &'static [Ask],
    /// Crash-and-recover: a child ingests `crash_at` records and aborts;
    /// the parent reopens and feeds `crash_rest` more.
    pub crash_at: usize,
    pub crash_rest: usize,
    /// Prefix checked against the brute-force oracle.
    pub oracle: usize,
    /// Prefix the traced ladder pushes through every rung.
    pub ladder: usize,
}

const LIVE_AND_HISTORY: &[Ask] = &[
    Ask::Topk,
    Ask::TopkAt(0.25),
    Ask::TopkAt(0.5),
    Ask::TopkAt(0.75),
];

const TWEETS: &str = "str-l2?theta=0.5&tau=10";

/// Checkpoints are cut every 16 384 records; crashing 13 088 records
/// past one leaves recovery a fixed WAL tail to replay.
const fn after_checkpoints(k: usize) -> usize {
    k * 16_384 + 13_088
}

pub fn catalogue() -> Vec<Workload> {
    vec![
        Workload {
            name: "engine-dense",
            why: "Dense stream, ~5000 index entries per record: kernels, collections, index and core do the work",
            preset: Preset::Dense,
            engine: "str-l2?theta=0.5&lambda=0.001",
            history: false,
            wire: false,
            preload: 0,
            drain: 12_000,
            rate: 3_000.0,
            open: 6_000,
            queries: QueryPlan::Scheduled {
                every: 4,
                burst: 1_000_000,
            },
            mix: &[Ask::Topk, Ask::Neighbors],
            crash_at: 6_000,
            crash_rest: 2_000,
            oracle: 4_000,
            ladder: 4_000,
        },
        Workload {
            name: "stack-tweets",
            why: "Sparse Tweets stream through durable+graph+history in-process: store, graph and segments do the work",
            preset: Preset::Tweets,
            engine: TWEETS,
            history: true,
            wire: false,
            preload: 0,
            drain: 300_000,
            rate: 50_000.0,
            open: 100_000,
            queries: QueryPlan::Scheduled {
                every: 16,
                burst: 1_000_000,
            },
            mix: LIVE_AND_HISTORY,
            crash_at: after_checkpoints(9),
            crash_rest: 40_000,
            oracle: 10_000,
            ladder: 40_000,
        },
        Workload {
            name: "serve-ingest",
            why: "Same stack behind the loopback server, write-heavy: parse, dispatch, framing and wake-ups do the work",
            preset: Preset::Tweets,
            engine: TWEETS,
            history: true,
            wire: true,
            preload: 0,
            drain: 24_000,
            rate: 5_000.0,
            open: 10_000,
            queries: QueryPlan::Scheduled {
                every: 8,
                burst: 10_000,
            },
            mix: &[Ask::Topk],
            crash_at: after_checkpoints(1),
            crash_rest: 2_000,
            oracle: 10_000,
            ladder: 40_000,
        },
        Workload {
            name: "serve-query",
            why: "Same server read-heavy over a deep archive: snapshot publication, snapshot reads and segment reads beside a trickle of writes",
            preset: Preset::Tweets,
            engine: TWEETS,
            history: true,
            wire: true,
            preload: 150_000,
            drain: 16_000,
            rate: 2_000.0,
            open: 5_000,
            queries: QueryPlan::ClosedLoop,
            // 50 % live top-k, 20 % neighbours, 30 % time travel.
            mix: &[
                Ask::Topk,
                Ask::TopkAt(0.1),
                Ask::Topk,
                Ask::Neighbors,
                Ask::Topk,
                Ask::TopkAt(0.5),
                Ask::Topk,
                Ask::Neighbors,
                Ask::Topk,
                Ask::TopkAt(0.9),
            ],
            crash_at: after_checkpoints(9),
            crash_rest: 2_000,
            oracle: 10_000,
            ladder: 40_000,
        },
    ]
}

pub fn find(name: &str) -> Result<Workload, String> {
    catalogue()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let names: Vec<_> = catalogue().iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (one of {})", names.join(", "))
        })
}

impl Workload {
    /// The same workload with every record count multiplied by `scale`
    /// (rates and specs are never scaled). `--scale 0.01` is the smoke
    /// test; numbers taken below scale 1 are not comparable.
    pub fn scaled(&self, scale: f64) -> Workload {
        let s = |n: usize| {
            if n == 0 {
                0
            } else {
                ((n as f64 * scale) as usize).max(48)
            }
        };
        // Rounding must not push the checked prefixes past the stream.
        let total = s(self.preload) + s(self.drain) + s(self.open);
        let crash_rest = s(self.crash_rest).min(total / 4);
        Workload {
            preload: s(self.preload),
            drain: s(self.drain),
            open: s(self.open),
            queries: match self.queries {
                QueryPlan::Scheduled { every, burst } => QueryPlan::Scheduled {
                    every,
                    burst: s(burst),
                },
                QueryPlan::ClosedLoop => QueryPlan::ClosedLoop,
            },
            crash_at: s(self.crash_at).min(total - crash_rest),
            crash_rest,
            oracle: s(self.oracle).min(total),
            ladder: s(self.ladder),
            ..self.clone()
        }
    }

    /// Records one rep ingests (and so the length of the stream).
    pub fn total(&self) -> usize {
        self.preload + self.drain + self.open
    }

    /// `n` records of this workload's preset. (The generator's output
    /// for a given seed depends on `n`, so a shorter stream is not a
    /// prefix of a longer one: everyone who must see the same records
    /// asks for the same `n`.)
    pub fn stream(&self, seed: u64, n: usize) -> Vec<StreamRecord> {
        let records = generate(&preset(self.preset, n).with_seed(seed));
        // Over the wire the server numbers records by arrival; the pair
        // sets only line up because the generator does the same.
        assert!(records.iter().enumerate().all(|(i, r)| r.id == i as u64));
        records
    }

    /// The full spec with its state rooted at `dir`.
    pub fn spec(&self, dir: &Path) -> String {
        let mut spec = format!(
            "{}&durable={}&graph",
            self.engine,
            dir.join("wal").display()
        );
        if self.history {
            spec.push_str(&format!("&history={}", dir.join("hist").display()));
        }
        spec
    }

    /// θ and λ of the engine, for the oracle.
    pub fn theta_lambda(&self) -> (f64, f64) {
        let spec = JoinSpec::from_str(self.engine).expect("catalogue specs parse");
        (spec.theta, spec.lambda)
    }
}

/// A resolved read: what to ask, about which record, as of when.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub ask: Ask,
    pub node: u64,
    pub t: f64,
}

/// The `n`-th query of the mix, given that record `latest` is the
/// newest one sent.
pub fn query_for(mix: &[Ask], n: usize, records: &[StreamRecord], latest: usize) -> Query {
    let ask = mix[n % mix.len()];
    let about = match ask {
        Ask::TopkAt(frac) => (latest as f64 * frac) as usize,
        Ask::Topk | Ask::Neighbors => latest,
    };
    let r = &records[about];
    Query {
        ask,
        node: r.id,
        t: r.t.seconds(),
    }
}

/// Something that accepts records and hands back the pairs each one
/// completed: a join in this process, or a client connection.
pub trait Feed {
    fn feed(&mut self, r: &StreamRecord, out: &mut Vec<SimilarPair>) -> Result<(), String>;
    fn seal(&mut self, out: &mut Vec<SimilarPair>) -> Result<(), String>;
}

/// Something that answers reads; returns the number of rows.
pub trait Answer {
    fn answer(&mut self, q: Query) -> Result<usize, String>;
}

impl Feed for Box<dyn StreamJoin> {
    fn feed(&mut self, r: &StreamRecord, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        self.process(r, out);
        Ok(())
    }

    fn seal(&mut self, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        self.finish(out);
        Ok(())
    }
}

impl Feed for JoinClient {
    fn feed(&mut self, r: &StreamRecord, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        out.extend(self.send_record(r).map_err(|e| format!("ingest: {e}"))?);
        Ok(())
    }

    fn seal(&mut self, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        out.extend(self.finish().map_err(|e| format!("finish: {e}"))?);
        Ok(())
    }
}

impl Answer for JoinClient {
    fn answer(&mut self, q: Query) -> Result<usize, String> {
        let rows = match q.ask {
            Ask::Topk => self.query_topk(q.node, QUERY_K as u32),
            Ask::Neighbors => self.query_neighbors(q.node),
            Ask::TopkAt(_) => self.query_topk_at(q.node, QUERY_K as u32, Some(q.t)),
        };
        rows.map(|r| r.len()).map_err(|e| format!("query: {e}"))
    }
}

/// The in-process read side: the handles a spec build hands back.
pub struct Reader {
    pub graph: GraphHandle,
    pub history: Option<HistoryHandle>,
    pub horizon: f64,
}

impl Answer for Reader {
    fn answer(&mut self, q: Query) -> Result<usize, String> {
        Ok(match q.ask {
            Ask::Topk => self.graph.topk(q.node, QUERY_K, q.t).len(),
            Ask::Neighbors => self.graph.neighbors(q.node, q.t).len(),
            Ask::TopkAt(_) => self
                .history
                .as_ref()
                .ok_or("time-travel query against a spec without history=")?
                .topk_at(Some(&self.graph), q.node, QUERY_K, q.t, self.horizon)
                .len(),
        })
    }
}

/// Builds (or reopens) a pipeline in this process through the spec
/// string — the same entry points the net session uses.
pub fn open_local(spec: &str) -> Result<(Box<dyn StreamJoin>, Reader), String> {
    let parsed = JoinSpec::from_str(spec).map_err(|e| format!("spec {spec}: {e}"))?;
    let horizon = parsed.horizon();
    let archived = parsed
        .wrappers
        .iter()
        .any(|w| matches!(w, WrapperSpec::History(_)));
    let (join, graph, history) = if archived {
        let (join, graph, history) =
            sssj_segments::build_with_handles(&parsed).map_err(|e| format!("build {spec}: {e}"))?;
        (join, graph, Some(history))
    } else {
        sssj_store::register_spec_builder();
        let (join, graph) =
            sssj_graph::build_with_handle(&parsed).map_err(|e| format!("build {spec}: {e}"))?;
        (join, Some(graph), None)
    };
    let graph = graph.ok_or("spec without the graph wrapper")?;
    Ok((
        join,
        Reader {
            graph,
            history,
            horizon,
        },
    ))
}

/// A loopback server on the spec (one shared pipeline, the default
/// event-loop engine) with one ingest and one query connection: at most
/// `nproc` load-generating threads on this box. Its threads inherit the
/// caller's CPU affinity (see [`Cpu`]).
pub struct Remote {
    pub ingest: JoinClient,
    pub query: JoinClient,
    server: Server,
}

pub fn open_remote(spec: &str) -> Result<Remote, String> {
    let parsed = JoinSpec::from_str(spec).map_err(|e| format!("spec {spec}: {e}"))?;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions {
            defaults: SessionDefaults {
                spec: parsed,
                ..Default::default()
            },
            shared: true,
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let connect =
        || JoinClient::connect(server.local_addr()).map_err(|e| format!("refused connection: {e}"));
    Ok(Remote {
        ingest: connect()?,
        query: connect()?,
        server,
    })
}

/// Where the threads of an over-the-wire workload run.
///
/// This box is a 2-vCPU guest whose idle vCPUs halt: a wake-up across
/// vCPUs is an IPI plus a VM exit, 20–40 µs whose length follows the
/// *host's* load, not the program's. Left to itself the scheduler
/// sometimes stacked client and event loop on one vCPU (15 µs round
/// trips) and sometimes spread them (50 µs), and identical reps differed
/// 3×; pinned apart, the same run read 50 µs in one hour and 85 µs in
/// the next. So the server and whichever connection talks to it
/// closed-loop share [`Cpu::Serving`] — a request is then two context
/// switches, no IPI — and only traffic that must run *beside* them (the
/// paced trickle of `serve-query`) goes to [`Cpu::Beside`]. Threads
/// inherit the affinity of the thread that spawns them, so whatever
/// `Server::bind` starts, now or in a later PR, lands on `Serving` too.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cpu {
    Serving,
    Beside,
    /// Undo the pinning.
    Any,
}

/// CPUs of this machine, read once before any pinning narrows what
/// `available_parallelism` reports.
pub fn nproc() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pins the calling thread with `taskset` on its thread id, so the
/// harness needs no `unsafe` syscall. Returns whether it took effect: a
/// box with one CPU or without `taskset` runs unpinned and says so in
/// its result file.
pub fn pin_current_thread(cpu: Cpu) -> bool {
    let n = nproc();
    if n < 2 {
        return false;
    }
    let cpus = match cpu {
        Cpu::Serving => "0".to_string(),
        Cpu::Beside => "1".to_string(),
        Cpu::Any => format!("0-{}", n - 1),
    };
    let Some(tid) = current_tid() else {
        return false;
    };
    std::process::Command::new("taskset")
        .args(["-pc", &cpus, &tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Keeps [`Cpu::Beside`] from halting while the paced trickle waits for
/// a reply there. A halted vCPU is woken by an IPI that costs a VM exit
/// and a pass through the *host's* scheduler, so the trickle's round
/// trip read 54 µs on a quiet host and 60–85 µs on a busy one; a thread
/// of the `SCHED_IDLE` class spinning on that CPU loses it to the
/// trickle the moment the reply arrives and keeps the vCPU running
/// meanwhile (39 µs). Without `chrt`, or on one CPU, nothing is started.
pub struct Awake {
    stop: Arc<AtomicBool>,
    spinner: Option<std::thread::JoinHandle<()>>,
}

impl Awake {
    pub fn beside() -> Awake {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = stop.clone();
        let (ready, is_ready) = std::sync::mpsc::channel();
        let spinner = std::thread::spawn(move || {
            let spin = pin_current_thread(Cpu::Beside) && idle_class_current_thread();
            let _ = ready.send(());
            while spin && !seen.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        // The two helper processes have run before anything is timed.
        let _ = is_ready.recv();
        Awake {
            stop,
            spinner: Some(spinner),
        }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
    }
}

fn current_tid() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_str()?.to_string())
}

/// Moves the calling thread to the `SCHED_IDLE` class (`chrt`, for the
/// same reason `taskset` does the pinning: no `unsafe` syscall).
fn idle_class_current_thread() -> bool {
    let Some(tid) = current_tid() else {
        return false;
    };
    std::process::Command::new("chrt")
        .args(["--idle", "--pid", "0", &tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

impl Remote {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Closes both connections and stops the server, joining its
    /// threads, so the state directory is quiescent afterwards.
    pub fn close(self) -> Result<(), String> {
        self.ingest.quit().map_err(|e| format!("quit: {e}"))?;
        self.query.quit().map_err(|e| format!("quit: {e}"))?;
        self.server.shutdown();
        Ok(())
    }
}

/// Where every emitted pair goes: into the order-independent digest,
/// and — for pairs among the first `keep_below` records — into a list
/// the oracle and the crash check compare as sets.
pub struct Sink {
    pub digest: PairDigest,
    pub keep_below: u64,
    pub kept: Vec<(u64, u64)>,
}

impl Sink {
    pub fn new(keep_below: usize) -> Sink {
        Sink {
            digest: PairDigest::default(),
            keep_below: keep_below as u64,
            kept: Vec::new(),
        }
    }

    pub fn absorb(&mut self, out: &mut Vec<SimilarPair>) {
        for p in out.drain(..) {
            self.digest.add(p.left, p.right);
            let (a, b) = (p.left.min(p.right), p.left.max(p.right));
            if b < self.keep_below {
                self.kept.push((a, b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_consistent() {
        let all = catalogue();
        assert_eq!(
            all.iter().map(|w| w.name).collect::<Vec<_>>(),
            [
                "engine-dense",
                "stack-tweets",
                "serve-ingest",
                "serve-query"
            ]
        );
        for w in &all {
            assert!(JoinSpec::from_str(w.engine).is_ok(), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            // The crash check compares against the uninterrupted run, so
            // that run must cover the crashed prefix; same for the oracle
            // and the ladder.
            assert!(w.crash_at + w.crash_rest <= w.total(), "{}", w.name);
            assert!(w.oracle <= w.total(), "{}", w.name);
            // A p99 needs ≥ 1000 samples per rep (ten beyond it).
            assert!(w.open >= 1_000, "{}", w.name);
            match w.queries {
                QueryPlan::Scheduled { every, burst } => {
                    assert!(w.open / every >= 1_000 && burst >= 1_000, "{}", w.name)
                }
                QueryPlan::ClosedLoop => assert!(w.wire, "{}", w.name),
            }
            assert_eq!(w.preload > 0, w.name == "serve-query");
            // Time travel needs the archive.
            assert!(
                w.history || w.mix.iter().all(|a| !matches!(a, Ask::TopkAt(_))),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn scaling_keeps_rates_and_specs() {
        let w = find("stack-tweets").unwrap();
        let s = w.scaled(0.01);
        assert_eq!(s.drain, 3_000);
        assert_eq!(s.rate, w.rate);
        assert_eq!(s.engine, w.engine);
        assert_eq!(find("engine-dense").unwrap().scaled(0.001).drain, 48);
        assert_eq!(s.preload, 0);
        assert!(find("nope").is_err());
        for w in catalogue() {
            for scale in [0.001, 0.01, 0.3] {
                let s = w.scaled(scale);
                assert!(
                    s.crash_at + s.crash_rest <= s.total(),
                    "{} × {scale}",
                    w.name
                );
                assert!(
                    s.oracle <= s.total() && s.crash_at > 0,
                    "{} × {scale}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn time_travel_queries_ask_about_a_record_alive_then() {
        let w = find("serve-query").unwrap().scaled(0.01);
        let records = w.stream(42, w.total());
        let q = query_for(w.mix, 1, &records, 1_000);
        assert_eq!(q.ask, Ask::TopkAt(0.1));
        assert_eq!(q.node, 100);
        assert_eq!(q.t, records[100].t.seconds());
        let live = query_for(w.mix, 10, &records, 1_000);
        assert_eq!((live.ask, live.node), (Ask::Topk, 1_000));
    }
}
