//! The untraced run: every end-to-end metric of one workload.
//!
//! One rep, on fresh state: set-up → closed-loop drain (`ingest_rps`) →
//! open-loop phase with reads beside it (`ingest_p*`, `query_p*`) →
//! read burst (`query_qps`) → seal and measure the state directory
//! (`disk_bytes_per_record`) → crash a child mid-stream and reopen its
//! directory (`recover_s`). The reported value of every metric is the
//! median over reps, the first of which is a warm-up and does not count;
//! one short run is not a measurement on this box.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use sssj_types::{SimilarPair, StreamRecord};

use crate::pacer::{pace, since_ns, wait_until, Schedule, Wait};
use crate::stats::{median, percentile, PairDigest};
use crate::workloads::{
    open_local, open_remote, pin_current_thread, query_for, Answer, Awake, Cpu, Feed, QueryPlan,
    Reader, Sink, Workload,
};

/// Name and unit of every end-to-end metric, in print order. The same
/// set is measured on all four workloads.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_rps", "records/s"),
    ("ingest_p50_us", "us"),
    ("query_qps", "queries/s"),
    ("query_p50_us", "us"),
    ("recover_s", "s"),
    ("disk_bytes_per_record", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// The open-loop p99s: measured and printed by every run, but not
/// end-to-end metrics. Identical runs on this box could not hold them
/// inside a 20 % bound (see `bench/README.md`), so they were demoted to
/// unbounded `bench.*` rows rather than given a wider bound.
pub const DEMOTED: &[(&str, &str)] = &[("bench.ingest_p99_us", "us"), ("bench.query_p99_us", "us")];

/// Membership within this much of θ may go either way: the engine sums
/// in a different order than the oracle (same slack as `CheckedJoin`).
const BOUNDARY_SLACK: f64 = 1e-9;

pub struct RunOpts {
    pub seed: u64,
    /// Keep measuring reps until this many seconds have gone by…
    pub seconds: f64,
    /// …unless a fixed count is asked for. Never fewer than `MIN_REPS`
    /// when timed. The warm-up rep comes on top of either.
    pub reps: Option<usize>,
    pub scale: f64,
    pub state_root: PathBuf,
}

const MIN_REPS: usize = 3;
const MAX_REPS: usize = 15;

#[derive(Default)]
pub struct RunReport {
    /// Per-rep values of each metric (absent where a percentile lacked
    /// samples).
    pub reps: BTreeMap<&'static str, Vec<f64>>,
    /// p99 of how late the open-loop generator started operations, per
    /// rep — whether the schedule was kept.
    pub sched_lag_p99_us: Vec<f64>,
    /// Reps whose lag p99 exceeded half the inter-arrival period.
    pub late_generator: Vec<usize>,
    pub digest: PairDigest,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub verify_s: f64,
    pub peak_rss_mb: f64,
    /// Over the wire: whether the threads could be pinned (see `Cpu`).
    pub pinned: bool,
}

impl RunReport {
    /// Median over reps.
    pub fn value(&self, name: &str) -> Option<f64> {
        if name == "peak_rss_mb" {
            return Some(self.peak_rss_mb);
        }
        self.reps
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
    }

    fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        self.failures.push(what);
    }
}

struct RepOut {
    values: Vec<(&'static str, Option<f64>)>,
    lag_p99_us: f64,
    digest: PairDigest,
    /// First rep only: `(pairs checked, missing, unexpected, seconds)`.
    oracle: Option<(u64, u64, u64, f64)>,
    ops: u64,
    recovered_ok: bool,
}

pub fn run(w: &Workload, opts: &RunOpts) -> Result<RunReport, String> {
    let w = &w.scaled(opts.scale);
    let mut report = RunReport::default();
    if w.wire {
        report.pinned = pin_current_thread(Cpu::Serving);
    }
    let started = Instant::now();
    let mut rep = 0;
    loop {
        let rep_started = Instant::now();
        let dir = opts.state_root.join(format!("{}-rep{rep}", w.name));
        let out = one_rep(w, opts, &dir, rep == 0);
        // Best effort: a failed rep must not leave its state behind.
        discard_state(&dir);
        let out = out?;

        report.attempted += out.ops + 2;
        if !out.recovered_ok {
            report.fail(
                1,
                format!(
                    "rep {rep}: pre-crash ∪ recovered output differs from the uninterrupted run"
                ),
            );
        }
        if let Some((checked, missing, extra, secs)) = out.oracle {
            report.digest = out.digest;
            report.verify_s = secs;
            report.attempted += checked;
            if missing + extra > 0 {
                report.fail(
                    missing + extra,
                    format!("oracle: {missing} pairs missing, {extra} unexpected in the first {} records", w.oracle),
                );
            }
        } else if out.digest != report.digest {
            report.fail(
                1,
                format!(
                    "rep {rep}: pair-set digest {} differs from rep 0's {}",
                    out.digest.hex(),
                    report.digest.hex()
                ),
            );
        }
        // Rep 0 is the warm-up: it is checked like every other rep (and
        // carries the oracle check), but its timings are not kept. The
        // first rep of a process pays for the first touch of the heap,
        // the page cache and the binary, and read 10–30 % slower.
        if rep > 0 {
            for (name, value) in out.values {
                if let Some(v) = value {
                    report.reps.entry(name).or_default().push(v);
                }
            }
            report.sched_lag_p99_us.push(out.lag_p99_us);
            if out.lag_p99_us * 1e3 > 0.5e9 / w.rate {
                report.late_generator.push(rep - 1);
            }
        }

        rep += 1;
        let measured = rep - 1;
        let done = match opts.reps {
            Some(n) => measured >= n,
            None => {
                let next_ends = (started.elapsed() + rep_started.elapsed()).as_secs_f64();
                measured >= MAX_REPS || (measured >= MIN_REPS && next_ends > opts.seconds)
            }
        };
        if done {
            break;
        }
    }
    report.peak_rss_mb = crate::report::peak_rss_mb();
    Ok(report)
}

fn one_rep(w: &Workload, opts: &RunOpts, dir: &Path, first: bool) -> Result<RepOut, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let main_dir = dir.join("main");
    let mut sink = Sink::new(w.oracle.max(w.crash_at + w.crash_rest));

    // Set-up: everything before the first timed operation.
    let setup = Instant::now();
    let records = w.stream(opts.seed, w.total());
    let spec = w.spec(&main_dir);
    let mut out = Vec::new();
    let drain = &records[w.preload..w.preload + w.drain];
    let (ingest_rps, open, qps);
    let setup_s;
    if w.wire {
        if w.preload > 0 {
            let (mut join, _) = open_local(&spec)?;
            feed_all(&mut join, &records[..w.preload], &mut sink, &mut out)?;
            join.seal(&mut out)?;
            sink.absorb(&mut out);
        }
        let mut remote = open_remote(&spec)?;
        setup_s = setup.elapsed().as_secs_f64();

        ingest_rps = w.drain as f64 / feed_all(&mut remote.ingest, drain, &mut sink, &mut out)?;
        open = open_two_connections(
            w,
            &records,
            &mut remote.ingest,
            &mut remote.query,
            &mut sink,
        )?;
        qps = match w.queries {
            QueryPlan::Scheduled { burst, .. } => {
                query_burst(w, &records, &mut remote.query, burst)?
            }
            QueryPlan::ClosedLoop => open.closed_loop_qps,
        };
        remote.ingest.seal(&mut out)?;
        sink.absorb(&mut out);
        remote.close()?;
    } else {
        let (mut join, mut reader) = open_local(&spec)?;
        setup_s = setup.elapsed().as_secs_f64();

        ingest_rps = w.drain as f64 / feed_all(&mut join, drain, &mut sink, &mut out)?;
        open = open_one_thread(w, &records, &mut join, &mut reader, &mut sink)?;
        let QueryPlan::Scheduled { burst, .. } = w.queries else {
            return Err(format!(
                "{}: a closed-loop read mix needs a second connection",
                w.name
            ));
        };
        qps = query_burst(w, &records, &mut reader, burst)?;
        join.seal(&mut out)?;
        sink.absorb(&mut out);
    }
    let disk = dir_bytes(&main_dir) as f64 / w.total() as f64;
    let ops = w.total() as u64 + open.query_ns.len() as u64;

    let reference: HashSet<(u64, u64)> = sink
        .kept
        .iter()
        .copied()
        .filter(|&(_, b)| b < (w.crash_at + w.crash_rest) as u64)
        .collect();
    let (recover_s, recovered_ok) =
        crash_and_recover(w, opts, &records, &dir.join("crash"), &reference)?;
    let oracle = first.then(|| {
        let t = Instant::now();
        let (checked, missing, extra) = check_oracle(w, &records, &sink.kept);
        (checked, missing, extra, t.elapsed().as_secs_f64())
    });

    let mut ingest_ns = open.ingest_ns;
    let mut query_ns = open.query_ns;
    let mut lag_ns = open.lag_ns;
    ingest_ns.sort_unstable();
    query_ns.sort_unstable();
    lag_ns.sort_unstable();
    let us = |sorted: &[u64], p| percentile(sorted, p).map(|ns| ns as f64 / 1e3);
    Ok(RepOut {
        values: vec![
            ("setup_s", Some(setup_s)),
            ("ingest_rps", Some(ingest_rps)),
            ("ingest_p50_us", us(&ingest_ns, 0.5)),
            ("bench.ingest_p99_us", us(&ingest_ns, 0.99)),
            ("query_qps", Some(qps)),
            ("query_p50_us", us(&query_ns, 0.5)),
            ("bench.query_p99_us", us(&query_ns, 0.99)),
            ("recover_s", Some(recover_s)),
            ("disk_bytes_per_record", Some(disk)),
        ],
        // The guard is for reported percentiles; the lag is a health
        // check and falls back to the maximum on a short run.
        lag_p99_us: us(&lag_ns, 0.99)
            .or(lag_ns.last().map(|&ns| ns as f64 / 1e3))
            .unwrap_or(0.0),
        digest: sink.digest,
        oracle,
        ops,
        recovered_ok,
    })
}

/// Closed loop: the next record goes in the moment the previous one is
/// acknowledged. Returns the seconds taken.
fn feed_all(
    feed: &mut impl Feed,
    records: &[StreamRecord],
    sink: &mut Sink,
    out: &mut Vec<SimilarPair>,
) -> Result<f64, String> {
    let t = Instant::now();
    for r in records {
        feed.feed(r, out)?;
        sink.absorb(out);
    }
    Ok(t.elapsed().as_secs_f64())
}

#[derive(Default)]
struct OpenOut {
    ingest_ns: Vec<u64>,
    query_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    closed_loop_qps: f64,
}

/// In-process open loop: one thread does everything, so a read is
/// issued right after the ingest it follows and is charged from that
/// ingest's due instant.
fn open_one_thread(
    w: &Workload,
    records: &[StreamRecord],
    join: &mut impl Feed,
    reader: &mut Reader,
    sink: &mut Sink,
) -> Result<OpenOut, String> {
    let QueryPlan::Scheduled { every, .. } = w.queries else {
        unreachable!("checked by the caller");
    };
    let base = w.preload + w.drain;
    let mut o = OpenOut::default();
    let mut out = Vec::new();
    let schedule = Schedule::starting_now(w.rate);
    o.lag_ns = pace(&schedule, Wait::Spin, 0..w.open, |k, due| {
        join.feed(&records[base + k], &mut out)?;
        o.ingest_ns.push(since_ns(due, Instant::now()));
        sink.absorb(&mut out);
        if (k + 1) % every == 0 {
            reader.answer(query_for(w.mix, o.query_ns.len(), records, base + k))?;
            o.query_ns.push(since_ns(due, Instant::now()));
        }
        if let Some(next) = records.get(base + k + 1) {
            just_arrived(next);
        }
        Ok::<(), String>(())
    })?;
    Ok(o)
}

/// Reads a record's coordinates, as whatever received it from the
/// network would just have. Closed-loop, the prefetcher runs ahead
/// through the replay buffer; open-loop at a few per cent utilisation
/// every record would otherwise start with two or three misses to
/// main memory in the *harness's* 100 MB of input, a third of a 1.5 µs
/// p50 and the part of it that follows the neighbours' memory traffic.
fn just_arrived(r: &StreamRecord) {
    let dims: u64 = r.vector.dims().iter().map(|&d| u64::from(d)).sum();
    let weights: f64 = r.vector.weights().iter().sum();
    std::hint::black_box((dims, weights));
}

/// Over-the-wire open loop: the ingest connection keeps the schedule on
/// this thread; the query connection runs on a second one, either on
/// the same schedule (every `every`-th slot) or closed-loop.
fn open_two_connections(
    w: &Workload,
    records: &[StreamRecord],
    ingest: &mut impl Feed,
    query: &mut (impl Answer + Send),
    sink: &mut Sink,
) -> Result<OpenOut, String> {
    let base = w.preload + w.drain;
    let latest = AtomicUsize::new(base.saturating_sub(1));
    let stop = AtomicBool::new(false);
    // The schedule is fixed once both threads are where they belong.
    let (go, gone) = std::sync::mpsc::channel::<Schedule>();
    let mut o = OpenOut::default();
    let mut out = Vec::new();

    let (lag, reads) = std::thread::scope(|scope| {
        let query = &mut *query;
        let (latest, stop) = (&latest, &stop);
        let reader = scope.spawn(move || -> Result<(Vec<u64>, f64), String> {
            let schedule = gone.recv().map_err(|_| "ingest thread gave up")?;
            let mut query_ns = Vec::new();
            match w.queries {
                QueryPlan::Scheduled { every, .. } => {
                    let slots = (every - 1..w.open).step_by(every);
                    pace(&schedule, Wait::Yield, slots, |k, due| {
                        query.answer(query_for(w.mix, query_ns.len(), records, base + k))?;
                        query_ns.push(since_ns(due, Instant::now()));
                        Ok::<(), String>(())
                    })?;
                    Ok((query_ns, 0.0))
                }
                QueryPlan::ClosedLoop => {
                    wait_until(schedule.start, Wait::Yield);
                    while !stop.load(Ordering::Acquire) {
                        let at = latest.load(Ordering::Acquire);
                        let sent = Instant::now();
                        query.answer(query_for(w.mix, query_ns.len(), records, at))?;
                        query_ns.push(sent.elapsed().as_nanos() as u64);
                    }
                    let secs = schedule.start.elapsed().as_secs_f64();
                    let qps = query_ns.len() as f64 / secs;
                    Ok((query_ns, qps))
                }
            }
        });
        // A closed-loop reader stays with the server and the paced
        // trickle runs beside them. The reader inherited this thread's
        // CPU when it was spawned, so this thread moves only now.
        // A spinner of the idle class runs there whenever the trickle
        // sleeps or waits for a reply, so that vCPU never halts.
        let beside = w.queries == QueryPlan::ClosedLoop;
        let awake = beside.then(|| {
            pin_current_thread(Cpu::Beside);
            Awake::beside()
        });
        let wait = if beside { Wait::Nap } else { Wait::Yield };
        let schedule = Schedule::starting_now(w.rate);
        let lag = go
            .send(schedule)
            .map_err(|_| "query thread gave up".to_string())
            .and_then(|()| {
                pace(&schedule, wait, 0..w.open, |k, due| {
                    ingest.feed(&records[base + k], &mut out)?;
                    o.ingest_ns.push(since_ns(due, Instant::now()));
                    latest.store(base + k, Ordering::Release);
                    sink.absorb(&mut out);
                    Ok::<(), String>(())
                })
            });
        stop.store(true, Ordering::Release);
        if awake.is_some() {
            drop(awake);
            pin_current_thread(Cpu::Serving);
        }
        let reads = reader
            .join()
            .map_err(|_| "query thread panicked".to_string());
        (lag, reads)
    });
    o.lag_ns = lag?;
    (o.query_ns, o.closed_loop_qps) = reads??;
    Ok(o)
}

/// `n` back-to-back reads over the most recent records: queries/s.
fn query_burst(
    w: &Workload,
    records: &[StreamRecord],
    reader: &mut impl Answer,
    n: usize,
) -> Result<f64, String> {
    let newest = w.total() - 1;
    let t = Instant::now();
    let mut rows = 0;
    for i in 0..n {
        rows += reader.answer(query_for(w.mix, i, records, newest - i % newest.min(4096)))?;
    }
    std::hint::black_box(rows);
    Ok(n as f64 / t.elapsed().as_secs_f64())
}

/// Crash-and-recover. A child process (this executable, `crash-child`)
/// ingests the first `crash_at` records into `dir` and aborts without
/// `finish`, so whatever the program had not flushed is really lost.
/// The parent times reopening the directory through the spec until the
/// join has accepted the next record, feeds the rest, and checks that
/// pre-crash ∪ recovered output equals the uninterrupted run's.
fn crash_and_recover(
    w: &Workload,
    opts: &RunOpts,
    records: &[StreamRecord],
    dir: &Path,
    reference: &HashSet<(u64, u64)>,
) -> Result<(f64, bool), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("crash-child")
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--scale", &opts.scale.to_string()])
        .arg("--state-dir")
        .arg(dir)
        .status()
        .map_err(|e| format!("spawning the crash child: {e}"))?;
    if status.success() {
        return Err("the crash child exited cleanly instead of aborting".into());
    }
    let mut seen = read_pairs(&dir.join(PRE_CRASH_PAIRS))?;

    let spec = w.spec(dir);
    let end = w.crash_at + w.crash_rest;
    let mut out = Vec::new();
    let recover_s;
    if w.wire {
        // A wire producer learns where to resume by inspecting the store
        // (as `sssj recover` does); the timed part is the server coming
        // back up until it acknowledges the next record.
        let resume = resume_point(&spec)?;
        let t = Instant::now();
        let mut remote = open_remote(&spec)?;
        remote.ingest.feed(&records[resume], &mut out)?;
        recover_s = t.elapsed().as_secs_f64();
        for r in &records[resume + 1..end] {
            remote.ingest.feed(r, &mut out)?;
        }
        remote.ingest.seal(&mut out)?;
        remote.close()?;
    } else {
        let t = Instant::now();
        let (mut join, _) = open_local(&spec)?;
        let resume = join.resume_point().map_or(0, |(n, _)| n as usize);
        join.feed(&records[resume], &mut out)?;
        recover_s = t.elapsed().as_secs_f64();
        for r in &records[resume + 1..end] {
            join.feed(r, &mut out)?;
        }
        join.seal(&mut out)?;
    }
    seen.extend(
        out.iter()
            .map(|p| (p.left.min(p.right), p.left.max(p.right))),
    );
    Ok((recover_s, &seen == reference))
}

fn resume_point(spec: &str) -> Result<usize, String> {
    let (join, _) = open_local(spec)?;
    Ok(join.resume_point().map_or(0, |(n, _)| n as usize))
}

const PRE_CRASH_PAIRS: &str = "pre-crash.pairs";

/// The `crash-child` subcommand; never returns.
pub fn crash_child(w: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let records = w.stream(seed, w.total());
    let (mut join, _) = open_local(&w.spec(dir))?;
    let mut out = Vec::new();
    for r in &records[..w.crash_at] {
        join.feed(r, &mut out)?;
    }
    // The consumer's side of the crash: pairs already delivered.
    let mut bytes = Vec::with_capacity(out.len() * 16);
    for p in &out {
        bytes.extend_from_slice(&p.left.min(p.right).to_le_bytes());
        bytes.extend_from_slice(&p.left.max(p.right).to_le_bytes());
    }
    std::fs::write(dir.join(PRE_CRASH_PAIRS), bytes).map_err(|e| e.to_string())?;
    std::process::abort();
}

fn read_pairs(path: &Path) -> Result<HashSet<(u64, u64)>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    Ok(bytes
        .chunks_exact(16)
        .map(|c| (word(&c[..8]), word(&c[8..])))
        .collect())
}

/// Pairs among the first `w.oracle` records against the brute-force
/// join: `(pairs checked, missing, unexpected)`.
pub fn check_oracle(
    w: &Workload,
    records: &[StreamRecord],
    kept: &[(u64, u64)],
) -> (u64, u64, u64) {
    let (theta, lambda) = w.theta_lambda();
    let brute =
        sssj_baseline::brute_force_stream(&records[..w.oracle], theta - BOUNDARY_SLACK, lambda);
    let allowed: HashSet<(u64, u64)> = brute.iter().map(|p| p.key()).collect();
    let got: HashSet<(u64, u64)> = kept
        .iter()
        .copied()
        .filter(|&(_, b)| b < w.oracle as u64)
        .collect();
    let required = brute
        .iter()
        .filter(|p| p.similarity >= theta + BOUNDARY_SLACK);
    let (mut checked, mut missing) = (0, 0);
    for p in required {
        checked += 1;
        missing += u64::from(!got.contains(&p.key()));
    }
    let extra = got.difference(&allowed).count() as u64;
    (checked + got.len() as u64, missing, extra)
}

/// Deletes a state directory and waits for the filesystem to be done
/// with it. The root disk is ext4 mounted `discard`: a rep leaves dirty
/// metadata, a journal to checkpoint and TRIMs for what it unlinked,
/// and the kernel gets round to them up to five seconds later, in the
/// middle of whatever is being timed by then. Sixteen `stack-tweets`
/// reps in one process drained at 285–420 k records/s left to
/// themselves and at 405–439 k with the filesystem synced between reps
/// (and the workload run next read 20–40 % noisier). `sync
/// --file-system` does all of it now, between measurements; without
/// the command an fsync of the parent at least forces the commit.
pub fn discard_state(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let Some(parent) = dir.parent() else {
        return;
    };
    let synced = std::process::Command::new("sync")
        .arg("--file-system")
        .arg(parent)
        .status()
        .is_ok_and(|s| s.success());
    if !synced {
        let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn oracle_counts_missing_and_unexpected_pairs() {
        let w = find("stack-tweets").unwrap().scaled(0.01);
        let records = w.stream(42, w.total());
        let (theta, lambda) = w.theta_lambda();
        let truth: Vec<(u64, u64)> =
            sssj_baseline::brute_force_stream(&records[..w.oracle], theta, lambda)
                .iter()
                .map(|p| p.key())
                .collect();
        assert!(truth.len() > 2, "the prefix must contain pairs to check");
        let (checked, missing, extra) = check_oracle(&w, &records, &truth);
        assert_eq!((missing, extra), (0, 0));
        assert!(checked >= truth.len() as u64);

        // One pair withheld, one invented (two records that never met).
        let mut wrong = truth[1..].to_vec();
        let far = (0, w.oracle as u64 - 1);
        assert!(!truth.contains(&far));
        wrong.push(far);
        assert_eq!(check_oracle(&w, &records, &wrong).1, 1);
        assert_eq!(check_oracle(&w, &records, &wrong).2, 1);
        // Pairs beyond the checked prefix are none of the oracle's business.
        let mut beyond = truth.clone();
        beyond.push((1, w.oracle as u64 + 5));
        assert_eq!(check_oracle(&w, &records, &beyond), (checked, 0, 0));
    }

    #[test]
    fn pair_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("sssj-perf-pairs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(PRE_CRASH_PAIRS);
        let mut bytes = Vec::new();
        for (a, b) in [(1u64, 2u64), (3, 900_000_000_000)] {
            bytes.extend_from_slice(&a.to_le_bytes());
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        std::fs::write(&path, bytes).unwrap();
        let pairs = read_pairs(&path).unwrap();
        assert_eq!(pairs, HashSet::from([(1, 2), (3, 900_000_000_000)]));
        assert!(read_pairs(&dir.join("absent")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
