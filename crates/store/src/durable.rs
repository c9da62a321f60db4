//! [`DurableJoin`]: the WAL + checkpoint wrapper around any
//! [`Checkpointable`] engine, and the crash-recovery path.
//!
//! # Write path
//!
//! Every record is appended to the WAL **before** it reaches the engine
//! (a crash mid-process replays it), every emitted pair is recorded in
//! the bounded `recent` set with its emission stamp, and every
//! `checkpoint_every` records a checkpoint is published: quiesce the
//! engine (drain in-flight pairs — the sharded driver's batch-boundary
//! barrier), sync the WAL, capture aux state, write the checkpoint file,
//! atomically flip `MANIFEST`, garbage-collect WAL segments behind the
//! horizon.
//!
//! # Recovery
//!
//! Load the newest valid checkpoint (or none), rebuild the engine from
//! the stored spec, seed its aux state, then replay the retained WAL —
//! self-truncated at the first torn frame — through the engine. Replay
//! output is filtered against the checkpoint's emitted-pair set; what
//! survives is the **tail**: pairs completed after the checkpoint whose
//! delivery the crash may have swallowed. They are re-emitted (handed
//! back by [`recover`], or surfaced on the first
//! [`StreamJoin::process`] call when resuming through the spec
//! factory).
//!
//! # Why the union is exactly the uninterrupted run
//!
//! Let `E_pre` be the pairs the crashed process emitted and `E_rec` the
//! recovered process's output (replay tail + live continuation). For
//! any pair `P` of the uninterrupted run: if `P ∈ E_pre` the union has
//! it; otherwise `P` is not in the suppression set (the set only holds
//! emitted pairs), and since engines are *set-deterministic* — the pair
//! set is a function of the record set, independent of window phase,
//! shard routing or batch timing — replay + continuation regenerates
//! `P` and emits it. Conversely recovery never invents pairs: replay
//! runs the same engines over the same records. The suppression set
//! counts each `(left, right)` key once per delivery, because a vector
//! id that arrives twice pairs once per arrival under the same key.
//! Duplicates are possible only for pairs emitted between the last
//! checkpoint and the crash — the standard at-least-once tail — and
//! *within* one process each pair of arrivals is emitted at most once.
//! This is exactly what `tests/crash_recovery.rs` asserts, mid-frame
//! truncation included.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};

use sssj_core::{Checkpointable, JoinSpec, StreamJoin};
use sssj_metrics::registry::{Recorder, Registry};
use sssj_metrics::JoinStats;
use sssj_types::{SimilarPair, StreamRecord};

use crate::checkpoint::{self, Checkpoint};
use crate::wal::{DeleteSink, GcSink, Wal};
use crate::StoreError;

/// Duration of a full checkpoint (quiesce + sync + publish + GC) — the
/// ingest-path stall an automatic cadence checkpoint introduces.
fn checkpoint_seconds() -> &'static Recorder {
    static M: std::sync::OnceLock<&'static Recorder> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        Registry::global().recorder(
            "sssj_store_checkpoint_seconds",
            "wall-clock duration of checkpoint publication",
        )
    })
}

/// The store's exclusive session lock: a `LOCK` file holding the owning
/// pid, created with `O_EXCL` so two live sessions can never share one
/// store directory (the PR-4 open item — concurrent WAL appends and
/// manifest flips from two processes would corrupt the store in ways
/// the spec-mismatch check cannot see).
///
/// Staleness is detected by pid: a `LOCK` whose recorded process is no
/// longer alive (crashed incarnation, `kill -9`) is reclaimed
/// automatically, so crash recovery never needs manual cleanup. The
/// guard removes the file on drop — including every error path of
/// [`DurableJoin::open`] — which is the clean-shutdown release.
struct LockFile {
    path: PathBuf,
}

impl LockFile {
    fn acquire(dir: &Path) -> Result<LockFile, StoreError> {
        let path = dir.join("LOCK");
        // The lock must appear atomically *with its pid content* — a
        // create-then-write would leave a window where a concurrent
        // opener reads an empty file, calls it garbage and reclaims a
        // live lock. So the pid is written to a per-process temp file
        // first and hard-linked into place: link(2) fails with
        // `AlreadyExists` if the lock exists, and a successful link
        // publishes the fully-written content in one step.
        let tmp = dir.join(format!("LOCK.{}", std::process::id()));
        fs::write(&tmp, format!("{}", std::process::id()))?;
        // Two attempts: the second runs only after removing a stale
        // lock, and losing that race to another process is a genuine
        // `Locked` condition, not something to spin on.
        let mut result = Err(StoreError::Locked { pid: 0 });
        for _ in 0..2 {
            match fs::hard_link(&tmp, &path) {
                Ok(()) => {
                    result = Ok(LockFile { path });
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if Self::alive(pid) => {
                            result = Err(StoreError::Locked { pid });
                            break;
                        }
                        // Dead holder (or a pre-atomic-format leftover):
                        // reclaim and retry the link. The reclaim is an
                        // atomic rename-away — two concurrent reclaimers
                        // cannot both win it, so neither can delete a
                        // lock the other just legitimately acquired; the
                        // loser's rename fails and its retried link
                        // re-examines the fresh state.
                        _ => {
                            let stale = dir.join(format!("LOCK.stale.{}", std::process::id()));
                            if fs::rename(&path, &stale).is_ok() {
                                let _ = fs::remove_file(&stale);
                            }
                        }
                    }
                }
                Err(e) => {
                    result = Err(e.into());
                    break;
                }
            }
        }
        let _ = fs::remove_file(&tmp);
        result
    }

    /// Whether `pid` names a live process. Procfs on Linux; elsewhere a
    /// lock is conservatively treated as held (never silently stolen).
    fn alive(pid: u32) -> bool {
        if cfg!(target_os = "linux") {
            Path::new(&format!("/proc/{pid}")).exists()
        } else {
            true
        }
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Tuning for a [`DurableJoin`].
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// Records per WAL segment (the GC granule).
    pub segment_records: u64,
    /// Records between automatic checkpoints.
    pub checkpoint_every: u64,
    /// Flush every append to the OS. Off by default — batched appends
    /// cost ~nothing and a torn tail is re-ingested by the resuming
    /// producer anyway; on for interactive services that must not lose
    /// acknowledged records to a process kill.
    pub sync_appends: bool,
    /// `fsync(2)` the WAL and both checkpoint files at every checkpoint.
    /// Off by default: a flush to the OS already survives **any process
    /// crash** (`kill -9` included — the page cache belongs to the
    /// kernel), which is the failure model the recovery tests exercise;
    /// an fsync on every checkpoint buys **machine-crash** durability at
    /// ~3 journal commits (typically milliseconds) per checkpoint —
    /// far outside the 15 % `store.us_per_record` budget by default.
    pub fsync: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            segment_records: 4096,
            checkpoint_every: 16384,
            sync_appends: false,
            fsync: false,
        }
    }
}

/// A [`StreamJoin`] whose state survives crashes: segmented WAL of the
/// ingested stream + periodic checkpoints + atomic manifest. Built
/// through the spec factory (`…&durable=<dir>`) or [`DurableJoin::open`];
/// recovered with [`recover`] or simply by opening the same directory
/// again.
pub struct DurableJoin {
    engine: Box<dyn Checkpointable>,
    /// Canonical text of the inner spec (durable wrapper stripped).
    spec_text: String,
    dir: PathBuf,
    wal: Wal,
    opts: DurableOptions,
    horizon: f64,
    /// Records ingested (== WAL next_seq).
    seq: u64,
    last_t: f64,
    since_ckpt: u64,
    /// Recently emitted pairs with emission stamps — the candidate
    /// suppression set of the *next* checkpoint. Pruned against the
    /// oldest retained WAL record: older pairs can never be regenerated.
    recent: VecDeque<(u64, u64, f64)>,
    /// Pairs a *previous* incarnation already emitted (loaded from the
    /// checkpoint at recovery), each with how many times: a vector id
    /// that arrived twice pairs once per arrival, under the same key.
    /// Each matching engine output is dropped and uses up one count, so
    /// replay suppresses exactly as many copies as were delivered. Empty
    /// for fresh stores; cleared wholesale once the stream passes
    /// `suppress_deadline`.
    suppress: HashMap<(u64, u64), u32>,
    /// Stream time after which nothing can regenerate a suppressed pair
    /// (recovered watermark + engine replay horizon): every suppressed
    /// pair's later member predates the watermark, and a record beyond
    /// the horizon cannot contribute output. Keeps the hot-path
    /// suppression branch dead outside the post-recovery window.
    suppress_deadline: f64,
    /// Replay-tail pairs awaiting re-emission (drained by the first
    /// `process`/`finish` call, or taken by [`recover`]).
    stash: Vec<SimilarPair>,
    /// File name of the live checkpoint (unlinked when superseded).
    ckpt_name: Option<String>,
    /// Records appended + pairs emitted since the last publish — a
    /// checkpoint with nothing new to say is skipped.
    dirty: bool,
    /// Set when this join resumed from existing state.
    resumed: bool,
    finished: bool,
    scratch: Vec<SimilarPair>,
    /// Where horizon GC sends retired WAL segments (default: delete).
    gc_sink: Box<dyn GcSink>,
    /// Exclusive session lock; released (file removed) on drop.
    _lock: LockFile,
}

impl DurableJoin {
    /// Opens (or resumes) a durable join rooted at `dir`.
    ///
    /// `spec` is the *inner* pipeline — engine and parameters, no
    /// wrappers (the spec factory strips `durable=` before calling
    /// this). When `dir` already holds state, the stored spec must match
    /// and the join resumes: the replay tail is stashed and surfaces on
    /// the first `process`/`finish` call.
    pub fn open(
        spec: &JoinSpec,
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<DurableJoin, StoreError> {
        if !spec.wrappers.is_empty() && spec.wrappers != [sssj_core::WrapperSpec::Graph] {
            return Err(StoreError::Corrupt(
                "DurableJoin::open requires a wrapper-free inner spec (or exactly \
                 the graph wrapper, whose edges ride the checkpoint)"
                    .into(),
            ));
        }
        let mut engine = spec.build_checkpointable().map_err(StoreError::Spec)?;
        let horizon = engine.replay_horizon();
        let spec_text = spec.to_string();
        fs::create_dir_all(dir)?;
        let lock = LockFile::acquire(dir)?;

        let spec_path = dir.join("SPEC");
        if spec_path.exists() {
            let stored = fs::read_to_string(&spec_path)?;
            if stored.trim() != spec_text {
                return Err(StoreError::SpecMismatch {
                    stored: stored.trim().to_string(),
                    requested: spec_text,
                });
            }
        } else {
            let tmp = dir.join("SPEC.tmp");
            fs::write(&tmp, &spec_text)?;
            fs::rename(&tmp, &spec_path)?;
        }

        if !checkpoint::has_state(dir) {
            let wal = Wal::create(dir, opts.segment_records, opts.sync_appends)?;
            return Ok(DurableJoin {
                engine,
                spec_text,
                dir: dir.to_path_buf(),
                wal,
                opts,
                horizon,
                seq: 0,
                last_t: f64::NEG_INFINITY,
                since_ckpt: 0,
                recent: VecDeque::new(),
                suppress: HashMap::new(),
                suppress_deadline: f64::NEG_INFINITY,
                stash: Vec::new(),
                ckpt_name: None,
                dirty: false,
                resumed: false,
                finished: false,
                scratch: Vec::new(),
                gc_sink: Box::new(DeleteSink),
                _lock: lock,
            });
        }

        // ---- Resume path -------------------------------------------
        let ckpt = checkpoint::load_latest(dir)?;
        if let Some(c) = &ckpt {
            // Clear leftovers of crashed incarnations once, here — the
            // steady-state publish path never scans the directory.
            checkpoint::prune_superseded(dir, &checkpoint::file_name(c.seq));
        }
        let mut recent: VecDeque<(u64, u64, f64)> = VecDeque::new();
        let mut suppress: HashMap<(u64, u64), u32> = HashMap::new();
        if let Some(c) = &ckpt {
            if c.spec != spec_text {
                return Err(StoreError::SpecMismatch {
                    stored: c.spec.clone(),
                    requested: spec_text,
                });
            }
            engine
                .read_aux(&c.aux)
                .map_err(|e| StoreError::Corrupt(format!("checkpoint aux: {e}")))?;
            for &(l, r, t) in &c.emitted {
                recent.push_back((l, r, t));
                *suppress.entry((l, r)).or_insert(0) += 1;
            }
        }
        let scan = Wal::open_existing(dir, opts.segment_records, opts.sync_appends)?;
        let mut join = DurableJoin {
            engine,
            spec_text,
            dir: dir.to_path_buf(),
            seq: scan.wal.next_seq(),
            last_t: scan
                .wal
                .last_t()
                .max(ckpt.as_ref().map_or(f64::NEG_INFINITY, |c| c.last_t)),
            wal: scan.wal,
            opts,
            horizon,
            since_ckpt: 0,
            recent,
            suppress,
            suppress_deadline: f64::NEG_INFINITY, // set after replay below
            stash: Vec::new(),
            ckpt_name: ckpt.as_ref().map(|c| checkpoint::file_name(c.seq)),
            dirty: true,
            resumed: true,
            finished: false,
            scratch: Vec::new(),
            gc_sink: Box::new(DeleteSink),
            _lock: lock,
        };
        join.since_ckpt = join.seq.saturating_sub(ckpt.as_ref().map_or(0, |c| c.seq));
        // Replay with suppression: pairs already delivered before the
        // checkpoint are dropped; the rest is the re-emission tail.
        debug_assert!(join.scratch.is_empty());
        let mut replayed = std::mem::take(&mut join.scratch);
        for record in &scan.records {
            join.engine.process(record, &mut replayed);
            join.classify(&mut replayed, record.t.seconds(), true);
        }
        join.engine.quiesce(&mut replayed);
        join.classify(&mut replayed, join.last_t, true);
        join.scratch = replayed;
        // Replay stamps interleave with the checkpoint's — restore the
        // stamp order the pruning front-pop relies on.
        join.recent
            .make_contiguous()
            .sort_by(|a, b| a.2.partial_cmp(&b.2).expect("stamps are never NaN"));
        join.suppress_deadline = join.last_t + join.horizon;
        Ok(join)
    }

    /// Routes freshly generated pairs: drops the ones a previous
    /// incarnation already emitted, records the rest in `recent` (with
    /// `stamp`) and appends them to the stash (`to_stash`) or hands them
    /// back in place.
    fn classify(&mut self, pairs: &mut Vec<SimilarPair>, stamp: f64, to_stash: bool) {
        if !pairs.is_empty() {
            // A pair emission is checkpoint-worthy on its own (e.g. a
            // MiniBatch window flush in finish(), with no record
            // appended since the last publish).
            self.dirty = true;
        }
        if to_stash {
            // Replay tail: survivors wait in the stash. They enter
            // `recent` only when actually handed over (stash drain /
            // `take_recovered_pairs`) — recording them here would let a
            // checkpoint claim them as delivered while no caller has
            // seen them.
            for p in pairs.drain(..) {
                if take_suppressed(&mut self.suppress, &p) {
                    continue;
                }
                self.stash.push(p);
            }
        } else {
            pairs.retain(|p| {
                if take_suppressed(&mut self.suppress, p) {
                    return false;
                }
                self.recent.push_back((p.left, p.right, stamp));
                true
            });
        }
    }

    /// Hands the replay tail to the caller via `out`, recording the
    /// pairs in `recent` now that they are on their way out. The stamp
    /// is the recovered watermark — at or above the pairs' original
    /// emission times, so retention is conservative and `recent` stays
    /// stamp-ordered.
    fn drain_stash(&mut self, out: &mut Vec<SimilarPair>) {
        if self.stash.is_empty() {
            return;
        }
        self.dirty = true;
        for p in &self.stash {
            self.recent.push_back((p.left, p.right, self.last_t));
        }
        out.append(&mut self.stash);
    }

    /// Drops `recent` entries whose members are gone from the WAL —
    /// replay can never regenerate them, so the next checkpoint need not
    /// suppress them.
    fn prune_recent(&mut self) {
        let Some(floor) = self.wal.oldest_t() else {
            return;
        };
        while let Some(&(_, _, t)) = self.recent.front() {
            if t < floor {
                self.recent.pop_front();
            } else {
                break;
            }
        }
    }

    /// Takes a checkpoint now, **acknowledging all output**: quiesces
    /// the engine (drained pairs are appended to `out`), syncs the WAL,
    /// publishes the checkpoint + manifest, and garbage-collects WAL
    /// segments behind the horizon.
    ///
    /// Every pair recorded so far — including the ones this very call
    /// appends to `out` — enters the suppression set, i.e. calling this
    /// asserts the caller will deliver `out` (and already delivered all
    /// earlier output). The *automatic* cadence checkpoint makes no such
    /// assumption: it runs at the top of [`StreamJoin::process`] and
    /// publishes only pairs handed back by completed calls, so a crash
    /// between an automatic publish and the caller draining `out` can
    /// never suppress an undelivered pair.
    pub fn checkpoint(&mut self, out: &mut Vec<SimilarPair>) -> Result<(), StoreError> {
        self.drain_stash(out);
        self.checkpoint_inner(out, true)
    }

    /// Shared checkpoint body. `ack_current` controls whether pairs
    /// surfaced by this call's own quiesce enter the published
    /// suppression set (explicit checkpoint / finish) or stay pending
    /// for the next one (automatic cadence — see [`DurableJoin::checkpoint`]).
    fn checkpoint_inner(
        &mut self,
        out: &mut Vec<SimilarPair>,
        ack_current: bool,
    ) -> Result<(), StoreError> {
        let started = std::time::Instant::now();
        let _span = sssj_metrics::trace::span(sssj_metrics::trace::Stage::Checkpoint);
        // Prune first: it pops from the front of `recent`, so the cut
        // below stays a valid prefix length afterwards.
        self.prune_recent();
        let cut = self.recent.len();
        let mut drained = std::mem::take(&mut self.scratch);
        drained.clear();
        self.engine.quiesce(&mut drained);
        self.classify(&mut drained, self.last_t, false);
        out.append(&mut drained);
        self.scratch = drained;
        let mut aux = Vec::new();
        self.engine.write_aux(&mut aux);
        let publish_len = if ack_current { self.recent.len() } else { cut };
        let res = self.publish(aux, publish_len);
        checkpoint_seconds().record_duration(started.elapsed());
        res
    }

    /// The write-and-GC half of a checkpoint (aux already captured).
    /// Publishes the first `publish_len` entries of `recent` as the
    /// suppression set — the pairs whose delivery this checkpoint
    /// asserts.
    fn publish(&mut self, aux: Vec<u8>, publish_len: usize) -> Result<(), StoreError> {
        if !self.dirty {
            // Nothing new since the last publish (e.g. finish right
            // after a cadence checkpoint with no buffered output): skip
            // the metadata traffic.
            self.since_ckpt = 0;
            return Ok(());
        }
        self.wal.sync(self.opts.fsync)?;
        // Sinks flush their buffered state *before* the checkpoint is
        // published: anything the sink has buffered (the compactor's
        // expired-edge queue) was live in the previous checkpoint's aux,
        // so ordering the flush first means a crash between the two
        // leaves the state recoverable from one side or the other.
        self.gc_sink.before_publish(self.last_t)?;
        let c = Checkpoint {
            spec: self.spec_text.clone(),
            seq: self.seq,
            last_t: self.last_t,
            aux,
            emitted: self.recent.iter().take(publish_len).copied().collect(),
        };
        let name = checkpoint::publish(&self.dir, &c, self.opts.fsync)?;
        // Unlink the superseded checkpoint directly — no directory scan
        // on the ingest path (open-time pruning handles leftovers).
        if let Some(old) = self.ckpt_name.take() {
            if old != name {
                let _ = fs::remove_file(self.dir.join(old));
            }
        }
        self.ckpt_name = Some(name);
        self.wal
            .gc(self.last_t - self.horizon, self.seq, self.gc_sink.as_mut())?;
        self.since_ckpt = 0;
        // Pairs recorded but deliberately left out of the published set
        // (this call's own quiesce output) keep the store dirty so the
        // next checkpoint covers them.
        self.dirty = publish_len < self.recent.len();
        Ok(())
    }

    /// Whether this join resumed from existing on-disk state.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Total records ever ingested into this store (WAL position).
    pub fn records_ingested(&self) -> u64 {
        self.seq
    }

    /// Timestamp of the newest ingested record.
    pub fn last_timestamp(&self) -> f64 {
        self.last_t
    }

    /// The replay tail: pairs completed before the crash whose delivery
    /// recovery cannot prove, re-emitted for at-least-once output. If
    /// not taken, they surface on the first `process`/`finish` call.
    pub fn take_recovered_pairs(&mut self) -> Vec<SimilarPair> {
        let mut drained = Vec::new();
        self.drain_stash(&mut drained);
        drained
    }

    /// Retained WAL segments (diagnostics).
    pub fn wal_segments(&self) -> usize {
        self.wal.segments()
    }

    /// WAL segments deleted by horizon GC so far (diagnostics).
    pub fn wal_segments_collected(&self) -> u64 {
        self.wal.gc_deleted()
    }

    /// The canonical inner spec this store runs.
    pub fn spec_text(&self) -> &str {
        &self.spec_text
    }

    /// Replaces the horizon-GC sink (default: [`DeleteSink`]). The
    /// historical tier installs its compactor here, right after open —
    /// before the first checkpoint can retire anything.
    pub fn set_gc_sink(&mut self, sink: Box<dyn GcSink>) {
        self.gc_sink = sink;
    }

    /// The engine's replay horizon τ — how far back a record can still
    /// pair, which is also the boundary between the live window and the
    /// historical tier.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }
}

impl StreamJoin for DurableJoin {
    /// Appends the record to the WAL, runs the engine, filters and
    /// records output, and checkpoints every
    /// [`DurableOptions::checkpoint_every`] records.
    ///
    /// The cadence checkpoint fires at the **top** of the call, before
    /// the new record is touched: every pair it publishes as delivered
    /// was handed back by a *completed* `process` call, so a crash
    /// landing between the publish and the caller draining this call's
    /// `out` can never suppress an undelivered pair.
    ///
    /// # Panics
    ///
    /// On I/O failure of the WAL or checkpoint, and on a
    /// backwards-in-time record (the engines require non-decreasing
    /// timestamps; logging one would poison the WAL) — a durability
    /// layer that silently drops its log would be worse than a crash.
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        assert!(!self.finished, "process called after finish");
        // The cadence checkpoint runs before anything of this call
        // reaches `out` — its cut covers completed calls only. The
        // replay tail is not in `recent` yet (see `classify`), so it is
        // excluded too; it drains right after, to be claimed by the
        // *next* checkpoint.
        if self.since_ckpt >= self.opts.checkpoint_every {
            self.checkpoint_inner(out, false)
                .unwrap_or_else(|e| panic!("checkpoint in {}: {e}", self.dir.display()));
        }
        self.drain_stash(out);
        self.wal
            .append(record)
            .unwrap_or_else(|e| panic!("WAL append in {}: {e}", self.dir.display()));
        self.seq += 1;
        self.dirty = true;
        self.last_t = record.t.seconds();
        // Hot path: the engine writes straight into `out`; only the new
        // tail is inspected. The suppression branch goes dead shortly
        // after recovery: once the stream passes the recovered watermark
        // plus the engine's replay horizon, no suppressed pair's later
        // member can still sit in engine buffers, so the set is cleared.
        let out_start = out.len();
        self.engine.process(record, out);
        if !self.suppress.is_empty() {
            if self.last_t > self.suppress_deadline {
                self.suppress = HashMap::new();
            } else {
                let mut keep = out_start;
                for i in out_start..out.len() {
                    if !take_suppressed(&mut self.suppress, &out[i]) {
                        out.swap(keep, i);
                        keep += 1;
                    }
                }
                out.truncate(keep);
            }
        }
        for p in &out[out_start..] {
            self.recent.push_back((p.left, p.right, self.last_t));
        }
        self.since_ckpt += 1;
    }

    /// Flushes the engine, then publishes a final checkpoint so a
    /// cleanly finished store resumes without any replay tail. Invoking
    /// `finish` is the caller's acknowledgement that all prior output
    /// was delivered and this call's `out` will be: the final
    /// suppression set includes the flush's own pairs.
    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        if self.finished {
            return;
        }
        self.drain_stash(out);
        self.prune_recent();
        let mut fresh = std::mem::take(&mut self.scratch);
        fresh.clear();
        self.engine.quiesce(&mut fresh);
        self.classify(&mut fresh, self.last_t, false);
        out.append(&mut fresh);
        // Aux must be captured while the engine is live (the sharded
        // driver's workers shut down in finish).
        let mut aux = Vec::new();
        self.engine.write_aux(&mut aux);
        self.engine.finish(&mut fresh);
        self.classify(&mut fresh, self.last_t, false);
        out.append(&mut fresh);
        self.scratch = fresh;
        let publish_len = self.recent.len();
        self.publish(aux, publish_len)
            .unwrap_or_else(|e| panic!("final checkpoint in {}: {e}", self.dir.display()));
        self.finished = true;
    }

    fn stats(&self) -> JoinStats {
        self.engine.stats()
    }

    fn live_postings(&self) -> u64 {
        self.engine.live_postings()
    }

    fn name(&self) -> String {
        format!("{}+wal", self.engine.name())
    }

    /// `(records ingested, newest timestamp)` when this join resumed
    /// from existing state; lets sessions continue id assignment and the
    /// monotonic-timestamp watermark across the crash.
    fn resume_point(&self) -> Option<(u64, f64)> {
        self.resumed.then_some((self.seq, self.last_t))
    }
}

/// Whether `p` is a delivered pair still owed suppression; if so, uses
/// up one of its counts.
fn take_suppressed(suppress: &mut HashMap<(u64, u64), u32>, p: &SimilarPair) -> bool {
    let Entry::Occupied(mut n) = suppress.entry((p.left, p.right)) else {
        return false;
    };
    *n.get_mut() -= 1;
    if *n.get() == 0 {
        n.remove();
    }
    true
}

/// The result of [`recover`].
pub struct Recovered {
    /// The resumed join, ready to continue the stream.
    pub join: DurableJoin,
    /// The replay tail (see [`DurableJoin::take_recovered_pairs`]),
    /// already taken out of the join.
    pub replayed: Vec<SimilarPair>,
    /// Records the store had ingested — a producer replaying the same
    /// stream should skip this many records.
    pub ingested: u64,
}

/// Recovers the durable join rooted at `dir`: reads the stored `SPEC`,
/// loads the newest checkpoint, replays the WAL tail with output
/// suppressed up to the checkpointed state, and returns the join ready
/// to continue plus the re-emission tail.
///
/// The sharded constructor must be registered first when the stored spec
/// is `sharded?…` (`sssj_parallel::register_spec_builder`), and the LSH
/// and graph ones when it names those layers.
pub fn recover(dir: &Path) -> Result<Recovered, StoreError> {
    let spec_text = fs::read_to_string(dir.join("SPEC")).map_err(|e| {
        StoreError::Corrupt(format!(
            "{}: no SPEC file ({e}); is this a durable store?",
            dir.display()
        ))
    })?;
    let spec: JoinSpec = spec_text.trim().parse().map_err(StoreError::Spec)?;
    let mut join = DurableJoin::open(&spec, dir, DurableOptions::default())?;
    let replayed = join.take_recovered_pairs();
    let ingested = join.records_ingested();
    Ok(Recovered {
        join,
        replayed,
        ingested,
    })
}
