//! The segmented, append-only write-ahead log of the record stream.
//!
//! # Frame format
//!
//! One frame per record, fixed header then payload (all little-endian):
//!
//! ```text
//! len      u32          payload length in bytes
//! crc      u32          CRC-32C of the payload
//! payload:
//!   id     u64
//!   t      f64          raw bits (timestamps are load-bearing)
//!   nnz    u32
//!   dims   u32 × nnz    strictly increasing
//!   ws     f64 × nnz    raw weights
//! ```
//!
//! The payload is deliberately **fixed-width** (unlike the checkpoint
//! body's delta+varint coding): the append sits on the per-record hot
//! path, on a 15 % overhead budget (`store.us_per_record`), and
//! fixed-width fields encode as bulk copies — no per-byte varint loops
//! — while the horizon GC keeps total disk usage bounded by the live
//! window anyway, so the ~25 % size saving varints would buy is not
//! worth the cycles.
//!
//! # Reading: one walker, one read per segment
//!
//! Every reader goes through the same slice-based walker,
//! [`walk_frames`]: a segment file is read whole (one pass of
//! `read(2)`, not two calls per frame) and the walker steps through
//! the bytes. It accepts a frame only if the header is complete, `len`
//! is sane and inside the bytes, the CRC matches and the payload passes
//! the same untrusted-input validation as the checkpoint aux reader
//! (dimensions strictly increasing and ≤ [`MAX_SNAPSHOT_DIM`], weights
//! finite in `(0, 1]`, timestamps finite and non-decreasing across the
//! log) — all without allocating; a [`Frame`] materialises its record
//! only when asked. The first frame failing any check ends the walk
//! with a [`FrameError`] naming its byte offset and the reason. What
//! that means is the caller's business:
//!
//! * **Recovery** ([`Wal::open_existing`]) treats it as a torn tail:
//!   the log is truncated at that offset — the end of the last good
//!   frame — and every later segment is deleted, which is exactly the
//!   contract crash recovery needs: a `kill -9` mid-write loses at most
//!   the torn frame, never the prefix. Each cut is counted
//!   (`sssj_store_wal_torn_tails_total`, `…_torn_bytes_total`) and
//!   leaves a `wal.torn_tail` trace instant.
//! * **Strict readers** — [`read_segment_records`], [`decode_frames`]
//!   and the compactor's [`SealedSegment::read`] — hold sealed or
//!   published bytes, where a bad frame is corruption, not a crash
//!   tail: they refuse the whole input and pass the offset and reason
//!   on.
//!
//! # Segments
//!
//! Frames are grouped into segment files `wal/seg-<first_seq:016x>.wal`,
//! each opening with a 16-byte header (`b"SSSJWAL1"` + the absolute
//! sequence number of its first record). A new segment starts every
//! [`DurableOptions::segment_records`](crate::DurableOptions) records.
//! Sequence numbers are absolute stream positions, so
//! [`Wal::next_seq`] equals the total number of records ever ingested
//! even after old segments are garbage-collected.
//!
//! # Horizon-aware GC
//!
//! A segment whose **newest** record is older than `now − horizon` can
//! never pair again (the engines' own forgetting horizon), and once a
//! checkpoint covers its last record the aux state it contributed is
//! persisted too — [`Wal::gc`] deletes exactly the sealed segments
//! satisfying both conditions, oldest first.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use sssj_core::MAX_SNAPSHOT_DIM;
use sssj_metrics::registry::{Counter, Registry};
use sssj_types::{SparseVectorBuilder, StreamRecord, Timestamp};

/// Registry handles for the WAL hot paths, resolved once per process.
struct WalMetrics {
    appends: &'static Counter,
    bytes: &'static Counter,
    fsyncs: &'static Counter,
    gc_batches: &'static Counter,
    gc_segments: &'static Counter,
    torn_tails: &'static Counter,
    torn_bytes: &'static Counter,
}

fn wal_metrics() -> &'static WalMetrics {
    static M: OnceLock<WalMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = Registry::global();
        WalMetrics {
            appends: reg.counter(
                "sssj_store_wal_appends_total",
                "records appended to the WAL",
            ),
            bytes: reg.counter("sssj_store_wal_bytes_total", "WAL frame bytes encoded"),
            fsyncs: reg.counter(
                "sssj_store_wal_fsyncs_total",
                "fsyncs forced by checkpoints",
            ),
            gc_batches: reg.counter(
                "sssj_store_gc_batches_total",
                "horizon-GC sweeps that retired segments",
            ),
            gc_segments: reg.counter(
                "sssj_store_gc_segments_total",
                "WAL segments retired by horizon GC",
            ),
            torn_tails: reg.counter(
                "sssj_store_wal_torn_tails_total",
                "recoveries that cut a torn or corrupt WAL tail",
            ),
            torn_bytes: reg.counter(
                "sssj_store_wal_torn_bytes_total",
                "WAL bytes dropped by torn-tail cuts (later segments included)",
            ),
        }
    })
}

use crate::crc::crc32c;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SSSJWAL1";
const SEGMENT_HEADER_LEN: usize = 16;
/// Sanity cap on one frame's payload; a record beyond this is treated as
/// corruption (the bound implies ≤ ~5M coordinates, far above
/// [`MAX_SNAPSHOT_DIM`]-constrained realistic vectors).
const MAX_FRAME_LEN: u32 = 64 << 20;
/// Frames accumulate in an in-process buffer and go to the file in one
/// write(2) when it fills — the per-record file cost is one amortized
/// syscall per 256 KiB, not a `BufWriter` copy plus a call per frame.
const WRITE_BUFFER: usize = 1 << 18;

/// Metadata of one segment file — the log's own bookkeeping, and what
/// the horizon GC hands a [`GcSink`] when the segment is sealed, older
/// than the forgetting horizon *and* fully covered by a published
/// checkpoint, so the live join will never read it again.
#[derive(Clone, Debug)]
pub struct RetiredSegment {
    /// The segment file (still present when the sink runs).
    pub path: PathBuf,
    /// Absolute sequence number of the segment's first record.
    pub first_seq: u64,
    /// Records in the segment.
    pub records: u64,
    /// Timestamp of the oldest record (`+∞` while empty).
    pub first_t: f64,
    /// Timestamp of the newest record (`−∞` while empty).
    pub newest_t: f64,
}

/// Every retained segment, retirable yet or not, is tracked as one.
type Segment = RetiredSegment;

/// Where retired WAL segments go. The GC hands each retirable segment
/// to the sink *instead of* deleting it inline, which is the attachment
/// point for the historical tier's compactor (`sssj-segments`) and for
/// retention policies (archive to cold storage, sample, …).
///
/// Contract: when `retire` returns `Ok`, the sink has taken full
/// responsibility for the segment — including removing the file once
/// (and only once) its contents are safe elsewhere. On `Err` the GC
/// stops immediately and the segment stays accounted in the log, so a
/// failed hand-off never loses records; the same segment is offered
/// again at the next GC cycle.
pub trait GcSink: Send {
    /// Takes ownership of one retirable segment (oldest first).
    fn retire(&mut self, segment: &RetiredSegment) -> io::Result<()>;

    /// Runs right before every checkpoint publish, after the WAL sync.
    /// Sinks that buffer state derived from the live join (the
    /// compactor's expired-edge queue) must make it durable here: a
    /// crash after the checkpoint would otherwise strand state that the
    /// checkpoint no longer carries. The default does nothing.
    fn before_publish(&mut self, _watermark: f64) -> io::Result<()> {
        Ok(())
    }
}

/// The default sink: deletes retired segments, exactly as the GC did
/// before sinks existed.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeleteSink;

impl GcSink for DeleteSink {
    fn retire(&mut self, segment: &RetiredSegment) -> io::Result<()> {
        fs::remove_file(&segment.path)
    }
}

/// The write half of the log plus the metadata of every retained
/// segment. Construct with [`Wal::create`] (fresh directory) or
/// [`Wal::open_existing`] (recovery: replays and self-repairs the log).
pub struct Wal {
    wal_dir: PathBuf,
    file: File,
    /// Encoded frames not yet written to `file` (see [`WRITE_BUFFER`]).
    buf: Vec<u8>,
    cur: Segment,
    sealed: Vec<Segment>,
    next_seq: u64,
    last_t: f64,
    segment_records: u64,
    sync_appends: bool,
    /// Segments deleted by GC over this handle's lifetime.
    gc_deleted: u64,
}

fn segment_path(wal_dir: &Path, first_seq: u64) -> PathBuf {
    wal_dir.join(format!("seg-{first_seq:016x}.wal"))
}

fn open_segment(wal_dir: &Path, first_seq: u64) -> io::Result<(File, Segment)> {
    let path = segment_path(wal_dir, first_seq);
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)?;
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[..8].copy_from_slice(SEGMENT_MAGIC);
    header[8..].copy_from_slice(&first_seq.to_le_bytes());
    file.write_all(&header)?;
    Ok((
        file,
        Segment {
            first_seq,
            records: 0,
            first_t: f64::INFINITY,
            newest_t: f64::NEG_INFINITY,
            path,
        },
    ))
}

/// Appends the raw little-endian bytes of a numeric slice to `buf` in
/// one memcpy. On little-endian targets (every platform this workspace
/// ships on) the in-memory layout *is* the wire layout, so the encode
/// loop disappears; big-endian targets fall back to the per-element
/// path.
#[inline]
fn extend_le_bytes<T: Copy>(buf: &mut Vec<u8>, values: &[T], write_one: impl Fn(&mut Vec<u8>, &T)) {
    #[cfg(target_endian = "little")]
    {
        let _ = &write_one;
        // SAFETY: any initialized numeric slice is readable as bytes
        // (u8 has no validity or alignment requirements), and on a
        // little-endian target the byte order matches the wire format.
        let bytes = unsafe {
            std::slice::from_raw_parts(values.as_ptr() as *const u8, std::mem::size_of_val(values))
        };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    {
        for v in values {
            write_one(buf, v);
        }
    }
}

/// Appends one record's frame to `buf`. This is the per-record hot
/// path (the `store.wal_append_ns` probe): every field is fixed-width
/// and the dimension/weight columns go in as two bulk memcpys.
fn encode_frame(record: &StreamRecord, buf: &mut Vec<u8>) {
    let v = &record.vector;
    let nnz = v.nnz();
    let payload_len = 8 + 8 + 4 + 12 * nnz;
    let start = buf.len();
    buf.reserve(8 + payload_len);
    // One extend for the fixed-width head (frame header + scalar
    // fields): five capacity checks fold into one.
    let mut head = [0u8; 28];
    head[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    // head[4..8] = crc, patched below.
    head[8..16].copy_from_slice(&record.id.to_le_bytes());
    head[16..24].copy_from_slice(&record.t.seconds().to_le_bytes());
    head[24..28].copy_from_slice(&(nnz as u32).to_le_bytes());
    buf.extend_from_slice(&head);
    extend_le_bytes(buf, v.dims(), |b, d| b.extend_from_slice(&d.to_le_bytes()));
    extend_le_bytes(buf, v.weights(), |b, x| {
        b.extend_from_slice(&x.to_le_bytes())
    });
    let crc = crc32c(&buf[start + 8..]);
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Validates one frame payload without allocating and returns its
/// `(id, t)`. `last_t` enforces the cross-frame timestamp monotonicity
/// the engines rely on; the `nnz` count is cross-checked against the
/// payload length before the coordinate columns are sliced by it.
fn validate_payload(payload: &[u8], last_t: f64) -> Result<(u64, f64), String> {
    if payload.len() < 20 {
        return Err(format!("payload too short ({} bytes)", payload.len()));
    }
    let id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let t = f64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    if !t.is_finite() || t < last_t {
        return Err(format!("bad timestamp {t} (watermark {last_t})"));
    }
    let nnz = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes")) as usize;
    if nnz as u64 > MAX_SNAPSHOT_DIM as u64 {
        return Err(format!("absurd nnz {nnz}"));
    }
    if payload.len() != 20 + 12 * nnz {
        return Err(format!(
            "payload length {} does not match nnz {nnz}",
            payload.len()
        ));
    }
    let (dims, weights) = payload[20..].split_at(4 * nnz);
    let mut prev: Option<u32> = None;
    for db in dims.chunks_exact(4) {
        let d = u32::from_le_bytes(db.try_into().expect("4 bytes"));
        if d > MAX_SNAPSHOT_DIM {
            return Err(format!("dimension {d} too large"));
        }
        if prev.is_some_and(|p| d <= p) {
            return Err("dims not increasing".into());
        }
        prev = Some(d);
    }
    for wb in weights.chunks_exact(8) {
        let x = f64::from_le_bytes(wb.try_into().expect("8 bytes"));
        if !x.is_finite() || x <= 0.0 || x > 1.0 + 1e-9 {
            return Err(format!("bad weight {x}"));
        }
    }
    Ok((id, t))
}

/// A refused frame: where it starts in the walked bytes — which is
/// also the length of the longest valid prefix — and why.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameError {
    /// Byte offset of the refused frame's header.
    pub offset: usize,
    /// Short header, absurd length, overrun, CRC mismatch or bad payload.
    pub reason: String,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame at byte {}: {}", self.offset, self.reason)
    }
}

/// One frame [`walk_frames`] accepted: header, CRC and payload
/// structure all checked, nothing allocated.
#[derive(Clone, Copy, Debug)]
pub struct Frame<'a> {
    payload: &'a [u8],
    /// The record's id.
    pub id: u64,
    /// The record's timestamp.
    pub t: f64,
}

impl Frame<'_> {
    /// Materialises the record.
    pub fn record(&self) -> StreamRecord {
        let nnz = (self.payload.len() - 20) / 12;
        let (dims, weights) = self.payload[20..].split_at(4 * nnz);
        let mut b = SparseVectorBuilder::with_capacity(nnz);
        for (db, wb) in dims.chunks_exact(4).zip(weights.chunks_exact(8)) {
            b.push(
                u32::from_le_bytes(db.try_into().expect("4 bytes")),
                f64::from_le_bytes(wb.try_into().expect("8 bytes")),
            );
        }
        let vector = b.build().expect("validated: finite positive weights");
        StreamRecord::new(self.id, Timestamp::new(self.t), vector)
    }
}

/// The one frame walker: steps through the concatenated frames in
/// `bytes[start..]`, strictly, handing each valid [`Frame`] to `each`.
/// `Ok` only when the bytes end exactly at a frame boundary; the first
/// torn or corrupt frame ends the walk with a [`FrameError`]. Offsets
/// count from the start of `bytes` (pass a whole segment file and its
/// header length to get file offsets). `last_t` seeds the timestamp
/// monotonicity check, `f64::NEG_INFINITY` to accept any start.
pub fn walk_frames<'a>(
    bytes: &'a [u8],
    start: usize,
    mut last_t: f64,
    mut each: impl FnMut(Frame<'a>),
) -> Result<(), FrameError> {
    let mut pos = start;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let refuse = |reason: String| FrameError {
            offset: pos,
            reason,
        };
        if rest.len() < 8 {
            let trailing = rest.len();
            return Err(refuse(format!("short header ({trailing} trailing bytes)")));
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(refuse(format!("absurd frame length {len}")));
        }
        // Length check before any slicing sized from the header.
        let remaining = rest.len() - 8;
        if remaining < len as usize {
            return Err(refuse(format!(
                "frame length {len} overruns the remaining {remaining} bytes"
            )));
        }
        let payload = &rest[8..8 + len as usize];
        if crc32c(payload) != crc {
            return Err(refuse("CRC mismatch".into()));
        }
        let (id, t) = validate_payload(payload, last_t)
            .map_err(|why| refuse(format!("bad payload: {why}")))?;
        (pos, last_t) = (pos + 8 + len as usize, t);
        each(Frame { payload, id, t });
    }
    Ok(())
}

/// The outcome of scanning an existing log.
pub struct WalScan {
    /// The surviving write handle, positioned to append.
    pub wal: Wal,
    /// Every record replayable from the retained segments, in order.
    /// Absolute sequence numbers are `wal.next_seq() - records.len()`
    /// onwards.
    pub records: Vec<StreamRecord>,
    /// Whether corruption was found (and the log truncated at the last
    /// good frame).
    pub truncated: bool,
}

impl Wal {
    /// Creates a fresh log under `dir/wal`.
    pub fn create(dir: &Path, segment_records: u64, sync_appends: bool) -> io::Result<Wal> {
        let wal_dir = dir.join("wal");
        fs::create_dir_all(&wal_dir)?;
        let (file, cur) = open_segment(&wal_dir, 0)?;
        Ok(Wal {
            wal_dir,
            file,
            buf: Vec::with_capacity(2 * WRITE_BUFFER),
            cur,
            sealed: Vec::new(),
            next_seq: 0,
            last_t: f64::NEG_INFINITY,
            segment_records: segment_records.max(1),
            sync_appends,
            gc_deleted: 0,
        })
    }

    /// Opens an existing log under `dir/wal`: reads every segment in
    /// sequence order, stops at the first corruption, truncates the log
    /// there (deleting any later segments), and returns the surviving
    /// records together with a write handle positioned at the end.
    pub fn open_existing(
        dir: &Path,
        segment_records: u64,
        sync_appends: bool,
    ) -> io::Result<WalScan> {
        let wal_dir = dir.join("wal");
        fs::create_dir_all(&wal_dir)?;
        let mut paths: Vec<PathBuf> = fs::read_dir(&wal_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".wal"))
            })
            .collect();
        paths.sort(); // hex-padded names sort by first_seq

        let mut records = Vec::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut truncated = false;
        let mut last_t = f64::NEG_INFINITY;
        for (i, path) in paths.iter().enumerate() {
            let expected_seq = segments.last().map(|s: &Segment| s.first_seq + s.records);
            // A segment that cannot be read, has a bad header, or leaves
            // a gap or overlap in the sequence space is unusable whole.
            let loaded = load_segment(path)
                .ok()
                .filter(|(first_seq, _)| expected_seq.is_none_or(|e| e == *first_seq));
            // How much of this file survives: all of it (`None`), a
            // good prefix, or nothing (0 — the file is dropped).
            let (first_seq, keep) = match loaded {
                Some((first_seq, file)) => {
                    let (seg, torn) = walk_segment(path, first_seq, &file, last_t, |frame| {
                        records.push(frame.record())
                    });
                    if seg.records > 0 {
                        last_t = seg.newest_t;
                    }
                    segments.push(seg);
                    (first_seq, torn.map(|e| e.offset as u64))
                }
                None => (expected_seq.unwrap_or(0), Some(0)),
            };
            let Some(good_len) = keep else { continue };
            // Torn or corrupt: cut the log at the last good frame and
            // drop every later segment.
            truncated = true;
            let len_of = |p: &PathBuf| fs::metadata(p).map_or(0, |m| m.len());
            let mut cut_bytes = len_of(path).saturating_sub(good_len);
            if good_len == 0 {
                fs::remove_file(path)?;
            } else {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(good_len)?;
                f.sync_all()?;
            }
            for later in &paths[i + 1..] {
                cut_bytes += len_of(later);
                fs::remove_file(later)?;
            }
            let m = wal_metrics();
            m.torn_tails.inc();
            m.torn_bytes.add(cut_bytes);
            sssj_metrics::trace::instant(
                sssj_metrics::trace::Stage::WalTornTail,
                first_seq,
                good_len,
            );
            break;
        }

        let next_seq = segments
            .last()
            .map(|s| s.first_seq + s.records)
            .unwrap_or(0);
        // Reopen the last surviving segment for appending; if nothing
        // survived, start a fresh one at the recovered sequence.
        let (file, cur) = match segments.pop() {
            Some(seg) => {
                let mut file = OpenOptions::new().write(true).open(&seg.path)?;
                file.seek(SeekFrom::End(0))?;
                (file, seg)
            }
            None => open_segment(&wal_dir, next_seq)?,
        };
        Ok(WalScan {
            wal: Wal {
                wal_dir,
                file,
                buf: Vec::with_capacity(2 * WRITE_BUFFER),
                cur,
                sealed: segments,
                next_seq,
                last_t,
                segment_records: segment_records.max(1),
                sync_appends,
                gc_deleted: 0,
            },
            records,
            truncated,
        })
    }

    /// Appends one record, returning its absolute sequence number.
    /// Rejects non-finite or backwards-in-time timestamps up front: the
    /// engines require monotone streams anyway, and a logged bad frame
    /// would otherwise read as corruption on the next open — truncating
    /// every record after it.
    pub fn append(&mut self, record: &StreamRecord) -> io::Result<u64> {
        let t = record.t.seconds();
        if !t.is_finite() || t < self.last_t {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "out-of-order timestamp {t} (watermark {}): the WAL only \
                     accepts non-decreasing streams",
                    self.last_t
                ),
            ));
        }
        if self.cur.records >= self.segment_records {
            self.seal()?;
        }
        let mut span =
            sssj_metrics::trace::span_with(sssj_metrics::trace::Stage::WalAppend, record.id, 0);
        let buffered = self.buf.len();
        encode_frame(record, &mut self.buf);
        let m = wal_metrics();
        m.appends.inc();
        m.bytes.add((self.buf.len() - buffered) as u64);
        span.set_args(record.id, (self.buf.len() - buffered) as u64);
        if self.sync_appends || self.buf.len() >= WRITE_BUFFER {
            self.flush()?;
        }
        if self.cur.records == 0 {
            self.cur.first_t = t;
        }
        self.cur.newest_t = t;
        self.cur.records += 1;
        self.last_t = t;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Seals the current segment and opens the next one.
    fn seal(&mut self) -> io::Result<()> {
        self.flush()?;
        let (file, cur) = open_segment(&self.wal_dir, self.next_seq)?;
        let old = std::mem::replace(&mut self.cur, cur);
        self.file = file; // the old file was flushed above
        self.sealed.push(old);
        Ok(())
    }

    /// Flushes buffered frames to the OS.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes the open segment to the OS and, with `fsync`, forces it
    /// to stable storage — called before a checkpoint is published, so
    /// the manifest never references state the OS has not seen. The
    /// fsync is the machine-crash half of the durability contract; a
    /// plain flush already survives any process crash.
    pub fn sync(&mut self, fsync: bool) -> io::Result<()> {
        self.flush()?;
        if fsync {
            let _span = sssj_metrics::trace::span(sssj_metrics::trace::Stage::WalFsync);
            self.file.sync_all()?;
            wal_metrics().fsyncs.inc();
        }
        Ok(())
    }

    /// The next sequence number to be assigned — equal to the total
    /// number of records ever appended (GC does not move it).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Timestamp of the newest appended record.
    pub fn last_t(&self) -> f64 {
        self.last_t
    }

    /// Timestamp of the oldest *retained* record, `None` when empty.
    /// Emitted pairs older than this can never be regenerated by replay
    /// (their members are gone from the log), so the checkpoint's
    /// suppression set is pruned against it.
    pub fn oldest_t(&self) -> Option<f64> {
        if let Some(seg) = self.sealed.first() {
            if seg.records > 0 {
                return Some(seg.first_t);
            }
        }
        (self.cur.records > 0).then_some(self.cur.first_t)
    }

    /// Retires sealed segments that (a) can never pair again — newest
    /// record older than `floor_t` — and (b) are fully covered by the
    /// checkpoint at `ckpt_seq`, handing each to `sink` oldest first.
    /// Returns how many were retired. A sink error stops the sweep with
    /// the failing segment still retained (see [`GcSink`]).
    pub fn gc(&mut self, floor_t: f64, ckpt_seq: u64, sink: &mut dyn GcSink) -> io::Result<usize> {
        let mut retired = 0;
        while let Some(seg) = self.sealed.first() {
            if seg.newest_t < floor_t && seg.first_seq + seg.records <= ckpt_seq {
                sink.retire(seg)?;
                self.sealed.remove(0);
                retired += 1;
            } else {
                break;
            }
        }
        self.gc_deleted += retired as u64;
        if retired > 0 {
            let m = wal_metrics();
            m.gc_batches.inc();
            m.gc_segments.add(retired as u64);
        }
        Ok(retired)
    }

    /// Segments deleted by GC over this handle's lifetime.
    pub fn gc_deleted(&self) -> u64 {
        self.gc_deleted
    }

    /// Retained segments (sealed + the open one).
    pub fn segments(&self) -> usize {
        self.sealed.len() + 1
    }
}

/// Appends one record's WAL frame (header + CRC + payload) to `buf`.
/// Public for the historical tier, whose record segments reuse the WAL
/// frame format byte for byte.
pub fn encode_frame_into(record: &StreamRecord, buf: &mut Vec<u8>) {
    encode_frame(record, buf);
}

/// Decodes a byte run of concatenated WAL frames, strictly: any torn,
/// corrupt or trailing partial frame is an error (callers hold
/// *published* immutable bytes, where a bad frame is corruption, not a
/// crash tail). `last_t` as for [`walk_frames`].
pub fn decode_frames(bytes: &[u8], last_t: f64) -> Result<Vec<StreamRecord>, FrameError> {
    let mut records = Vec::new();
    walk_frames(bytes, 0, last_t, |frame| records.push(frame.record()))?;
    Ok(records)
}

fn refused(path: &Path, why: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("WAL segment {}: {why}", path.display()),
    )
}

/// Reads a segment file whole — one pass of `read(2)`, not two calls
/// per frame — and checks its header. Returns `first_seq` and the
/// file's bytes, header included (so frame offsets are file offsets).
fn load_segment(path: &Path) -> io::Result<(u64, Vec<u8>)> {
    let file = fs::read(path)?;
    if file.len() < SEGMENT_HEADER_LEN || &file[..8] != SEGMENT_MAGIC {
        return Err(refused(path, "bad segment header"));
    }
    let first_seq = u64::from_le_bytes(file[8..SEGMENT_HEADER_LEN].try_into().expect("8 bytes"));
    Ok((first_seq, file))
}

/// Walks a loaded segment file's frames from watermark `last_t`,
/// handing each valid one to `each`. Returns the metadata of the valid
/// prefix and the error that ended it, if the frames did not end
/// cleanly; the error's offset is the file length worth keeping.
fn walk_segment<'a>(
    path: &Path,
    first_seq: u64,
    file: &'a [u8],
    last_t: f64,
    mut each: impl FnMut(Frame<'a>),
) -> (Segment, Option<FrameError>) {
    let mut seg = Segment {
        first_seq,
        records: 0,
        first_t: f64::INFINITY,
        newest_t: f64::NEG_INFINITY,
        path: path.to_path_buf(),
    };
    let torn = walk_frames(file, SEGMENT_HEADER_LEN, last_t, |frame| {
        if seg.records == 0 {
            seg.first_t = frame.t;
        }
        seg.newest_t = frame.t;
        seg.records += 1;
        each(frame);
    });
    (seg, torn.err())
}

/// One sealed segment, read whole and validated strictly — the
/// compactor's input at retire time. Sealed segments are immutable, so
/// a torn or corrupt frame is an error here (unlike recovery's
/// self-truncating scan), and nothing is decoded: [`Self::frames`] is
/// the validated byte run, ready to be stored verbatim.
pub struct SealedSegment {
    file: Vec<u8>,
    /// First sequence number, frame count and time fences, as read.
    pub meta: RetiredSegment,
}

impl SealedSegment {
    /// Reads and validates the segment file at `path`: every frame's
    /// length bounds, CRC-32C, payload structure and timestamp order.
    pub fn read(path: &Path) -> io::Result<SealedSegment> {
        Self::read_each(path, |_| {})
    }

    fn read_each(path: &Path, each: impl FnMut(Frame<'_>)) -> io::Result<SealedSegment> {
        let (first_seq, file) = load_segment(path)?;
        match walk_segment(path, first_seq, &file, f64::NEG_INFINITY, each) {
            (meta, None) => Ok(SealedSegment { file, meta }),
            (_, Some(e)) => Err(refused(path, e)),
        }
    }

    /// The validated frames, concatenated, without the segment header.
    pub fn frames(&self) -> &[u8] {
        &self.file[SEGMENT_HEADER_LEN..]
    }
}

/// Reads every record of one segment file, strictly (see
/// [`SealedSegment`]): the error names the byte offset of the first
/// bad frame and what was wrong with it.
pub fn read_segment_records(path: &Path) -> io::Result<Vec<StreamRecord>> {
    let mut records = Vec::new();
    SealedSegment::read_each(path, |frame| records.push(frame.record()))?;
    Ok(records)
}

impl Drop for Wal {
    /// Best-effort flush: a *graceful* drop hands every appended frame
    /// to the OS (a `kill -9` still loses the in-process buffer — the
    /// torn-tail path recovery is built for).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}
