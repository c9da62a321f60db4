//! Torn-tail property: whatever a crash or bit rot does to the log,
//! recovery keeps exactly the longest valid prefix — no more (a bad
//! frame never reaches an engine), no less (a good frame is never
//! dropped) — and appending resumes right after the cut.
//!
//! Random multi-segment logs are damaged two ways: truncated at every
//! byte offset inside the last two frames, and hit by single bit flips
//! anywhere (segment headers, frame headers, payloads, any segment).
//! Each damaged log is judged by `reference_scan` below — an
//! independent scanner that shares only the CRC routine with the code
//! under test — and `Wal::open_existing` must agree with it on the
//! surviving bytes of every file, the record count and `truncated`;
//! `wal::read_segment_records` must refuse exactly the files the
//! reference calls torn.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use sssj_core::MAX_SNAPSHOT_DIM;
use sssj_store::crc::crc32c;
use sssj_store::{wal, Wal};
use sssj_types::{SparseVectorBuilder, StreamRecord, Timestamp};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sssj-torn-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn random_stream(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<StreamRecord> {
    let mut t = 0.0;
    (0..n as u64)
        .map(|i| {
            t += rng.random_range(0.0..0.4);
            let mut b = SparseVectorBuilder::new();
            for _ in 0..rng.random_range(1..6) {
                b.push(rng.random_range(0..40u32), rng.random_range(0.1..1.0));
            }
            StreamRecord::new(i, Timestamp::new(t), b.build_normalized().unwrap())
        })
        .collect()
}

const HEADER: usize = 16;

/// The reference's whole idea of a good frame at the head of `rest`:
/// its total length and timestamp, or `None`.
fn good_frame(rest: &[u8], last_t: f64) -> Option<(usize, f64)> {
    let le32 = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap());
    let le64 = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    let len = le32(rest.get(0..4)?) as usize;
    let payload = rest.get(8..8 + len)?;
    if len == 0 || len > 64 << 20 || crc32c(payload) != le32(&rest[4..8]) || len < 20 {
        return None;
    }
    let t = f64::from_bits(le64(&payload[8..16]));
    let nnz = le32(&payload[16..20]) as usize;
    if !t.is_finite() || t < last_t || len != 20 + 12 * nnz {
        return None;
    }
    let dims: Vec<u32> = payload[20..20 + 4 * nnz].chunks(4).map(le32).collect();
    let increasing = dims.windows(2).all(|w| w[0] < w[1]);
    let weights_ok = payload[20 + 4 * nnz..].chunks(8).all(|w| {
        let x = f64::from_bits(le64(w));
        x.is_finite() && x > 0.0 && x <= 1.0 + 1e-9
    });
    let dims_ok = increasing && dims.iter().all(|&d| d <= MAX_SNAPSHOT_DIM);
    (dims_ok && weights_ok).then_some((8 + len, t))
}

/// What recovery must leave behind.
#[derive(Debug, PartialEq)]
struct Survivors {
    /// Bytes kept of each input file, in order (0 = file removed).
    kept: Vec<usize>,
    records: usize,
    truncated: bool,
    /// Sequence number the next append gets.
    next_seq: u64,
}

fn reference_scan(files: &[Vec<u8>]) -> Survivors {
    let mut s = Survivors {
        kept: Vec::new(),
        records: 0,
        truncated: false,
        next_seq: 0,
    };
    let mut last_t = f64::NEG_INFINITY;
    let mut expected: Option<u64> = None;
    for f in files {
        let first_seq = f
            .get(8..HEADER)
            .filter(|_| &f[..8] == b"SSSJWAL1")
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .filter(|&seq| expected.is_none_or(|e| e == seq));
        let Some(first_seq) = first_seq else { break };
        let (mut pos, mut in_segment) = (HEADER, 0);
        while let Some((len, t)) = good_frame(&f[pos..], last_t) {
            (pos, last_t, in_segment) = (pos + len, t, in_segment + 1);
        }
        s.kept.push(pos);
        s.records += in_segment as usize;
        s.next_seq = first_seq + in_segment;
        expected = Some(s.next_seq);
        if pos < f.len() {
            break;
        }
    }
    s.truncated =
        s.kept.len() < files.len() || s.kept.last().copied() != files.last().map(Vec::len);
    s.kept.resize(files.len(), 0);
    s
}

fn segment_names(wal_dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(wal_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

const SEGMENT_RECORDS: u64 = 8;

/// Writes `files` as a log, recovers it, and checks every claim of the
/// module docs against `reference_scan`.
fn check_recovery(names: &[String], files: &[Vec<u8>], stream: &[StreamRecord], what: &str) {
    let dir = tmp_dir("case");
    let wal_dir = dir.join("wal");
    fs::create_dir_all(&wal_dir).unwrap();
    for (name, bytes) in names.iter().zip(files) {
        fs::write(wal_dir.join(name), bytes).unwrap();
    }
    let expect = reference_scan(files);

    // The strict reader refuses exactly the files the reference calls
    // torn (judged alone: it knows no neighbours and no watermark).
    for (name, bytes) in names.iter().zip(files) {
        let alone = reference_scan(std::slice::from_ref(bytes));
        let strict = wal::read_segment_records(&wal_dir.join(name));
        match strict {
            Ok(records) => {
                assert!(
                    !alone.truncated,
                    "{what}: strict reader accepted torn {name}"
                );
                assert_eq!(records.len(), alone.records, "{what}: {name}");
            }
            Err(e) => {
                assert!(
                    alone.truncated,
                    "{what}: strict reader refused clean {name}: {e}"
                );
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}");
            }
        }
    }

    let scan = Wal::open_existing(&dir, SEGMENT_RECORDS, false).unwrap();
    assert_eq!(scan.truncated, expect.truncated, "{what}: truncated");
    assert_eq!(scan.records.len(), expect.records, "{what}: record count");
    assert_eq!(scan.wal.next_seq(), expect.next_seq, "{what}: next_seq");
    // Recovered records are a prefix of what was written, bit for bit.
    assert_eq!(
        scan.records[..],
        stream[..expect.records],
        "{what}: records"
    );
    for ((name, bytes), &kept) in names.iter().zip(files).zip(&expect.kept) {
        let path = wal_dir.join(name);
        // Dropping the *first* file whole makes recovery start a fresh
        // header-only segment, possibly under the same name.
        let on_disk = fs::read(&path).unwrap_or_default();
        if kept == 0 {
            assert!(on_disk.len() <= HEADER, "{what}: {name} not dropped");
        } else {
            assert_eq!(on_disk[..], bytes[..kept], "{what}: good_len of {name}");
        }
    }

    // An append lands right after the cut: the log reopens clean with
    // exactly one more record, the appended one.
    let mut log = scan.wal;
    let t = stream.last().unwrap().t.seconds() + 1.0;
    let extra = StreamRecord::new(u64::MAX, Timestamp::new(t), stream[0].vector.clone());
    assert_eq!(log.append(&extra).unwrap(), expect.next_seq, "{what}: seq");
    drop(log); // flushes
    let mut frame = Vec::new();
    wal::encode_frame_into(&extra, &mut frame);
    let last = segment_names(&wal_dir).pop().unwrap();
    let on_disk = fs::read(wal_dir.join(&last)).unwrap();
    assert!(
        on_disk.ends_with(&frame),
        "{what}: appended frame is not the tail of {last}"
    );
    if let Some(i) = names
        .iter()
        .position(|n| *n == last)
        .filter(|&i| expect.kept[i] > 0)
    {
        assert_eq!(
            on_disk.len(),
            expect.kept[i] + frame.len(),
            "{what}: gap after the cut"
        );
    }
    let again = Wal::open_existing(&dir, SEGMENT_RECORDS, false).unwrap();
    assert!(
        !again.truncated,
        "{what}: log is not clean after the repair"
    );
    assert_eq!(
        again.records.len(),
        expect.records + 1,
        "{what}: reopen count"
    );
    assert_eq!(again.records.last(), Some(&extra), "{what}: reopen tail");
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovery_keeps_exactly_the_longest_valid_prefix(seed in 0u64..10_000, n in 2usize..40) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let stream = random_stream(&mut rng, n);
        let dir = tmp_dir("src");
        let mut log = Wal::create(&dir, SEGMENT_RECORDS, false).unwrap();
        for r in &stream {
            log.append(r).unwrap();
        }
        drop(log);
        let names = segment_names(&dir.join("wal"));
        let files: Vec<Vec<u8>> =
            names.iter().map(|n| fs::read(dir.join("wal").join(n)).unwrap()).collect();
        let _ = fs::remove_dir_all(&dir);

        // The undamaged log is its own longest valid prefix.
        let clean = reference_scan(&files);
        prop_assert!(!clean.truncated && clean.records == n);
        check_recovery(&names, &files, &stream, "undamaged");

        // Truncation at every byte offset inside the last two frames.
        // When they straddle a segment boundary the range reaches into
        // the last file's header instead: a torn header drops the file.
        let mut frame = Vec::new();
        let tail: usize = stream[n - 2..].iter().map(|r| {
            frame.clear();
            wal::encode_frame_into(r, &mut frame);
            frame.len()
        }).sum();
        let last = files.last().unwrap();
        for cut in last.len().saturating_sub(tail)..last.len() {
            let mut damaged = files.clone();
            damaged.last_mut().unwrap().truncate(cut);
            check_recovery(&names, &damaged, &stream, &format!("seed {seed} cut at {cut}"));
        }

        // Single bit flips anywhere.
        for _ in 0..48 {
            let file = rng.random_range(0..files.len());
            let bit = rng.random_range(0..files[file].len() * 8);
            let mut damaged = files.clone();
            damaged[file][bit / 8] ^= 1 << (bit % 8);
            check_recovery(&names, &damaged, &stream, &format!("seed {seed} {}:bit {bit}", names[file]));
        }
    }
}

/// Every cut is counted, traced and — by the strict reader — explained:
/// which byte offset failed, and why.
#[test]
fn torn_tails_are_counted_traced_and_explained() {
    use sssj_metrics::trace::{self, Stage};
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let stream = random_stream(&mut rng, 20);
    let dir = tmp_dir("observed");
    let mut log = Wal::create(&dir, SEGMENT_RECORDS, false).unwrap();
    for r in &stream {
        log.append(r).unwrap();
    }
    drop(log);
    let wal_dir = dir.join("wal");
    let names = segment_names(&wal_dir);
    assert_eq!(names.len(), 3, "8 + 8 + 4 records");
    let middle = wal_dir.join(&names[1]);
    let clean = fs::read(&middle).unwrap();
    let last_len = fs::metadata(wal_dir.join(&names[2])).unwrap().len();

    // Frame boundaries of the middle segment, from the reference.
    let mut starts = vec![HEADER];
    while let Some((len, _)) = good_frame(&clean[*starts.last().unwrap()..], f64::NEG_INFINITY) {
        starts.push(starts.last().unwrap() + len);
    }
    let (third, fourth) = (starts[2], starts[3]);
    let refusal = |bytes: &[u8]| {
        fs::write(&middle, bytes).unwrap();
        wal::read_segment_records(&middle).unwrap_err().to_string()
    };

    let mut damaged = clean.clone();
    damaged[third + 30] ^= 0x10;
    let why = refusal(&damaged);
    assert!(
        why.contains(&format!("frame at byte {third}: CRC mismatch")),
        "{why}"
    );

    let why = refusal(&clean[..third + 5]);
    assert!(
        why.contains(&format!("frame at byte {third}: short header (5 trailing")),
        "{why}"
    );

    let why = refusal(&clean[..fourth - 1]);
    assert!(
        why.contains(&format!("frame at byte {third}: frame length")),
        "{why}"
    );
    assert!(why.contains("overruns"), "{why}");

    let mut zero_len = clean.clone();
    zero_len[third..third + 4].fill(0);
    let why = refusal(&zero_len);
    assert!(
        why.contains(&format!("frame at byte {third}: absurd frame length 0")),
        "{why}"
    );

    // A CRC-clean frame whose payload is structurally wrong: the last
    // weight pushed out of (0, 1], checksum recomputed.
    let mut bad_weight = clean.clone();
    bad_weight[fourth - 8..fourth].copy_from_slice(&2.0f64.to_le_bytes());
    let crc = crc32c(&bad_weight[third + 8..fourth]);
    bad_weight[third + 4..third + 8].copy_from_slice(&crc.to_le_bytes());
    let why = refusal(&bad_weight);
    assert!(
        why.contains(&format!("frame at byte {third}: bad payload: bad weight 2")),
        "{why}"
    );

    // Recovery cuts there: counters move by at least this cut (the
    // property test above cuts concurrently), the instant names it.
    let reg = sssj_metrics::Registry::global();
    let tails = reg.counter("sssj_store_wal_torn_tails_total", "");
    let bytes = reg.counter("sssj_store_wal_torn_bytes_total", "");
    let (tails_before, bytes_before) = (tails.value(), bytes.value());
    let scan = Wal::open_existing(&dir, SEGMENT_RECORDS, false).unwrap();
    assert!(scan.truncated);
    assert_eq!(scan.records.len(), 10);
    if sssj_metrics::telemetry_enabled() {
        let cut = (clean.len() - third) as u64 + last_len;
        assert!(tails.value() > tails_before);
        assert!(bytes.value() - bytes_before >= cut, "cut {cut} bytes");
    }
    if sssj_metrics::trace_enabled() {
        let seen = trace::drain_last(usize::MAX).events.into_iter().any(|e| {
            e.stage == Stage::WalTornTail
                && e.kind == trace::EventKind::Instant
                && (e.a, e.b) == (8, third as u64)
        });
        assert!(
            seen,
            "no wal.torn_tail instant for first_seq 8, good_len {third}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
