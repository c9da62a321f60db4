//! Validate-and-copy compaction: the compactor never decodes a record,
//! so these tests pin what the copy must still guarantee.
//!
//! * **Byte identity** — the published `.dat`/`.idx` pair equals, byte
//!   for byte, one assembled here the old way: decode the WAL segment,
//!   re-encode every record with `wal::encode_frame_into`, frame it.
//! * **Refusal** — a sealed segment that is torn, corrupt, or disagrees
//!   with the WAL's record count is never archived and never deleted.
//! * **Idempotent re-retire** — a segment already in the archive is not
//!   rewritten, and its WAL file goes only if the archived copy holds
//!   as many records as the WAL says it must.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::{RngExt, SeedableRng};
use sssj_segments::format::{HEADER_LEN, VERSION};
use sssj_segments::segment::{record_stem, REC_DATA_MAGIC, REC_INDEX_MAGIC};
use sssj_segments::HistoryHandle;
use sssj_store::crc::crc32c;
use sssj_store::{wal, RetiredSegment, Wal};
use sssj_types::{SparseVectorBuilder, StreamRecord, Timestamp};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sssj-seg-compact-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn random_stream(seed: u64, n: usize) -> Vec<StreamRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = rng.random_range(-5.0..5.0);
    (0..n as u64)
        .map(|i| {
            t += rng.random_range(0.0..0.4);
            let mut b = SparseVectorBuilder::new();
            for _ in 0..rng.random_range(1..9) {
                b.push(rng.random_range(0..64u32), rng.random_range(0.1..1.0));
            }
            StreamRecord::new(i, Timestamp::new(t), b.build_normalized().unwrap())
        })
        .collect()
}

/// Writes `stream` as one sealed WAL segment under `root/wal` and
/// returns what the horizon GC would hand the compactor for it.
fn sealed_wal_segment(root: &Path, stream: &[StreamRecord]) -> RetiredSegment {
    let mut log = Wal::create(root, u64::MAX, false).unwrap();
    for r in stream {
        log.append(r).unwrap();
    }
    drop(log); // flushes
    let t = |r: Option<&StreamRecord>, empty: f64| r.map_or(empty, |r| r.t.seconds());
    RetiredSegment {
        path: root.join("wal/seg-0000000000000000.wal"),
        first_seq: 0,
        records: stream.len() as u64,
        first_t: t(stream.first(), f64::INFINITY),
        newest_t: t(stream.last(), f64::NEG_INFINITY),
    }
}

/// `magic | version | body_len | crc32c | body` — the container of
/// `sssj_segments::format`, spelled out.
fn framed(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut file = Vec::with_capacity(HEADER_LEN + body.len());
    file.extend_from_slice(magic);
    file.push(VERSION);
    file.extend_from_slice(&(body.len() as u32).to_le_bytes());
    file.extend_from_slice(&crc32c(body).to_le_bytes());
    file.extend_from_slice(body);
    file
}

fn segment_files(hist: &Path) -> (PathBuf, PathBuf) {
    let stem = record_stem(0);
    (
        hist.join(format!("{stem}.dat")),
        hist.join(format!("{stem}.idx")),
    )
}

#[test]
fn record_segment_is_byte_identical_to_decode_and_reencode() {
    // Empty and single-record segments first, then random sizes.
    for (seed, n) in [(1, 0), (2, 1), (3, 2), (4, 17), (5, 200), (6, 1500)] {
        let root = tmp_dir("identity");
        let hist = root.join("hist");
        let retired = sealed_wal_segment(&root, &random_stream(seed, n));

        // The reference, built before the compactor deletes the WAL.
        let decoded = wal::read_segment_records(&retired.path).unwrap();
        assert_eq!(decoded.len(), n);
        let mut body = Vec::new();
        let (mut min_t, mut max_t) = (f64::INFINITY, f64::NEG_INFINITY);
        for r in &decoded {
            wal::encode_frame_into(r, &mut body);
            min_t = min_t.min(r.t.seconds());
            max_t = max_t.max(r.t.seconds());
        }
        if decoded.is_empty() {
            (min_t, max_t) = (0.0, 0.0);
        }
        let mut idx = Vec::new();
        idx.extend_from_slice(&0u64.to_le_bytes());
        idx.extend_from_slice(&(n as u64).to_le_bytes());
        idx.extend_from_slice(&min_t.to_bits().to_le_bytes());
        idx.extend_from_slice(&max_t.to_bits().to_le_bytes());

        let history = HistoryHandle::open(&hist).unwrap();
        history.compact_wal_segment(&retired).unwrap();
        let (dat, idx_path) = segment_files(&hist);
        assert_eq!(
            fs::read(&dat).unwrap(),
            framed(REC_DATA_MAGIC, &body),
            "n={n}: .dat"
        );
        assert_eq!(
            fs::read(&idx_path).unwrap(),
            framed(REC_INDEX_MAGIC, &idx),
            "n={n}: .idx"
        );
        assert!(!retired.path.exists(), "n={n}: WAL segment not retired");

        // And it reads back as the records that went in.
        let archived = history
            .records_in_range(f64::NEG_INFINITY, f64::INFINITY)
            .unwrap();
        assert_eq!(archived, decoded, "n={n}");
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn corrupt_sealed_segment_is_refused_and_the_wal_kept() {
    let stream = random_stream(9, 60);
    let root = tmp_dir("refuse");
    let hist = root.join("hist");
    let retired = sealed_wal_segment(&root, &stream);
    let clean = fs::read(&retired.path).unwrap();
    let history = HistoryHandle::open(&hist).unwrap();

    let refused = |what: &str, retired: &RetiredSegment| {
        let err = history.compact_wal_segment(retired).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
        assert!(retired.path.exists(), "{what}: WAL segment deleted");
        let (dat, idx) = segment_files(&hist);
        assert!(!dat.exists() && !idx.exists(), "{what}: archived anyway");
        assert_eq!(history.boundary().segments, 0, "{what}");
        assert_eq!(history.progress().0, 0, "{what}");
        err.to_string()
    };

    // A flipped payload bit: the frame's CRC catches it, and the error
    // says where.
    let mut flipped = clean.clone();
    flipped[clean.len() / 2] ^= 0x04;
    fs::write(&retired.path, &flipped).unwrap();
    let why = refused("bit flip", &retired);
    assert!(
        why.contains("frame at byte") && why.contains("CRC mismatch"),
        "{why}"
    );

    // A torn tail — legal in the *open* segment, never in a sealed one.
    fs::write(&retired.path, &clean[..clean.len() - 3]).unwrap();
    let why = refused("torn tail", &retired);
    assert!(why.contains("overruns"), "{why}");

    // Intact bytes, but the WAL's bookkeeping expects one more record.
    fs::write(&retired.path, &clean).unwrap();
    let short = RetiredSegment {
        records: retired.records + 1,
        ..retired.clone()
    };
    let why = refused("count mismatch", &short);
    assert!(
        why.contains("claims 61 records, the segment holds 60"),
        "{why}"
    );

    // Undamaged and honestly described, the same segment compacts.
    history.compact_wal_segment(&retired).unwrap();
    assert!(!retired.path.exists());
    assert_eq!(history.boundary().segments, 1);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn re_retire_checks_the_adopted_segment_before_deleting_the_wal() {
    let stream = random_stream(13, 40);
    let root = tmp_dir("reretire");
    let hist = root.join("hist");

    // Plant a *short* record segment under first_seq 0: the archive of
    // a 37-record WAL, published but never cataloged (no MANIFEST), as
    // a crash between publish and manifest flip leaves it.
    let planted = sealed_wal_segment(&root.join("short"), &stream[..37]);
    HistoryHandle::open(&hist)
        .unwrap()
        .compact_wal_segment(&planted)
        .unwrap();
    fs::remove_file(hist.join("MANIFEST")).unwrap();

    // The store adopts it on open. Retiring the real 40-record segment
    // with the same first_seq must not take the adopted copy on faith.
    let retired = sealed_wal_segment(&root, &stream);
    let history = HistoryHandle::open(&hist).unwrap();
    assert_eq!(history.boundary().segments, 1, "planted segment adopted");
    let err = history.compact_wal_segment(&retired).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(
        err.to_string()
            .contains("claims 40 records, its record segment holds 37"),
        "{err}"
    );
    assert!(retired.path.exists(), "WAL deleted over a short archive");
    assert_eq!(history.progress().0, 0);

    // With a matching archive the re-retire is the idempotent no-op it
    // was meant to be: nothing rewritten, WAL file removed.
    let honest = sealed_wal_segment(&root.join("again"), &stream[..37]);
    let (dat, _) = segment_files(&hist);
    let published = fs::read(&dat).unwrap();
    #[cfg(unix)]
    let inode = std::os::unix::fs::MetadataExt::ino(&fs::metadata(&dat).unwrap());
    history.compact_wal_segment(&honest).unwrap();
    assert!(!honest.path.exists());
    assert_eq!(fs::read(&dat).unwrap(), published);
    // Publication is write-to-temp + rename: same inode, no rewrite.
    #[cfg(unix)]
    assert_eq!(
        std::os::unix::fs::MetadataExt::ino(&fs::metadata(&dat).unwrap()),
        inode
    );
    assert_eq!(history.boundary().segments, 1);
    let _ = fs::remove_dir_all(&root);
}
