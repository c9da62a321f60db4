//! Archived record segments cost no resident memory: opening a history
//! directory validates every record segment and then lets its data file
//! go, so the process's RSS does not grow with the archive's depth.
//!
//! The test sits in its own file, and so in its own process, because it
//! reads the process-wide `RssFile + RssAnon` from `/proc/self/status`.
//! It holds on both backings of `sssj_segments::Mapped`: a record
//! segment left mapped would show as `RssFile`, one read into the heap
//! as `RssAnon`.

#![cfg(target_os = "linux")]

use std::fs;

use sssj_segments::manifest::{Manifest, ManifestEntry, SegmentKind};
use sssj_segments::segment::write_record_segment;
use sssj_segments::HistoryStore;
use sssj_store::wal::SealedSegment;
use sssj_store::Wal;
use sssj_types::{SparseVectorBuilder, StreamRecord, Timestamp};

/// Record segments in the archive.
const SEGMENTS: u64 = 32;
/// Records per segment; at 128 non-zeros a WAL frame is 1564 bytes, so
/// one segment's data file is about 600 KiB.
const RECORDS_PER_SEGMENT: u64 = 400;
const NNZ: u32 = 128;

fn record(i: u64) -> StreamRecord {
    let mut b = SparseVectorBuilder::new();
    for k in 0..NNZ {
        b.push(3 * k + (i % 3) as u32, 1.0 + (k % 5) as f64);
    }
    StreamRecord::new(
        i,
        Timestamp::new(i as f64 * 0.001),
        b.build_normalized().unwrap(),
    )
}

/// `RssFile + RssAnon` of this process, in bytes.
fn rss_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .filter(|l| l.starts_with("RssFile:") || l.starts_with("RssAnon:"))
        .map(|l| {
            let kb: u64 = l.split_whitespace().nth(1).unwrap().parse().unwrap();
            kb * 1024
        })
        .sum()
}

#[test]
fn opening_an_archive_keeps_record_segments_off_the_resident_set() {
    let root = std::env::temp_dir().join(format!("sssj-seg-resident-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    let hist = root.join("hist");

    // Build and catalog the archive one segment at a time, as the
    // compactor would, but without a history store: a store's readers
    // would hold every segment at once (mapped or on the heap), and
    // heap pages freed here could be reused by the open below unseen.
    // Records are made as they are appended, for the same reason.
    {
        let mut log = Wal::create(&root, RECORDS_PER_SEGMENT, false).unwrap();
        for i in 0..SEGMENTS * RECORDS_PER_SEGMENT + 1 {
            log.append(&record(i)).unwrap();
        }
    }
    fs::create_dir_all(&hist).unwrap();
    let mut manifest = Manifest::default();
    for s in 0..SEGMENTS {
        let first_seq = s * RECORDS_PER_SEGMENT;
        let wal = root.join(format!("wal/seg-{first_seq:016x}.wal"));
        let sealed = SealedSegment::read(&wal).unwrap();
        assert_eq!(sealed.meta.records, RECORDS_PER_SEGMENT);
        write_record_segment(&hist, &sealed, false).unwrap();
        manifest.entries.push(ManifestEntry {
            kind: SegmentKind::Records,
            seq: first_seq,
            count: sealed.meta.records,
            min_t: sealed.meta.first_t,
            max_t: sealed.meta.newest_t,
        });
        fs::remove_file(&wal).unwrap();
    }
    manifest.write(&hist, false).unwrap();

    let mut archive_bytes = 0;
    let mut record_segments = 0;
    for entry in fs::read_dir(&hist).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if name.starts_with("rec-") && name.ends_with(".dat") {
            archive_bytes += entry.metadata().unwrap().len();
            record_segments += 1;
        }
    }
    assert_eq!(record_segments, SEGMENTS);
    assert!(
        archive_bytes >= 16 << 20,
        "archive holds {archive_bytes} bytes"
    );

    let before = rss_bytes();
    let store = HistoryStore::open(&hist).unwrap();
    let after = rss_bytes();
    let grown = after.saturating_sub(before);
    assert!(
        grown < archive_bytes / 10,
        "opening {record_segments} record segments ({archive_bytes} bytes) grew RSS by {grown} bytes"
    );
    drop(store);
    let _ = fs::remove_dir_all(&root);
}
