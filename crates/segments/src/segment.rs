//! Immutable segment pairs: a sorted data file plus a small index.
//!
//! Two kinds live side by side in a history directory:
//!
//! * **Edge segments** (`edg-<seq:016x>.{idx,dat}`) — expired
//!   similarity edges, flushed by the compactor at checkpoint publish.
//!   Each undirected edge is stored as *two* directed rows so every
//!   lookup is a single contiguous scan of one node's run. Rows are
//!   sorted by `(node, neighbor, t)`; the index carries the per-node
//!   `(start, count)` runs, a bloom filter over node ids (skips whole
//!   segments on miss), and `[min_t, max_t]` time fences.
//! * **Record segments** (`rec-<first_seq:016x>.{idx,dat}`) — retired
//!   WAL segments, keeping raw records queryable past the horizon for
//!   backfill. The data file's body is the WAL segment's frame run,
//!   byte for byte (same frame codec): the compactor validates the
//!   sealed bytes with the WAL's own frame walker and copies them.
//!   Unlike edge segments, which every `at=` query probes, record
//!   segments are read only by backfill, so a reader keeps nothing of
//!   the data file resident: [`RecordSegmentReader::open`] validates
//!   the container and releases it, and
//!   [`RecordSegmentReader::decode_all`] re-opens and re-validates the
//!   file, then reads it back through the WAL's frame walker.
//!
//! Both files are CRC-framed ([`crate::format`]) and published
//! atomically; readers validate every structural claim (row counts,
//! sorted runs, run bounds) before trusting an offset.

use std::io;
use std::path::Path;

use sssj_collections::bloom::BloomFilter;
use sssj_graph::ExpiredEdge;
use sssj_store::wal::{self, SealedSegment};
use sssj_types::StreamRecord;

use crate::format::{read_framed, write_framed, BodyReader, FramedBody};

/// Magic for edge-segment data files.
pub const EDGE_DATA_MAGIC: &[u8; 8] = b"SSSJEDG1";
/// Magic for edge-segment index files.
pub const EDGE_INDEX_MAGIC: &[u8; 8] = b"SSSJEDX1";
/// Magic for record-segment data files.
pub const REC_DATA_MAGIC: &[u8; 8] = b"SSSJREC1";
/// Magic for record-segment index files.
pub const REC_INDEX_MAGIC: &[u8; 8] = b"SSSJRCX1";

/// Bytes per directed edge row: node, neighbor, similarity, t.
pub const EDGE_ROW_BYTES: usize = 32;
/// Bloom sizing: bits per distinct node id.
const BLOOM_BITS_PER_NODE: usize = 10;

/// File stem for an edge segment, e.g. `edg-0000000000000003`.
pub fn edge_stem(seq: u64) -> String {
    format!("edg-{seq:016x}")
}

/// File stem for a record segment, e.g. `rec-0000000000001000`.
pub fn record_stem(first_seq: u64) -> String {
    format!("rec-{first_seq:016x}")
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// One directed edge row decoded from an edge segment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRow {
    /// The queried endpoint.
    pub node: u64,
    /// The other endpoint.
    pub neighbor: u64,
    /// Similarity score at emission.
    pub similarity: f64,
    /// Delivery timestamp of the underlying pair.
    pub t: f64,
}

/// Writes one edge segment (data + index, in that order) and returns
/// its `(min_t, max_t, row_count)`. A crash between the two writes
/// leaves an index-less `.dat` that open-time adoption ignores.
pub fn write_edge_segment(
    dir: &Path,
    seq: u64,
    edges: &[ExpiredEdge],
    fsync: bool,
) -> io::Result<(f64, f64, u64)> {
    // Two directed rows per undirected edge, sorted by (node, neighbor, t).
    let mut rows: Vec<EdgeRow> = Vec::with_capacity(edges.len() * 2);
    for e in edges {
        rows.push(EdgeRow {
            node: e.left,
            neighbor: e.right,
            similarity: e.similarity,
            t: e.t,
        });
        rows.push(EdgeRow {
            node: e.right,
            neighbor: e.left,
            similarity: e.similarity,
            t: e.t,
        });
    }
    rows.sort_by(|a, b| {
        a.node
            .cmp(&b.node)
            .then(a.neighbor.cmp(&b.neighbor))
            .then(a.t.total_cmp(&b.t))
    });

    let mut min_t = f64::INFINITY;
    let mut max_t = f64::NEG_INFINITY;
    let mut data = Vec::with_capacity(rows.len() * EDGE_ROW_BYTES);
    for r in &rows {
        data.extend_from_slice(&r.node.to_le_bytes());
        data.extend_from_slice(&r.neighbor.to_le_bytes());
        data.extend_from_slice(&r.similarity.to_bits().to_le_bytes());
        data.extend_from_slice(&r.t.to_bits().to_le_bytes());
        min_t = min_t.min(r.t);
        max_t = max_t.max(r.t);
    }
    if rows.is_empty() {
        (min_t, max_t) = (0.0, 0.0);
    }

    // Per-node runs + bloom over the distinct node ids.
    let mut entries: Vec<(u64, u64, u64)> = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        match entries.last_mut() {
            Some((node, _, count)) if *node == r.node => *count += 1,
            _ => entries.push((r.node, i as u64, 1)),
        }
    }
    let mut bloom = BloomFilter::with_capacity(entries.len().max(1), BLOOM_BITS_PER_NODE);
    for (node, _, _) in &entries {
        bloom.insert(*node);
    }

    let mut idx = Vec::new();
    idx.extend_from_slice(&min_t.to_bits().to_le_bytes());
    idx.extend_from_slice(&max_t.to_bits().to_le_bytes());
    idx.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    idx.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    idx.extend_from_slice(&bloom.probes().to_le_bytes());
    idx.extend_from_slice(&(bloom.words().len() as u32).to_le_bytes());
    for w in bloom.words() {
        idx.extend_from_slice(&w.to_le_bytes());
    }
    for (node, start, count) in &entries {
        idx.extend_from_slice(&node.to_le_bytes());
        idx.extend_from_slice(&start.to_le_bytes());
        idx.extend_from_slice(&count.to_le_bytes());
    }

    let stem = edge_stem(seq);
    write_framed(dir, &format!("{stem}.dat"), EDGE_DATA_MAGIC, &data, fsync)?;
    write_framed(dir, &format!("{stem}.idx"), EDGE_INDEX_MAGIC, &idx, fsync)?;
    Ok((min_t, max_t, rows.len() as u64))
}

/// An open, fully validated edge segment.
pub struct EdgeSegmentReader {
    /// Segment sequence number (from the file name).
    pub seq: u64,
    /// Oldest row timestamp.
    pub min_t: f64,
    /// Newest row timestamp.
    pub max_t: f64,
    /// Directed row count.
    pub rows: u64,
    entries: Vec<(u64, u64, u64)>,
    bloom: BloomFilter,
    data: FramedBody,
}

impl EdgeSegmentReader {
    /// Opens `edg-<seq>.{idx,dat}` under `dir`, validating the index's
    /// structural claims against the data file before serving reads.
    pub fn open(dir: &Path, seq: u64) -> io::Result<EdgeSegmentReader> {
        let stem = edge_stem(seq);
        let idx_path = dir.join(format!("{stem}.idx"));
        let dat_path = dir.join(format!("{stem}.dat"));
        let idx = read_framed(&idx_path, EDGE_INDEX_MAGIC)?;
        let data = read_framed(&dat_path, EDGE_DATA_MAGIC)?;

        let body = idx.body();
        let mut r = BodyReader::new(body);
        let parsed: Result<_, String> = (|| {
            let min_t = r.f64()?;
            let max_t = r.f64()?;
            let rows = r.u64()?;
            let n_nodes = r.u64()?;
            let bloom_k = r.u32()?;
            let bloom_words = r.u32()? as usize;
            let mut words = Vec::with_capacity(bloom_words.min(1 << 16));
            for _ in 0..bloom_words {
                words.push(r.u64()?);
            }
            let bloom = BloomFilter::from_parts(words, bloom_k)?;
            let n_nodes =
                usize::try_from(n_nodes).map_err(|_| "node count overflows".to_string())?;
            let mut entries = Vec::with_capacity(n_nodes.min(1 << 16));
            for _ in 0..n_nodes {
                entries.push((r.u64()?, r.u64()?, r.u64()?));
            }
            r.expect_end()?;
            Ok((min_t, max_t, rows, bloom, entries))
        })();
        let (min_t, max_t, rows, bloom, entries): (f64, f64, u64, _, Vec<(u64, u64, u64)>) =
            parsed.map_err(|e| corrupt(&idx_path, e))?;

        if data.body().len() as u64 != rows * EDGE_ROW_BYTES as u64 {
            return Err(corrupt(
                &dat_path,
                format!(
                    "index claims {rows} rows, data holds {} bytes",
                    data.body().len()
                ),
            ));
        }
        let mut prev: Option<u64> = None;
        for &(node, start, count) in &entries {
            if prev.is_some_and(|p| p >= node) {
                return Err(corrupt(&idx_path, "node runs are not strictly sorted"));
            }
            prev = Some(node);
            if count == 0 || start.checked_add(count).is_none_or(|end| end > rows) {
                return Err(corrupt(&idx_path, "node run exceeds the data file"));
            }
        }
        Ok(EdgeSegmentReader {
            seq,
            min_t,
            max_t,
            rows,
            entries,
            bloom,
            data,
        })
    }

    /// Whether `[lo, hi]` overlaps this segment's time fences.
    pub fn overlaps(&self, lo: f64, hi: f64) -> bool {
        self.rows > 0 && lo <= self.max_t && hi >= self.min_t
    }

    /// Payload bytes of the data file (frame body, headers excluded).
    pub fn data_bytes(&self) -> u64 {
        self.data.body().len() as u64
    }

    /// Appends `node`'s rows with `t ∈ [lo, hi]` to `out`. The bloom
    /// filter and the time fences short-circuit whole-segment misses.
    pub fn edges_of(&self, node: u64, lo: f64, hi: f64, out: &mut Vec<EdgeRow>) {
        if !self.overlaps(lo, hi) || !self.bloom.contains(node) {
            return;
        }
        let Ok(i) = self.entries.binary_search_by_key(&node, |e| e.0) else {
            return;
        };
        let (_, start, count) = self.entries[i];
        let body = self.data.body();
        for row in start..start + count {
            let off = row as usize * EDGE_ROW_BYTES;
            let b = &body[off..off + EDGE_ROW_BYTES];
            let row_node = u64::from_le_bytes(b[0..8].try_into().unwrap());
            if row_node != node {
                // The structure was validated at open; a mismatched row
                // under a validated run is hostile data — skip it.
                continue;
            }
            let t = f64::from_bits(u64::from_le_bytes(b[24..32].try_into().unwrap()));
            if !t.is_finite() || t < lo || t > hi {
                continue;
            }
            out.push(EdgeRow {
                node: row_node,
                neighbor: u64::from_le_bytes(b[8..16].try_into().unwrap()),
                similarity: f64::from_bits(u64::from_le_bytes(b[16..24].try_into().unwrap())),
                t,
            });
        }
    }
}

/// Writes one record segment from a retired WAL segment. The data
/// file's body *is* the sealed segment's validated frame run, copied
/// verbatim — nothing is decoded or re-encoded on the way.
pub fn write_record_segment(dir: &Path, segment: &SealedSegment, fsync: bool) -> io::Result<()> {
    let meta = &segment.meta;
    // Frames are validated non-decreasing in time: first is oldest.
    let (min_t, max_t) = match meta.records {
        0 => (0.0, 0.0),
        _ => (meta.first_t, meta.newest_t),
    };
    let mut idx = Vec::new();
    idx.extend_from_slice(&meta.first_seq.to_le_bytes());
    idx.extend_from_slice(&meta.records.to_le_bytes());
    idx.extend_from_slice(&min_t.to_bits().to_le_bytes());
    idx.extend_from_slice(&max_t.to_bits().to_le_bytes());

    let stem = record_stem(meta.first_seq);
    let data = segment.frames();
    write_framed(dir, &format!("{stem}.dat"), REC_DATA_MAGIC, data, fsync)?;
    write_framed(dir, &format!("{stem}.idx"), REC_INDEX_MAGIC, &idx, fsync)?;
    Ok(())
}

/// An open record segment: the index fields plus the data file's
/// path. It holds none of the data file's bytes between decodes —
/// [`Self::decode_all`] maps (or reads) the file for the length of one
/// call — so an archive of any depth costs a few dozen bytes of memory
/// per segment.
pub struct RecordSegmentReader {
    /// Absolute sequence number of the first record.
    pub first_seq: u64,
    /// Record count claimed by the index.
    pub records: u64,
    /// Oldest record timestamp.
    pub min_t: f64,
    /// Newest record timestamp.
    pub max_t: f64,
    data_bytes: u64,
    dat_path: std::path::PathBuf,
}

impl RecordSegmentReader {
    /// Opens `rec-<first_seq>.{idx,dat}` under `dir`. The data file is
    /// validated in full (length, magic, version, body CRC) and then
    /// released; frame *contents* are decoded on demand.
    pub fn open(dir: &Path, first_seq: u64) -> io::Result<RecordSegmentReader> {
        let stem = record_stem(first_seq);
        let idx_path = dir.join(format!("{stem}.idx"));
        let dat_path = dir.join(format!("{stem}.dat"));
        let idx = read_framed(&idx_path, REC_INDEX_MAGIC)?;
        let data_bytes = read_framed(&dat_path, REC_DATA_MAGIC)?.body().len() as u64;
        let mut r = BodyReader::new(idx.body());
        let parsed: Result<_, String> = (|| {
            let stored_seq = r.u64()?;
            let records = r.u64()?;
            let min_t = r.f64()?;
            let max_t = r.f64()?;
            r.expect_end()?;
            Ok((stored_seq, records, min_t, max_t))
        })();
        let (stored_seq, records, min_t, max_t) = parsed.map_err(|e| corrupt(&idx_path, e))?;
        if stored_seq != first_seq {
            return Err(corrupt(
                &idx_path,
                format!("index claims first_seq {stored_seq}, file name says {first_seq}"),
            ));
        }
        Ok(RecordSegmentReader {
            first_seq,
            records,
            min_t,
            max_t,
            data_bytes,
            dat_path,
        })
    }

    /// Whether `[lo, hi]` overlaps this segment's time fences.
    pub fn overlaps(&self, lo: f64, hi: f64) -> bool {
        self.records > 0 && lo <= self.max_t && hi >= self.min_t
    }

    /// Payload bytes of the data file (frame body, headers excluded).
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Decodes every record, strictly. The data file is re-opened and
    /// re-validated as at [`Self::open`] (container CRC included), so a
    /// file damaged since then is an error, as are torn or corrupt
    /// frames and a count mismatch against the index.
    pub fn decode_all(&self) -> io::Result<Vec<StreamRecord>> {
        let data = read_framed(&self.dat_path, REC_DATA_MAGIC)?;
        let records = wal::decode_frames(data.body(), f64::NEG_INFINITY)
            .map_err(|e| corrupt(&self.dat_path, e))?;
        if records.len() as u64 != self.records {
            return Err(corrupt(
                &self.dat_path,
                format!(
                    "index claims {} records, data decodes {}",
                    self.records,
                    records.len()
                ),
            ));
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_types::{vector::unit_vector, Timestamp};
    use std::fs;
    use std::path::PathBuf;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sssj-segment-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn edge(l: u64, r: u64, sim: f64, t: f64) -> ExpiredEdge {
        ExpiredEdge {
            left: l,
            right: r,
            similarity: sim,
            t,
        }
    }

    #[test]
    fn edge_segment_roundtrips_with_time_filters() {
        let dir = tdir("edges");
        let edges = vec![
            edge(1, 2, 0.9, 10.0),
            edge(1, 3, 0.8, 11.0),
            edge(2, 3, 0.7, 12.0),
        ];
        let (min_t, max_t, rows) = write_edge_segment(&dir, 0, &edges, false).unwrap();
        assert_eq!((min_t, max_t, rows), (10.0, 12.0, 6));
        let seg = EdgeSegmentReader::open(&dir, 0).unwrap();
        let mut out = Vec::new();
        seg.edges_of(1, 0.0, 100.0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].neighbor, 2);
        assert_eq!(out[1].neighbor, 3);
        out.clear();
        // The time filter prunes rows, the fences prune whole calls.
        seg.edges_of(1, 10.5, 100.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].neighbor, 3);
        out.clear();
        seg.edges_of(1, 50.0, 100.0, &mut out);
        assert!(out.is_empty());
        // Both directions of an edge resolve.
        seg.edges_of(3, 0.0, 100.0, &mut out);
        assert_eq!(out.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn edge_segment_rejects_inconsistent_index() {
        let dir = tdir("edges-bad");
        let edges = vec![edge(1, 2, 0.9, 10.0)];
        write_edge_segment(&dir, 0, &edges, false).unwrap();
        // Truncate the data file: the index's row count no longer matches.
        let dat = dir.join(format!("{}.dat", edge_stem(0)));
        let bytes = fs::read(&dat).unwrap();
        fs::write(&dat, &bytes[..bytes.len() - EDGE_ROW_BYTES]).unwrap();
        assert!(EdgeSegmentReader::open(&dir, 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_segment_roundtrips() {
        let dir = tdir("recs");
        let mut log = sssj_store::Wal::create(&dir, 64, false).unwrap();
        for i in 0..50u64 {
            let r = StreamRecord::new(i, Timestamp::new(i as f64), unit_vector(&[(3, 1.0)]));
            log.append(&r).unwrap();
        }
        drop(log); // flushes
        let sealed = SealedSegment::read(&dir.join("wal/seg-0000000000000000.wal")).unwrap();
        write_record_segment(&dir, &sealed, false).unwrap();
        let seg = RecordSegmentReader::open(&dir, 0).unwrap();
        assert_eq!(seg.records, 50);
        assert_eq!((seg.min_t, seg.max_t), (0.0, 49.0));
        let decoded = seg.decode_all().unwrap();
        assert_eq!(decoded.len(), 50);
        assert_eq!(decoded[17].id, 17);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_segment_decode_revalidates_the_file() {
        let dir = tdir("recs-revalidate");
        let mut log = sssj_store::Wal::create(&dir, 64, false).unwrap();
        for i in 0..50u64 {
            let r = StreamRecord::new(i, Timestamp::new(i as f64), unit_vector(&[(3, 1.0)]));
            log.append(&r).unwrap();
        }
        drop(log); // flushes
        let sealed = SealedSegment::read(&dir.join("wal/seg-0000000000000000.wal")).unwrap();
        write_record_segment(&dir, &sealed, false).unwrap();
        let seg = RecordSegmentReader::open(&dir, 0).unwrap();

        // Flip one byte of the first record's id, then re-seal that
        // frame's own CRC: the WAL frame walker would accept the bytes,
        // so only the container CRC, checked again by the decode, can
        // see the damage. The file is rewritten in place at its length.
        let dat = dir.join(format!("{}.dat", record_stem(0)));
        let mut bytes = fs::read(&dat).unwrap();
        let frame = &mut bytes[crate::format::HEADER_LEN..];
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        frame[8] ^= 0x01;
        let crc = sssj_store::crc::crc32c(&frame[8..8 + len]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        {
            use std::io::Write;
            let mut f = fs::OpenOptions::new().write(true).open(&dat).unwrap();
            f.write_all(&bytes).unwrap();
        }

        let err = seg.decode_all().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
