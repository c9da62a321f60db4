//! The common streaming-join interface and the paper's two frameworks.

use std::fmt;

use sssj_collections::varint;
use sssj_metrics::JoinStats;
use sssj_types::{SimilarPair, StreamRecord};

/// A streaming similarity self-join algorithm.
///
/// Feed records in non-decreasing timestamp order with
/// [`StreamJoin::process`]; call [`StreamJoin::finish`] once at the end of
/// the stream to flush anything buffered (the MiniBatch framework reports
/// within-window pairs with delay).
///
/// `Send` is a supertrait: a join is *driven* by one thread at a time
/// but may be *handed between* threads — ingest pipelines move joins
/// into worker threads.
pub trait StreamJoin: Send {
    /// Consumes one record, appending any pairs it completes to `out`.
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>);

    /// Flushes buffered output at end-of-stream.
    fn finish(&mut self, out: &mut Vec<SimilarPair>);

    /// Work counters accumulated so far.
    fn stats(&self) -> JoinStats;

    /// Live posting entries (memory proxy for budgeted runs).
    fn live_postings(&self) -> u64;

    /// Human-readable name, e.g. `STR-L2`.
    fn name(&self) -> String;

    /// For joins that resumed from durable storage (`sssj-store`): the
    /// `(records already ingested, timestamp of the newest ingested
    /// record)` pair a caller needs to continue the stream seamlessly —
    /// id assignment restarts after the recovered prefix and the
    /// monotonic-timestamp check picks up at the recovered watermark.
    /// `None` for every non-resumed join. Wrappers forward it.
    fn resume_point(&self) -> Option<(u64, f64)> {
        None
    }
}

impl StreamJoin for Box<dyn StreamJoin> {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        (**self).process(record, out)
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        (**self).finish(out)
    }

    fn stats(&self) -> JoinStats {
        (**self).stats()
    }

    fn live_postings(&self) -> u64 {
        (**self).live_postings()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn resume_point(&self) -> Option<(u64, f64)> {
        (**self).resume_point()
    }
}

/// A [`StreamJoin`] the durability subsystem (`sssj-store`) can
/// checkpoint and rebuild.
///
/// The design splits recoverable state in two. The bulk — everything a
/// pair can still be formed from — is a deterministic function of the
/// recent record stream, which the write-ahead log already persists; it
/// is rebuilt by *replaying* the WAL through a freshly built engine. The
/// checkpoint itself only carries what replay cannot reconstruct:
///
/// * **aux state** that accumulates beyond the replay horizon (the STR
///   running-max vector `m`, which steers indexing decisions for all
///   future records — see [`crate::Streaming::seed_max`]; empty for
///   non-AP indexes and for [`crate::Streaming::with_decay`]); engines
///   with none (MiniBatch) write an empty blob;
/// * the set of **recently emitted pairs**, so replay can suppress
///   output that was already delivered before the checkpoint (the
///   exactly-once half of recovery; see `sssj-store`'s crate docs for
///   the correctness argument).
///
/// Implemented by [`crate::Streaming`] (every decay model, see
/// [`crate::Streaming::with_decay`]), [`crate::MiniBatch`] and (in
/// `sssj-parallel`) the sharded driver, which captures aux per shard at
/// a batch boundary so the cut is consistent.
pub trait Checkpointable: StreamJoin {
    /// Serialises the engine-specific aux state (empty when the engine
    /// has none). Takes `&mut self` because asynchronous engines (the
    /// sharded driver) must flush in-flight batches to capture a
    /// consistent cut.
    fn write_aux(&mut self, out: &mut Vec<u8>);

    /// Seeds aux state written by [`Checkpointable::write_aux`] into a
    /// freshly built engine, before WAL replay.
    fn read_aux(&mut self, bytes: &[u8]) -> Result<(), String>;

    /// How long (in stream-time units) a record stays *output-relevant*:
    /// a WAL segment whose newest record is older than `now − horizon`
    /// can never contribute a pair again and may be garbage-collected
    /// once a checkpoint covers it. `f64::INFINITY` disables GC (e.g.
    /// MiniBatch with `λ = 0`).
    fn replay_horizon(&self) -> f64;

    /// Drains all in-flight asynchronous work so that every pair
    /// completed by already-processed records has surfaced in `out`.
    /// Synchronous engines need nothing; the sharded driver flushes its
    /// pending batch and round-trips every worker.
    fn quiesce(&mut self, _out: &mut Vec<SimilarPair>) {}
}

/// Largest dimension id any decoded state (checkpoint aux, WAL frame)
/// may carry.
///
/// The join keeps one posting-list slot per dimension and the running
/// max vector is dense, so a dimension id taken from untrusted bytes
/// translates directly into an attacker-chosen allocation: every reader
/// must reject ids above this bound **before** any structure sized by
/// the id is touched. 2²⁴ ≈ 16.8 M caps that allocation at ~hundreds
/// of MB while still covering the paper's 10⁵–10⁶-dimensional corpora
/// with an order of magnitude to spare.
pub const MAX_SNAPSHOT_DIM: u32 = 1 << 24;

/// Encodes a max-vector aux blob (the [`Checkpointable`] aux state of
/// [`crate::Streaming`]): entry count, then per entry the dimension as
/// a strictly-increasing delta varint and the raw `f64` value. Entries
/// are sorted by dimension here, so callers can pass
/// [`crate::Streaming::max_entries`] directly.
pub fn write_max_aux(entries: &[(u32, f64)], out: &mut Vec<u8>) {
    let mut sorted: Vec<(u32, f64)> = entries.to_vec();
    sorted.sort_unstable_by_key(|&(d, _)| d);
    varint::write_u64(sorted.len() as u64, out);
    let mut prev = 0u64;
    for (dim, v) in sorted {
        varint::write_u64(dim as u64 - prev, out);
        prev = dim as u64 + 1;
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes an aux blob written by [`write_max_aux`] as untrusted input:
/// dimension ids are rejected above [`MAX_SNAPSHOT_DIM`] *before*
/// anything is sized from them, and values must be finite and in
/// `(0, 1]`.
pub fn read_max_aux(bytes: &[u8]) -> Result<Vec<(u32, f64)>, String> {
    let mut pos = 0usize;
    let u64_at = |bytes: &[u8], pos: &mut usize| -> Result<u64, String> {
        let (v, n) = varint::read_u64(&bytes[*pos..]).map_err(|e| format!("varint: {e}"))?;
        *pos += n;
        Ok(v)
    };
    let len = u64_at(bytes, &mut pos)?;
    if len > MAX_SNAPSHOT_DIM as u64 {
        return Err(format!("absurd aux length {len}"));
    }
    let mut entries = Vec::with_capacity((len as usize).min(65_536));
    let mut prev = 0u64;
    for _ in 0..len {
        let dim = prev + u64_at(bytes, &mut pos)?;
        if dim > MAX_SNAPSHOT_DIM as u64 {
            return Err(format!("aux dimension {dim} too large"));
        }
        prev = dim + 1;
        let end = pos
            .checked_add(8)
            .filter(|&e| e <= bytes.len())
            .ok_or("truncated aux value")?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[pos..end]);
        pos = end;
        let v = f64::from_le_bytes(b);
        if !v.is_finite() || v <= 0.0 || v > 1.0 + 1e-9 {
            return Err(format!("invalid aux value {v}"));
        }
        entries.push((dim as u32, v));
    }
    if pos != bytes.len() {
        return Err(format!("{} trailing aux bytes", bytes.len() - pos));
    }
    Ok(entries)
}

/// The query/insert decomposition of a streaming join, plus the
/// index-dimension occupancy information candidate-aware routing needs.
///
/// Sharded execution (`sssj-parallel`) partitions [`StreamJoin::process`]
/// into two halves: every shard may *query* with a record, but each record
/// is *inserted* at exactly one shard, so a pair is found exactly once —
/// at the shard owning its earlier member. Engines that support that
/// decomposition implement this trait; [`crate::JoinSpec::build_shard_worker`]
/// constructs them for the sharded driver.
pub trait ShardableJoin: StreamJoin {
    /// Processes one record, making it findable by later arrivals only
    /// when `insert` is true (query-only otherwise). With `insert` always
    /// true this must behave exactly like [`StreamJoin::process`].
    fn process_routed(&mut self, record: &StreamRecord, insert: bool, out: &mut Vec<SimilarPair>);

    /// The engine's dimension-occupancy horizon: `Some(τ)` when a query
    /// can only pair with records that were *inserted* within the last
    /// `τ` time units **and** share at least one vector dimension with it
    /// — the contract that lets a sharded driver skip shards holding no
    /// live posting on any of the query's dimensions. `None` when
    /// candidate generation is not dimension-driven (e.g. LSH signature
    /// banding, where even disjoint-support vectors can collide): the
    /// driver must broadcast queries to every shard.
    fn occupancy_horizon(&self) -> Option<f64>;

    /// Serialises this worker's checkpoint aux state (see
    /// [`Checkpointable::write_aux`]); the sharded driver requests it
    /// over the control channel at a batch boundary and merges the
    /// per-shard blobs. Default: no aux.
    fn checkpoint_aux(&self, _out: &mut Vec<u8>) {}

    /// Seeds merged aux state into this worker before replay. Seeding a
    /// *merged* (hence possibly larger) max vector is safe for the AP
    /// family: a larger `m` only indexes more eagerly, never drops a
    /// reachable pair. Default: ignore.
    fn seed_checkpoint_aux(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

/// The two algorithmic frameworks of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Framework {
    /// MiniBatch (MB): batch indexes over τ-sized windows.
    MiniBatch,
    /// Streaming (STR): one incrementally maintained, time-filtered index.
    Streaming,
}

impl Framework {
    /// Both frameworks, in the paper's order.
    pub const ALL: [Framework; 2] = [Framework::MiniBatch, Framework::Streaming];

    /// Parses the names used by the CLI and the harness.
    pub fn parse(s: &str) -> Option<Framework> {
        match s.to_ascii_lowercase().as_str() {
            "mb" | "minibatch" => Some(Framework::MiniBatch),
            "str" | "streaming" => Some(Framework::Streaming),
            _ => None,
        }
    }
}

impl fmt::Display for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Framework::MiniBatch => "MB",
            Framework::Streaming => "STR",
        })
    }
}

/// Runs an algorithm over a full stream and returns all reported pairs.
pub fn run_stream(join: &mut dyn StreamJoin, stream: &[StreamRecord]) -> Vec<SimilarPair> {
    let mut out = Vec::new();
    for r in stream {
        join.process(r, &mut out);
    }
    join.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JoinSpec, SssjConfig};
    use sssj_index::IndexKind;

    #[test]
    fn framework_parse_roundtrips() {
        for f in Framework::ALL {
            assert_eq!(Framework::parse(&f.to_string()), Some(f));
        }
        assert_eq!(Framework::parse("minibatch"), Some(Framework::MiniBatch));
        assert_eq!(Framework::parse("bogus"), None);
    }

    #[test]
    fn factory_builds_all_combinations() {
        let config = SssjConfig::new(0.7, 0.1);
        for f in Framework::ALL {
            for k in IndexKind::ALL {
                let join = JoinSpec::classic(f, k, config).build().unwrap();
                assert!(join.name().starts_with(&f.to_string()));
            }
        }
    }

    #[test]
    fn max_aux_roundtrips_and_rejects_corruption() {
        let entries = vec![(3u32, 0.25f64), (100, 1.0), (7, 0.5)];
        let mut blob = Vec::new();
        write_max_aux(&entries, &mut blob);
        let back = read_max_aux(&blob).unwrap();
        assert_eq!(back, vec![(3, 0.25), (7, 0.5), (100, 1.0)]);
        // Empty blob round-trips.
        let mut empty = Vec::new();
        write_max_aux(&[], &mut empty);
        assert!(read_max_aux(&empty).unwrap().is_empty());
        // Truncations and bit-flips never panic; truncations always err.
        for cut in 0..blob.len() {
            assert!(read_max_aux(&blob[..cut]).is_err(), "cut at {cut}");
        }
        for pos in 0..blob.len() {
            let mut corrupted = blob.clone();
            corrupted[pos] ^= 0x41;
            let _ = read_max_aux(&corrupted);
        }
        // A hostile dimension is rejected without allocation.
        let mut hostile = Vec::new();
        varint::write_u64(1, &mut hostile);
        varint::write_u64(MAX_SNAPSHOT_DIM as u64 + 1, &mut hostile);
        hostile.extend_from_slice(&0.5f64.to_le_bytes());
        assert!(read_max_aux(&hostile).unwrap_err().contains("too large"));
    }
}
