//! The MB framework (Algorithm 1 + the two-window fix of §6.1).
//!
//! MB is STR without time filtering: each window runs on one
//! [`Streaming`] index with `τ = ∞` (`Streaming::untimed`), emptied
//! between windows, whose verification applies the exact decay factor
//! against `θ` — the paper's `ApplyDecay`.

use sssj_metrics::JoinStats;
use sssj_types::{SimilarPair, SparseVector, StreamRecord};

use sssj_index::IndexKind;

use crate::algorithm::{ShardableJoin, StreamJoin};
use crate::config::SssjConfig;
use crate::Streaming;

/// MB-IDX: the MiniBatch streaming similarity self-join.
///
/// The stream is cut into consecutive windows of length `τ`. When window
/// `W_k` closes:
///
/// 1. the max vectors of `W_{k−1}` and `W_k` are combined (§6.1: the
///    AP-family `b1` bound must cover the window that will *query* the
///    index, which is only known one window later);
/// 2. the emptied window index is built over `W_{k−1}`, reporting all
///    within-window pairs of `W_{k−1}` (with delay — the drawback the
///    paper notes);
/// 3. every vector of `W_k` queries that index, reporting the
///    cross-window pairs.
///
/// The index over `W_{k−1}` is then emptied wholesale — MB never prunes
/// posting lists, it throws whole windows away. All pairs pass through
/// `ApplyDecay`: the exact time-dependent similarity is checked against
/// `θ` before reporting. Pairs further apart than `τ` can never join, and
/// any pair within `τ` lands either in one window or in two adjacent
/// ones, so the output is complete.
pub struct MiniBatch {
    config: SssjConfig,
    tau: f64,
    window_end: Option<f64>,
    /// Buffered windows; the flag marks records this join *indexes* (in
    /// sharded execution only owned records are indexed — unflagged ones
    /// query the window index but never enter it).
    prev: Vec<(StreamRecord, bool)>,
    cur: Vec<(StreamRecord, bool)>,
    /// The window index: untimed STR, restarted at every window close.
    index: Streaming,
    stats: JoinStats,
}

impl MiniBatch {
    /// Creates an MB join with the given index variant.
    ///
    /// With `λ = 0` the horizon is infinite and MB degenerates to a single
    /// batch join flushed by [`StreamJoin::finish`].
    pub fn new(config: SssjConfig, kind: IndexKind) -> Self {
        MiniBatch {
            config,
            tau: config.tau(),
            window_end: None,
            prev: Vec::new(),
            cur: Vec::new(),
            index: Streaming::untimed(config.theta, kind, config.decay().into()),
            stats: JoinStats::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> SssjConfig {
        self.config
    }

    /// The index variant.
    pub fn kind(&self) -> IndexKind {
        self.index.kind()
    }

    /// Estimated heap footprint of the buffered state, in bytes.
    ///
    /// MB buffers the previous and current windows as raw records (up to
    /// `2τ` of stream) and keeps the window index's allocations between
    /// windows, counted by [`Streaming::memory_bytes`]; like that, this is
    /// an O(state) estimate to be sampled, not read per record.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let window = |records: &[(StreamRecord, bool)]| -> u64 {
            records
                .iter()
                .map(|(r, _)| size_of::<StreamRecord>() as u64 + r.vector.nnz() as u64 * 12)
                .sum()
        };
        window(&self.prev) + window(&self.cur) + self.index.memory_bytes()
    }

    /// Closes the current window: indexes `prev` (reporting its
    /// within-window pairs), streams `cur` through the index (reporting
    /// cross-window pairs), then shifts the windows.
    fn flush_window(&mut self, out: &mut Vec<SimilarPair>) {
        // §6.1: m must cover both the indexed and the querying window,
        // every buffered record — indexed or not.
        let coords = buffered(&self.prev, &self.cur).flat_map(SparseVector::iter);
        self.index.seed_max(coords);
        // IndConstr over the previous window: query-then-insert finds all
        // pairs within it. Unflagged (non-owned) records query but are
        // never indexed, so a pair is reported only by the shard that
        // owns its earlier member.
        for (r, indexed) in &self.prev {
            self.index.process_routed(r, *indexed, out);
        }
        let indexed = self.index.live_postings();
        // Query phase: the current window probes the previous one.
        for (r, _) in &self.cur {
            self.index.query(r, out);
        }
        // The index scored every pair with the exact decay factor, so
        // its counts (pairs included) are the window's as they stand.
        self.stats += self.index.stats();
        self.stats.windows += 1;
        self.stats
            .observe_postings(indexed + self.buffered_coords());

        self.index.restart(buffered(&self.prev, &self.cur));
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.cur.clear();
    }

    fn buffered_coords(&self) -> u64 {
        buffered(&self.prev, &self.cur)
            .map(|x| x.nnz() as u64)
            .sum()
    }
}

/// The vectors of both buffered windows, indexed or not.
fn buffered<'a>(
    prev: &'a [(StreamRecord, bool)],
    cur: &'a [(StreamRecord, bool)],
) -> impl Iterator<Item = &'a SparseVector> {
    prev.iter().chain(cur).map(|(r, _)| &r.vector)
}

impl ShardableJoin for MiniBatch {
    fn process_routed(&mut self, record: &StreamRecord, insert: bool, out: &mut Vec<SimilarPair>) {
        let t = record.t.seconds();
        let end = *self.window_end.get_or_insert(t + self.tau);
        if t >= end {
            self.flush_window(out);
            // Advance the window grid; skip over empty windows.
            let mut new_end = end + self.tau;
            if t >= new_end {
                // More than one full window elapsed: flush once more so the
                // stale "previous" window is indexed/reported, then restart
                // the grid at the current time.
                self.flush_window(out);
                new_end = t + self.tau;
            }
            self.window_end = Some(new_end);
        }
        self.cur.push((record.clone(), insert));
        self.stats.observe_postings(self.buffered_coords());
    }

    /// MB probes pairs as far apart as `2τ`, but `ApplyDecay` rejects
    /// everything beyond `τ`, so dimension occupancy older than `τ`
    /// cannot contribute output.
    fn occupancy_horizon(&self) -> Option<f64> {
        Some(self.tau)
    }
}

impl crate::algorithm::Checkpointable for MiniBatch {
    /// MB has no state that outlives its two buffered windows: the
    /// per-window max vectors are rebuilt by replay, and the window grid
    /// re-anchors on the first replayed record. A shifted grid changes
    /// *when* pairs are reported, never *which* — any pair within `τ`
    /// lands in the same or adjacent windows under every grid phase, and
    /// `ApplyDecay` filters exactly — which is all the set-based replay
    /// suppression of `sssj-store` needs.
    fn write_aux(&mut self, _out: &mut Vec<u8>) {}

    fn read_aux(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "MiniBatch carries no aux state, got {} bytes",
                bytes.len()
            ))
        }
    }

    /// Two windows of length `τ` stay buffered (the previous window is
    /// probed by the current one), so replay needs `2τ` of history to
    /// rebuild the exact buffered state. Infinite when `λ = 0` (the
    /// degenerate single-batch mode) — the WAL is then never collected.
    fn replay_horizon(&self) -> f64 {
        2.0 * self.tau
    }
}

impl StreamJoin for MiniBatch {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        self.process_routed(record, true, out);
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        // Flush the trailing two windows: first `prev` is indexed and
        // queried by `cur`, then the shifted `prev` (the old `cur`) is
        // indexed to report its within-window pairs.
        self.flush_window(out);
        self.flush_window(out);
        self.window_end = None;
    }

    fn stats(&self) -> JoinStats {
        self.stats
    }

    fn live_postings(&self) -> u64 {
        self.buffered_coords()
    }

    fn name(&self) -> String {
        format!("MB-{}", self.index.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::run_stream;
    use sssj_types::{vector::unit_vector, Timestamp};

    fn rec(id: u64, t: f64, entries: &[(u32, f64)]) -> StreamRecord {
        StreamRecord::new(id, Timestamp::new(t), unit_vector(entries))
    }

    fn run(kind: IndexKind, config: SssjConfig, stream: &[StreamRecord]) -> Vec<(u64, u64)> {
        let mut join = MiniBatch::new(config, kind);
        let mut keys: Vec<_> = run_stream(&mut join, stream)
            .iter()
            .map(|p| p.key())
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn within_window_pair_is_reported() {
        let config = SssjConfig::new(0.5, 0.01); // τ ≈ 69
        let stream = vec![rec(0, 0.0, &[(1, 1.0)]), rec(1, 1.0, &[(1, 1.0)])];
        for kind in IndexKind::ALL {
            assert_eq!(run(kind, config, &stream), vec![(0, 1)], "{kind}");
        }
    }

    #[test]
    fn cross_window_pair_is_reported() {
        let config = SssjConfig::new(0.5, 0.01);
        let tau = config.tau();
        // Two identical vectors in adjacent windows, within τ of each
        // other.
        let stream = vec![
            rec(0, tau * 0.9, &[(1, 1.0)]),
            rec(1, tau * 1.1, &[(1, 1.0)]),
        ];
        for kind in IndexKind::ALL {
            assert_eq!(run(kind, config, &stream), vec![(0, 1)], "{kind}");
        }
    }

    #[test]
    fn beyond_horizon_pair_is_suppressed() {
        let config = SssjConfig::new(0.5, 0.1); // τ ≈ 6.93
        let stream = vec![rec(0, 0.0, &[(1, 1.0)]), rec(1, 50.0, &[(1, 1.0)])];
        for kind in IndexKind::ALL {
            assert!(run(kind, config, &stream).is_empty(), "{kind}");
        }
    }

    #[test]
    fn adjacent_window_pair_beyond_tau_is_decay_filtered() {
        // Both vectors land in adjacent windows but Δt ∈ (τ, 2τ): MB
        // tests the pair, ApplyDecay must reject it.
        let config = SssjConfig::new(0.5, 0.01);
        let tau = config.tau();
        let stream = vec![
            rec(0, tau * 0.1, &[(1, 1.0)]),
            rec(1, tau * 1.9, &[(1, 1.0)]),
        ];
        for kind in IndexKind::ALL {
            assert!(run(kind, config, &stream).is_empty(), "{kind}");
        }
    }

    #[test]
    fn zero_lambda_degenerates_to_batch_join() {
        let config = SssjConfig::new(0.9, 0.0);
        let stream = vec![rec(0, 0.0, &[(1, 1.0)]), rec(1, 1e9, &[(1, 1.0)])];
        assert_eq!(run(IndexKind::L2, config, &stream), vec![(0, 1)]);
    }

    #[test]
    fn long_gaps_do_not_leak_pairs_or_panic() {
        let config = SssjConfig::new(0.5, 0.1);
        let stream = vec![
            rec(0, 0.0, &[(1, 1.0)]),
            rec(1, 1.0, &[(1, 1.0)]),
            rec(2, 1000.0, &[(1, 1.0)]),
            rec(3, 1001.0, &[(1, 1.0)]),
            rec(4, 5000.0, &[(1, 1.0)]),
        ];
        for kind in IndexKind::ALL {
            assert_eq!(run(kind, config, &stream), vec![(0, 1), (2, 3)], "{kind}");
        }
    }

    #[test]
    fn windows_counter_advances() {
        let config = SssjConfig::new(0.5, 1.0); // τ ≈ 0.69
        let stream: Vec<_> = (0..20).map(|i| rec(i, i as f64, &[(1, 1.0)])).collect();
        let mut join = MiniBatch::new(config, IndexKind::L2);
        run_stream(&mut join, &stream);
        assert!(
            join.stats().windows >= 19,
            "windows={}",
            join.stats().windows
        );
    }

    #[test]
    fn name_includes_kind() {
        let join = MiniBatch::new(SssjConfig::new(0.5, 0.1), IndexKind::Inv);
        assert_eq!(join.name(), "MB-INV");
    }
}
