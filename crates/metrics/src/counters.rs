//! Work counters shared by every join algorithm.

use std::fmt;
use std::ops::AddAssign;

/// Counters of the quantities §7 of the paper reports.
///
/// "Entries traversed" (Figures 2 and 6) counts posting entries examined
/// during candidate generation; "candidates" counts vectors admitted to
/// the accumulator; "full similarities" counts candidate-verification dot
/// products against residuals (the expensive exact step).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Posting entries examined during candidate generation.
    pub entries_traversed: u64,
    /// Vectors admitted to the candidate accumulator at least once.
    pub candidates: u64,
    /// Exact residual dot products computed during verification.
    pub full_sims: u64,
    /// Similar pairs emitted.
    pub pairs_output: u64,
    /// Posting entries appended to the inverted index.
    pub postings_added: u64,
    /// Coordinates stored in the residual direct index `R`.
    pub residual_coords: u64,
    /// Posting entries dropped by time filtering.
    pub entries_pruned: u64,
    /// Vectors whose residual was re-indexed after a max-vector increase
    /// (STR-L2AP only).
    pub reindexed_vectors: u64,
    /// Posting entries inserted by re-indexing.
    pub reindexed_postings: u64,
    /// Peak number of live posting entries (memory proxy).
    pub peak_postings: u64,
    /// MiniBatch windows completed.
    pub windows: u64,
}

impl JoinStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the current live-entry count, tracking the peak.
    pub fn observe_postings(&mut self, live: u64) {
        if live > self.peak_postings {
            self.peak_postings = live;
        }
    }
}

impl AddAssign for JoinStats {
    fn add_assign(&mut self, o: Self) {
        self.entries_traversed += o.entries_traversed;
        self.candidates += o.candidates;
        self.full_sims += o.full_sims;
        self.pairs_output += o.pairs_output;
        self.postings_added += o.postings_added;
        self.residual_coords += o.residual_coords;
        self.entries_pruned += o.entries_pruned;
        self.reindexed_vectors += o.reindexed_vectors;
        self.reindexed_postings += o.reindexed_postings;
        self.peak_postings = self.peak_postings.max(o.peak_postings);
        self.windows += o.windows;
    }
}

impl fmt::Display for JoinStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entries={} candidates={} full_sims={} pairs={} postings={} pruned={} reindexed={} peak={}",
            self.entries_traversed,
            self.candidates,
            self.full_sims,
            self.pairs_output,
            self.postings_added,
            self.entries_pruned,
            self.reindexed_vectors,
            self.peak_postings,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_and_maxes_peak() {
        let mut a = JoinStats {
            entries_traversed: 10,
            peak_postings: 5,
            ..Default::default()
        };
        let b = JoinStats {
            entries_traversed: 3,
            peak_postings: 9,
            pairs_output: 2,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.entries_traversed, 13);
        assert_eq!(a.peak_postings, 9);
        assert_eq!(a.pairs_output, 2);
    }

    #[test]
    fn observe_postings_tracks_peak() {
        let mut s = JoinStats::new();
        s.observe_postings(4);
        s.observe_postings(2);
        assert_eq!(s.peak_postings, 4);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = JoinStats {
            pairs_output: 7,
            ..Default::default()
        };
        assert!(s.to_string().contains("pairs=7"));
    }
}
