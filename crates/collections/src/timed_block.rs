//! [`TimedBlock`] — the flat single-allocation block idiom of
//! [`crate::PostingBlock`], generalised over the entry payload.
//!
//! The posting lists of the join engines and the adjacency lists of the
//! live similarity graph (`sssj-graph`) share one storage discipline:
//! entries carry a non-decreasing emission time, the hot operations are
//! *append at the new end* and *expire a prefix at `now − τ`*, and the
//! scan over the live region must be a plain slice walk. This module
//! factors that discipline out of the L2AP-specific `PostingBlock` so
//! any `Copy` payload with a time field can use it: one contiguous
//! buffer, a `start` cursor making front truncation O(1), binary-search
//! horizon expiry, amortised in-place compaction once the dead prefix
//! dominates, and deep-hysteresis capacity release (a block oscillating
//! around a steady occupancy performs zero heap allocations — see the
//! measurement notes on [`crate::posting`]).

/// Initial per-block capacity (entries).
const FIRST_CAP: usize = 8;

/// An entry storable in a [`TimedBlock`]: `Copy` payload exposing its
/// (non-decreasing within a block) emission time.
pub trait TimedEntry: Copy {
    /// The entry's emission time, in seconds.
    fn time(&self) -> f64;
}

/// A flat, single-allocation block of time-stamped entries with O(1)
/// front truncation and O(log n) horizon expiry.
#[derive(Clone, Debug)]
pub struct TimedBlock<P> {
    buf: Vec<P>,
    /// Index of the first live entry; everything before it is dead.
    start: usize,
}

impl<P> Default for TimedBlock<P> {
    fn default() -> Self {
        TimedBlock {
            buf: Vec::new(),
            start: 0,
        }
    }
}

impl<P: TimedEntry> TimedBlock<P> {
    /// Creates an empty block (no allocation until the first push).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the block has no live entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.len() == self.start
    }

    /// Allocated entry capacity (for memory accounting).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Estimated heap footprint in bytes.
    pub fn heap_bytes(&self) -> u64 {
        (self.buf.capacity() * std::mem::size_of::<P>()) as u64
    }

    /// The live entries, oldest first.
    #[inline]
    pub fn entries(&self) -> &[P] {
        &self.buf[self.start..]
    }

    /// Appends an entry at the new end.
    #[inline]
    pub fn push(&mut self, entry: P) {
        if self.buf.len() == self.buf.capacity() {
            self.reserve_more();
        }
        self.buf.push(entry);
    }

    /// Growth is explicit (not `Vec`'s) so a dead prefix is compacted
    /// away before any reallocation, the first allocation is
    /// [`FIRST_CAP`] entries rather than `Vec`'s minimum, and the
    /// compaction/shrink policy stays in one place.
    #[cold]
    fn reserve_more(&mut self) {
        if self.start > 0 {
            self.compact();
            if self.buf.len() < self.buf.capacity() {
                return; // Compaction made room; no growth needed.
            }
        }
        let target = (self.buf.capacity() * 2).max(FIRST_CAP);
        self.buf.reserve_exact(target - self.buf.len());
    }

    /// Drops the `n` oldest live entries in O(1) (amortised).
    pub fn truncate_front(&mut self, n: usize) {
        self.start += n.min(self.len());
        self.maybe_compact();
    }

    /// Drops every live entry whose time is `< cutoff`, assuming times
    /// are non-decreasing, and returns how many were dropped. O(log n)
    /// search + O(1) truncation.
    pub fn expire_before(&mut self, cutoff: f64) -> usize {
        let live = self.entries();
        if live.first().is_none_or(|e| e.time() >= cutoff) {
            return 0; // Nothing expired: the common steady-state case.
        }
        let n = live.partition_point(|e| e.time() < cutoff);
        self.truncate_front(n);
        n
    }

    /// Like [`Self::expire_before`], but partitioning a caller-provided
    /// flat word view of the live entries with the SIMD strided-scan
    /// kernel. `view` must reinterpret the slice as `stride` `u64`
    /// words per entry with the time (an `f64` bit pattern) at word
    /// `offset` — a `repr(C)` payload's raw words. Small blocks keep
    /// the binary search (the vector setup doesn't pay for itself);
    /// behaviour is identical to [`Self::expire_before`].
    pub fn expire_before_strided(
        &mut self,
        cutoff: f64,
        stride: usize,
        offset: usize,
        view: impl FnOnce(&[P]) -> &[u64],
    ) -> usize {
        let live = self.entries();
        if live.len() <= 128 || live.first().is_none_or(|e| e.time() >= cutoff) {
            return self.expire_before(cutoff);
        }
        let n = sssj_kernels::partition_time_strided(view(live), stride, offset, cutoff);
        self.truncate_front(n);
        n
    }

    /// Inserts `entry` before the live entry at `index`, shifting the
    /// newer ones up (`len()` appends; a larger index panics). The caller
    /// keeps times non-decreasing.
    pub fn insert(&mut self, index: usize, entry: P) {
        if self.buf.len() == self.buf.capacity() {
            self.reserve_more();
        }
        self.buf.insert(self.start + index, entry);
    }

    /// Removes all entries; keeps the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }

    /// Moves the live region to the front (capacity untouched).
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start.., 0);
            let live = self.buf.len() - self.start;
            self.buf.truncate(live);
            self.start = 0;
        }
    }

    /// Compacts the dead prefix away once it outweighs the live region
    /// (amortised O(1); capacity untouched unless occupancy collapsed).
    fn maybe_compact(&mut self) {
        let live = self.len();
        if self.start >= live.max(32) {
            self.compact();
            self.maybe_shrink();
        }
    }

    /// Occupancy-based capacity release with deep hysteresis: shrink only
    /// when the live region falls below ⅛ of a non-trivial allocation,
    /// and leave 4× headroom (see the policy discussion on
    /// [`crate::posting`]).
    fn maybe_shrink(&mut self) {
        let cap = self.buf.capacity();
        let live = self.buf.len();
        if cap > 64 && live * 8 < cap {
            self.buf.shrink_to((live * 4).max(FIRST_CAP));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct E {
        id: u64,
        t: f64,
    }

    impl TimedEntry for E {
        fn time(&self) -> f64 {
            self.t
        }
    }

    fn filled(n: usize) -> TimedBlock<E> {
        let mut b = TimedBlock::new();
        for i in 0..n {
            b.push(E {
                id: i as u64,
                t: i as f64,
            });
        }
        b
    }

    fn ids(b: &TimedBlock<E>) -> Vec<u64> {
        b.entries().iter().map(|e| e.id).collect()
    }

    #[test]
    fn push_expire_insert_roundtrip() {
        let mut b = filled(10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.expire_before(4.0), 4);
        assert_eq!(ids(&b), vec![4, 5, 6, 7, 8, 9]);
        b.insert(0, E { id: 3, t: 4.0 });
        b.insert(7, E { id: 10, t: 10.0 });
        assert_eq!(ids(&b), vec![3, 4, 5, 6, 7, 8, 9, 10]);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn insert_into_a_full_block_compacts_first() {
        let mut b = filled(FIRST_CAP);
        b.truncate_front(3);
        assert_eq!(b.len(), b.capacity() - 3);
        b.insert(0, E { id: 2, t: 2.0 });
        assert_eq!(ids(&b), vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(b.capacity(), FIRST_CAP, "compaction made room");
    }

    #[test]
    fn steady_state_interleave_is_allocation_stable() {
        let mut b = TimedBlock::new();
        for i in 0..64u64 {
            b.push(E { id: i, t: i as f64 });
        }
        let mut cap = 0;
        for i in 64..4096u64 {
            b.push(E { id: i, t: i as f64 });
            b.truncate_front(1);
            if i == 1000 {
                cap = b.capacity();
            }
            if i > 1000 {
                assert_eq!(b.capacity(), cap, "steady state must not realloc");
            }
        }
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn deep_truncation_releases_capacity() {
        let mut b = filled(1000);
        let cap = b.capacity();
        for _ in 0..996 {
            b.truncate_front(1);
        }
        assert_eq!(ids(&b), vec![996, 997, 998, 999]);
        assert!(b.capacity() < cap, "deep truncation must shrink");
    }
}
