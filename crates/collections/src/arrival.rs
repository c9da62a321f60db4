//! An arrival-ordered row store keyed by ordinal.
//!
//! STR keeps, for every vector inside the time horizon, its id, arrival
//! time, the `Q` bound of its un-indexed prefix and that prefix itself,
//! the residual `R[ι(y)]` (§6.2). Vectors arrive in time order and expire
//! from the old end, so a hash map keyed by id buys nothing a FIFO does
//! not: [`ArrivalStore`] numbers its rows by arrival — the row *ordinal*,
//! `0, 1, 2, …` per store — and keeps them as columns over the live
//! ordinal range `[front, end)`:
//!
//! * one column per field (`id`, `t`, `q` and a caller-chosen `aux`
//!   payload), so a scan over the live rows' `q` and `t` is a scan over
//!   two contiguous slices ([`ArrivalStore::q_column`],
//!   [`ArrivalStore::t_column`], index `ord − front`);
//! * the residual coordinates of every row back to back in one FIFO
//!   arena (`dims`, `weights`), each row holding a `(start, len)` span.
//!
//! That is the shape of an SSTable: an index array over contiguous data.
//! Rows leave from the front ([`ArrivalStore::pop_expired`]); the dead
//! front of the columns and of the arena is reclaimed by in-place
//! compaction once it is a quarter as long as the live part, so the store
//! is sized by the live horizon (capacity within a constant factor of the
//! peak live rows and coordinates) and allocates nothing at steady state.
//!
//! Ordinals are never reused, so a vector id that arrives twice is two
//! rows; mapping an ordinal back to its id is the caller's last step.

/// A live row of an [`ArrivalStore`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row<'a, A> {
    /// The caller's id for the row (not necessarily unique).
    pub id: u64,
    /// Arrival time, in seconds.
    pub t: f64,
    /// The row's `Q` bound.
    pub q: f64,
    /// The caller's per-row payload.
    pub aux: A,
    /// Residual dimensions, ascending.
    pub dims: &'a [u32],
    /// Residual weights, parallel to `dims`.
    pub weights: &'a [f64],
}

/// Rows in arrival order, keyed by ordinal, with their residual
/// coordinates in one FIFO arena. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct ArrivalStore<A> {
    /// Ordinal of physical row 0.
    base: u64,
    /// Physical index of the oldest live row.
    head: usize,
    ids: Vec<u64>,
    ts: Vec<f64>,
    qs: Vec<f64>,
    aux: Vec<A>,
    /// Arena position of each row's span: physical index + `arena_base`,
    /// so compaction moves no span.
    starts: Vec<u64>,
    lens: Vec<u32>,
    /// Arena position of physical coordinate 0.
    arena_base: u64,
    dims: Vec<u32>,
    weights: Vec<f64>,
}

impl<A: Copy> ArrivalStore<A> {
    /// An empty store; the first row gets ordinal 0.
    pub fn new() -> Self {
        ArrivalStore {
            base: 0,
            head: 0,
            ids: Vec::new(),
            ts: Vec::new(),
            qs: Vec::new(),
            aux: Vec::new(),
            starts: Vec::new(),
            lens: Vec::new(),
            arena_base: 0,
            dims: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Ordinal of the oldest live row ([`Self::end`] when empty).
    #[inline]
    pub fn front(&self) -> u64 {
        self.base + self.head as u64
    }

    /// The ordinal the next [`Self::push`] returns.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.ids.len() as u64
    }

    /// Number of live rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len() - self.head
    }

    /// Whether no row is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a row whose residual is `(dims, weights)` and returns its
    /// ordinal, [`Self::end`] before the call.
    pub fn push(&mut self, id: u64, t: f64, q: f64, aux: A, dims: &[u32], weights: &[f64]) -> u64 {
        assert_eq!(dims.len(), weights.len(), "residual columns differ");
        self.compact();
        let ord = self.end();
        self.ids.push(id);
        self.ts.push(t);
        self.qs.push(q);
        self.aux.push(aux);
        self.starts.push(self.arena_base + self.dims.len() as u64);
        self.lens
            .push(u32::try_from(dims.len()).expect("residual longer than u32::MAX"));
        self.dims.extend_from_slice(dims);
        self.weights.extend_from_slice(weights);
        ord
    }

    /// Drops rows from the front while `now − t > tau` — the horizon
    /// test of the posting lists and of the brute-force oracle — and
    /// returns how many went. Stops at the first row still inside, so a
    /// stream whose times fall keeps the rows behind it.
    pub fn pop_expired(&mut self, now: f64, tau: f64) -> usize {
        let first = self.head;
        while self.head < self.ts.len() && now - self.ts[self.head] > tau {
            self.head += 1;
        }
        self.head - first
    }

    /// Drops every row. Ordinals are not reused: the next
    /// [`Self::push`] still returns [`Self::end`]. Keeps the allocations.
    pub fn clear(&mut self) {
        self.base = self.end();
        self.head = 0;
        self.arena_base += self.dims.len() as u64;
        self.ids.clear();
        self.ts.clear();
        self.qs.clear();
        self.aux.clear();
        self.starts.clear();
        self.lens.clear();
        self.dims.clear();
        self.weights.clear();
    }

    /// The live row with ordinal `ord`, if any.
    #[inline]
    pub fn row(&self, ord: u64) -> Option<Row<'_, A>> {
        let p = self.slot(ord)?;
        let start = (self.starts[p] - self.arena_base) as usize;
        let end = start + self.lens[p] as usize;
        Some(Row {
            id: self.ids[p],
            t: self.ts[p],
            q: self.qs[p],
            aux: self.aux[p],
            dims: &self.dims[start..end],
            weights: &self.weights[start..end],
        })
    }

    /// Shortens the residual of live row `ord` to its first `len`
    /// coordinates (a no-op when it is no longer than that). The arena
    /// space past the cut is reclaimed with the row.
    pub fn truncate_residual(&mut self, ord: u64, len: usize) {
        let p = self.slot(ord).expect("truncate_residual: row not live");
        self.lens[p] = self.lens[p].min(len as u32);
    }

    /// Replaces the `Q` bound of live row `ord`.
    pub fn set_q(&mut self, ord: u64, q: f64) {
        let p = self.slot(ord).expect("set_q: row not live");
        self.qs[p] = q;
    }

    /// The live rows' `Q` bounds; index `i` is ordinal `front + i`.
    #[inline]
    pub fn q_column(&self) -> &[f64] {
        &self.qs[self.head..]
    }

    /// The live rows' arrival times; index `i` is ordinal `front + i`.
    #[inline]
    pub fn t_column(&self) -> &[f64] {
        &self.ts[self.head..]
    }

    /// Allocated rows (live, dead-but-uncompacted and spare).
    pub fn capacity(&self) -> usize {
        self.ids.capacity()
    }

    /// Allocated residual coordinates in the arena.
    pub fn arena_capacity(&self) -> usize {
        self.dims.capacity()
    }

    /// Heap footprint in bytes: every column's and the arena's capacity.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let per_row =
            size_of::<u64>() * 2 + size_of::<f64>() * 2 + size_of::<A>() + size_of::<u32>();
        (self.ids.capacity() * per_row
            + self.dims.capacity() * (size_of::<u32>() + size_of::<f64>())) as u64
    }

    #[inline]
    fn slot(&self, ord: u64) -> Option<usize> {
        (ord >= self.front() && ord < self.end()).then(|| (ord - self.base) as usize)
    }

    /// Reclaims the dead front of the columns and of the arena once it
    /// is a quarter as long as the live part: in place, so the store
    /// touches at most 1.25× its live data, and each live element moves
    /// once per quarter of its length that died before it.
    fn compact(&mut self) {
        if self.head > 0 && 4 * self.head >= self.len() {
            let dead = self.head;
            self.ids.drain(..dead);
            self.ts.drain(..dead);
            self.qs.drain(..dead);
            self.aux.drain(..dead);
            self.starts.drain(..dead);
            self.lens.drain(..dead);
            self.base += dead as u64;
            self.head = 0;
        }
        let live_start = match self.starts.get(self.head) {
            Some(&s) => (s - self.arena_base) as usize,
            None => self.dims.len(),
        };
        if live_start > 0 && 4 * live_start >= self.dims.len() - live_start {
            self.dims.drain(..live_start);
            self.weights.drain(..live_start);
            self.arena_base += live_start as u64;
        }
    }
}

impl<A: Copy> Default for ArrivalStore<A> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(store: &mut ArrivalStore<u8>, id: u64, t: f64, len: usize) -> u64 {
        let dims: Vec<u32> = (0..len as u32).map(|d| d * 3 + id as u32).collect();
        let weights: Vec<f64> = dims.iter().map(|&d| d as f64 + 0.5).collect();
        store.push(id, t, t * 2.0, id as u8, &dims, &weights)
    }

    #[test]
    fn rows_keep_their_fields_and_spans() {
        let mut s = ArrivalStore::new();
        assert_eq!(push(&mut s, 9, 1.0, 3), 0);
        assert_eq!(push(&mut s, 9, 2.0, 0), 1, "a repeated id is a new row");
        assert_eq!(push(&mut s, 4, 3.0, 2), 2);
        let r = s.row(0).unwrap();
        assert_eq!((r.id, r.t, r.q, r.aux), (9, 1.0, 2.0, 9));
        assert_eq!(r.dims, &[9, 12, 15]);
        assert_eq!(r.weights, &[9.5, 12.5, 15.5]);
        assert!(s.row(1).unwrap().dims.is_empty());
        assert_eq!(s.row(2).unwrap().dims, &[4, 7]);
        assert!(s.row(3).is_none());
        s.truncate_residual(0, 1);
        s.set_q(0, 0.25);
        let r = s.row(0).unwrap();
        assert_eq!((r.dims, r.q, r.aux), (&[9u32][..], 0.25, 9));
        assert_eq!(s.q_column(), &[0.25, 4.0, 6.0]);
        assert_eq!(s.t_column(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn pop_expired_uses_the_strict_horizon_edge() {
        let mut s = ArrivalStore::new();
        for i in 0..5 {
            push(&mut s, i, i as f64, 2);
        }
        // now − t > τ: t = 0 and 1 go at now = 4, τ = 2.5; t = 2 sits
        // 2.0 away and stays, as does everything after it.
        assert_eq!(s.pop_expired(4.0, 2.5), 2);
        assert_eq!((s.front(), s.end(), s.len()), (2, 5, 3));
        assert!(s.row(1).is_none());
        assert_eq!(s.row(2).unwrap().t, 2.0);
        // Exactly τ away stays.
        assert_eq!(s.pop_expired(4.5, 2.5), 0);
        assert_eq!(s.pop_expired(f64::INFINITY, f64::INFINITY), 0);
        assert_eq!(s.pop_expired(100.0, 1.0), 3);
        assert!(s.is_empty());
        assert_eq!(push(&mut s, 7, 101.0, 1), 5, "ordinals are never reused");
    }

    #[test]
    fn clear_drops_every_row_and_keeps_ordinals_rising() {
        let mut s = ArrivalStore::new();
        for i in 0..4 {
            push(&mut s, i, i as f64, 3);
        }
        s.pop_expired(2.0, 1.5);
        s.clear();
        assert!(s.is_empty() && s.q_column().is_empty());
        assert_eq!((s.front(), s.end()), (4, 4));
        assert!(s.row(3).is_none());
        assert_eq!(push(&mut s, 9, 0.0, 2), 4, "ordinals are never reused");
        assert_eq!(s.row(4).unwrap().dims, &[9, 12]);
    }

    #[test]
    fn short_horizon_stream_stays_sized_by_the_live_rows() {
        // 100 000 records, 3 live at a time: the columns and the arena
        // stay within a constant factor of the peak live rows and
        // coordinates however long the stream runs.
        let mut s = ArrivalStore::new();
        let (mut peak_rows, mut peak_coords) = (0, 0);
        for i in 0..100_000u64 {
            let t = i as f64;
            s.pop_expired(t, 2.0);
            push(&mut s, i, t, (i % 7) as usize);
            peak_rows = peak_rows.max(s.len());
            let coords = (s.front()..s.end()).map(|o| s.row(o).unwrap().dims.len());
            peak_coords = peak_coords.max(coords.sum::<usize>());
            if i % 1000 == 0 {
                assert_eq!(s.row(i).unwrap().dims.len(), (i % 7) as usize);
            }
        }
        assert_eq!(peak_rows, 3);
        assert!(s.capacity() <= 4 * peak_rows + 4, "rows {}", s.capacity());
        assert!(
            s.arena_capacity() <= 4 * peak_coords + 8,
            "coords {} for a peak of {peak_coords}",
            s.arena_capacity()
        );
    }
}
