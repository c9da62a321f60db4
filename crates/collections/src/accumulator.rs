//! A reusable score accumulator keyed by vector id.
//!
//! Candidate generation accumulates partial dot products into the array
//! `C[ι(y)]` of Algorithm 3. Queries arrive continuously, so the map must
//! be reset after every query in O(1), not O(capacity).
//!
//! Stream ids are assigned in arrival order, and every candidate the
//! streaming indexes can produce is *alive* — within the time horizon —
//! so the live key range is a dense, slowly sliding window `[base, base +
//! span)`. The accumulator exploits that: scores live in a flat `f64`
//! array indexed by `key - base`, each slot carrying an **epoch stamp**.
//! A slot is valid only when its stamp equals the current epoch, so
//! [`ScoreAccumulator::clear`] is a single epoch increment — no hashing,
//! no per-query sweep. [`ScoreAccumulator::advance_floor`] slides the
//! window as old vectors expire, keeping the array no larger than the
//! live id span.
//!
//! Keys far outside the dense window (arbitrary `u64`s are allowed by the
//! API) fall back to a small open-addressing spill table with the same
//! epoch discipline, so correctness never depends on id density.
//!
//! # The chunk path
//!
//! STR-L2 spends most of a dense record in
//! [`ScoreAccumulator::accumulate_batch_rev`], replaying kernel-prepared
//! chunks of up to 64 postings. A time-ordered posting list holds its
//! ids in arrival order, so a chunk's ids are strictly rising and land
//! in distinct slots; once a chunk is checked to be that — at least 8
//! entries, all inside the allocated dense window — the per-entry
//! branches (live? positive? admit? prune?) become masks with
//! unconditional stores. Short, unsorted, repeated or out-of-window
//! chunks, and targets other than x86-64, keep the per-entry loop; both
//! paths produce the same touch order, scores (bit for bit) and
//! admitted count.
//!
//! The score blend runs in SSE2 registers (`_mm_and_pd`, `_mm_cmplt_sd`,
//! `_mm_andnot_pd`) rather than as `f64` bit masks in plain Rust: rustc
//! 1.95 compiles the plain-Rust blend back into two data-dependent jumps
//! per entry (`je` on the live-slot select, `jbe` on the prune compare).
//! In registers the loop keeps no jump but its bounds checks and back
//! edge (`objdump -d --no-show-raw-insn` shows both forms). SSE2 is part
//! of the x86-64 baseline, so there is no runtime dispatch.

const EMPTY: u64 = u64::MAX;

/// Result of [`ScoreAccumulator::accumulate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Accumulated {
    /// The key was already a live candidate; carries the new score.
    Updated(f64),
    /// The key was (re)admitted as a candidate; carries the new score.
    Admitted(f64),
    /// The key was not live and `admit_new` was false.
    Skipped,
}

/// Offsets past this bound go to the spill table instead of growing the
/// dense array (2²² slots ≈ 50 MB at full size — far beyond any horizon
/// the benchmarks reach, small enough to bound worst-case memory).
const DENSE_SPAN_LIMIT: u64 = 1 << 22;

/// An epoch-stamped `u64 → f64` accumulator with O(1) reset.
///
/// Keys are vector ids (never `u64::MAX`). Values accumulate via
/// [`ScoreAccumulator::add`] and can be zeroed in place (candidate
/// pruning) without forgetting that the slot was touched.
#[derive(Clone, Debug)]
pub struct ScoreAccumulator {
    /// First key of the dense window.
    base: u64,
    /// Epoch stamp per dense slot; a slot is live iff `stamps[i] == epoch`.
    stamps: Vec<u32>,
    /// Scores, parallel to `stamps`.
    vals: Vec<f64>,
    epoch: u32,
    /// Dense offsets touched this epoch, in touch order.
    touched: Vec<u32>,
    /// Fallback for keys outside the dense window.
    spill: SpillMap,
}

impl ScoreAccumulator {
    /// Creates an accumulator with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Creates an accumulator able to hold about `cap` dense keys before
    /// growing.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = cap.max(8).next_power_of_two();
        ScoreAccumulator {
            base: 0,
            stamps: vec![0; slots],
            vals: vec![0.0; slots],
            epoch: 1,
            touched: Vec::with_capacity(cap),
            spill: SpillMap::new(),
        }
    }

    /// Number of distinct keys touched since the last [`Self::clear`].
    pub fn len(&self) -> usize {
        self.touched.len() + self.spill.len()
    }

    /// Whether no key has been touched.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty() && self.spill.is_empty()
    }

    /// Allocated slots (dense + spill), for memory accounting.
    pub fn capacity(&self) -> usize {
        self.vals.len() + self.spill.capacity()
    }

    /// Estimated heap footprint in bytes.
    pub fn heap_bytes(&self) -> u64 {
        (self.vals.capacity() * 8 + self.stamps.capacity() * 4 + self.touched.capacity() * 4) as u64
            + self.spill.heap_bytes()
    }

    /// Raises the dense-window floor to `floor`.
    ///
    /// Callers do this between queries with the oldest *live* id: the
    /// window then tracks the time horizon instead of the whole stream,
    /// keeping the dense array bounded. A no-op unless the accumulator is
    /// empty (slot↔key mapping must not move under touched entries) and
    /// `floor` is actually ahead of the current base.
    pub fn advance_floor(&mut self, floor: u64) {
        if floor > self.base && self.is_empty() {
            self.base = floor;
        }
    }

    #[inline]
    fn dense_offset(&self, key: u64) -> Option<usize> {
        // Also excludes EMPTY: EMPTY - base >= DENSE_SPAN_LIMIT always
        // (base is a stream id, nowhere near u64::MAX).
        key.checked_sub(self.base)
            .filter(|&off| off < DENSE_SPAN_LIMIT)
            .map(|off| off as usize)
    }

    /// The one-lookup hot-path upsert of candidate generation.
    ///
    /// Equivalent to the `get`-then-`add` sequence of Algorithm 3 —
    /// *accumulate into live candidates unconditionally, admit new
    /// candidates only while `admit_new` holds* — but with a single slot
    /// probe:
    ///
    /// * live slot with a positive score → accumulates, returns
    ///   [`Accumulated::Updated`];
    /// * fresh or zeroed slot and `admit_new` → (re)opens the slot,
    ///   accumulates, returns [`Accumulated::Admitted`];
    /// * otherwise → [`Accumulated::Skipped`].
    #[inline]
    pub fn accumulate(&mut self, key: u64, delta: f64, admit_new: bool) -> Accumulated {
        match self.dense_offset(key) {
            Some(off) => {
                if off >= self.vals.len() {
                    if !admit_new {
                        return Accumulated::Skipped;
                    }
                    self.grow_dense(off);
                }
                let live = self.stamps[off] == self.epoch;
                if live && self.vals[off] > 0.0 {
                    self.vals[off] += delta;
                    Accumulated::Updated(self.vals[off])
                } else if admit_new {
                    if !live {
                        self.stamps[off] = self.epoch;
                        self.vals[off] = 0.0;
                        self.touched.push(off as u32);
                    }
                    self.vals[off] += delta;
                    Accumulated::Admitted(self.vals[off])
                } else {
                    Accumulated::Skipped
                }
            }
            None => {
                let current = self.spill.get(key);
                if current > 0.0 {
                    Accumulated::Updated(self.spill.add(key, delta))
                } else if admit_new {
                    // current == 0.0 covers untouched and zeroed slots:
                    // both count as (re)admissions, like get-then-add did.
                    Accumulated::Admitted(self.spill.add(key, delta))
                } else {
                    Accumulated::Skipped
                }
            }
        }
    }

    /// Applies one kernel-prepared candidate batch, newest entry first.
    ///
    /// The SIMD batch kernels (`sssj_kernels::l2_candidate_batch`)
    /// evaluate a posting chunk into parallel arrays — ids, score
    /// deltas, admission flags and per-entry prune thresholds; this
    /// method replays them through [`Self::accumulate`] in *reverse*
    /// (the engines walk posting lists newest-first, and chunks arrive
    /// via `rchunks`, so reverse order inside each chunk reproduces the
    /// exact per-entry traversal of the scalar loop). A touched entry
    /// whose new score falls below its prune threshold is zeroed on the
    /// spot — Algorithm 3's candidate pruning. Returns how many entries
    /// were newly admitted. Chunks of rising ids inside the dense window
    /// take a jump-free replay with the identical result (see
    /// [the chunk path](self#the-chunk-path)).
    pub fn accumulate_batch_rev(
        &mut self,
        ids: &[u64],
        deltas: &[f64],
        admit: &[u8],
        prune_below: &[f64],
    ) -> u32 {
        debug_assert!(
            ids.len() == deltas.len() && ids.len() == admit.len() && ids.len() == prune_below.len()
        );
        // SAFETY: SSE2 is part of the x86-64 baseline; every x86-64 CPU
        // has the one target feature `replay_distinct_rev` enables.
        #[cfg(target_arch = "x86_64")]
        if let Some(admitted) = unsafe { self.replay_distinct_rev(ids, deltas, admit, prune_below) }
        {
            return admitted;
        }
        let mut admitted = 0u32;
        for i in (0..ids.len()).rev() {
            let new = match self.accumulate(ids[i], deltas[i], admit[i] != 0) {
                Accumulated::Updated(new) => new,
                Accumulated::Admitted(new) => {
                    admitted += 1;
                    new
                }
                Accumulated::Skipped => continue,
            };
            if new < prune_below[i] {
                self.zero(ids[i]);
            }
        }
        admitted
    }

    /// The chunk fast path of [`Self::accumulate_batch_rev`], or `None`
    /// (nothing touched) when the chunk does not qualify: it needs at
    /// least 8 entries and strictly rising ids — so the first and last id
    /// bound the chunk, and every entry owns a distinct slot — that all
    /// lie inside the allocated dense window (no growth, no spill).
    ///
    /// The replay is then the per-entry rule of [`Self::accumulate`] +
    /// [`Self::zero`] as mask arithmetic with unconditional stores: the
    /// slot state becomes integer masks, the score blend runs in SSE2
    /// registers, and `touched` takes every offset but only advances
    /// past a fresh slot. No jump depends on the data.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    #[inline]
    fn replay_distinct_rev(
        &mut self,
        ids: &[u64],
        deltas: &[f64],
        admit: &[u8],
        prune_below: &[f64],
    ) -> Option<u32> {
        use std::arch::x86_64::{
            __m128d, _mm_add_sd, _mm_and_pd, _mm_andnot_pd, _mm_castsi128_pd, _mm_cmplt_sd,
            _mm_cvtsd_f64, _mm_cvtsi64_si128, _mm_or_pd, _mm_set_sd,
        };
        let n = ids.len();
        let window = self.vals.len().min(DENSE_SPAN_LIMIT as usize) as u64;
        if n < 8
            || ids[0] < self.base
            || ids[n - 1].wrapping_sub(self.base) >= window
            || !ids.windows(2).all(|w| w[0] < w[1])
        {
            return None;
        }
        let mask = |on: bool| -> __m128d { _mm_castsi128_pd(_mm_cvtsi64_si128(-(on as i64))) };
        let (base, epoch) = (self.base, self.epoch);
        let start = self.touched.len();
        self.touched.resize(start + n, 0);
        // Slices, not fields: their pointers and lengths stay in registers
        // across the stores below.
        let vals = &mut self.vals[..];
        let stamps = &mut self.stamps[..vals.len()];
        let touched = &mut self.touched[start..];
        let mut fresh = 0;
        let mut admitted = 0u32;
        for i in (0..n).rev() {
            let off = (ids[i] - base) as usize;
            let stamp = stamps[off];
            let v = vals[off];
            let live = stamp == epoch;
            let upd = live & (v > 0.0);
            let adm = !upd & (admit[i] != 0);
            let take = upd | adm;
            // cur = live ? v : 0; new = cur + δ; kept = new < prune ? 0 : new;
            // store take ? kept : v.
            let old = _mm_set_sd(v);
            let new = _mm_add_sd(_mm_and_pd(old, mask(live)), _mm_set_sd(deltas[i]));
            let kept = _mm_andnot_pd(_mm_cmplt_sd(new, _mm_set_sd(prune_below[i])), new);
            let take_m = mask(take);
            let out = _mm_or_pd(_mm_and_pd(take_m, kept), _mm_andnot_pd(take_m, old));
            vals[off] = _mm_cvtsd_f64(out);
            stamps[off] = stamp ^ ((stamp ^ epoch) & (take as u32).wrapping_neg());
            touched[fresh] = off as u32;
            fresh += (take & !live) as usize;
            admitted += adm as u32;
        }
        self.touched.truncate(start + fresh);
        Some(admitted)
    }

    /// The unconditional-admission variant of [`Self::accumulate_batch_rev`]
    /// (the INV index admits every touched candidate and never prunes
    /// mid-scan). Returns how many entries were newly admitted.
    pub fn accumulate_all_rev(&mut self, ids: &[u64], deltas: &[f64]) -> u32 {
        debug_assert_eq!(ids.len(), deltas.len());
        let mut admitted = 0u32;
        for i in (0..ids.len()).rev() {
            if let Accumulated::Admitted(_) = self.accumulate(ids[i], deltas[i], true) {
                admitted += 1;
            }
        }
        admitted
    }

    /// Adds `delta` to the score of `key`, returning the new value.
    #[inline]
    pub fn add(&mut self, key: u64, delta: f64) -> f64 {
        debug_assert_ne!(key, EMPTY, "u64::MAX is reserved");
        match self.dense_offset(key) {
            Some(off) => {
                if off >= self.vals.len() {
                    self.grow_dense(off);
                }
                if self.stamps[off] != self.epoch {
                    self.stamps[off] = self.epoch;
                    self.vals[off] = 0.0;
                    self.touched.push(off as u32);
                }
                self.vals[off] += delta;
                self.vals[off]
            }
            None => self.spill.add(key, delta),
        }
    }

    /// The current score of `key` (0.0 when never touched or zeroed).
    #[inline]
    pub fn get(&self, key: u64) -> f64 {
        match self.dense_offset(key) {
            Some(off) => {
                if off < self.vals.len() && self.stamps[off] == self.epoch {
                    self.vals[off]
                } else {
                    0.0
                }
            }
            None => self.spill.get(key),
        }
    }

    /// Zeroes the score of `key` in place (candidate pruning). The slot
    /// stays touched so a later `add` resumes from zero.
    #[inline]
    pub fn zero(&mut self, key: u64) {
        match self.dense_offset(key) {
            Some(off) => {
                if off < self.vals.len() && self.stamps[off] == self.epoch {
                    self.vals[off] = 0.0;
                }
            }
            None => self.spill.zero(key),
        }
    }

    /// Iterates `(key, score)` over touched slots in touch order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.touched
            .iter()
            .map(move |&off| (self.base + off as u64, self.vals[off as usize]))
            .chain(self.spill.iter())
    }

    /// Resets all touched slots in O(1) (epoch bump; O(spill touched) for
    /// keys that landed in the spill table).
    pub fn clear(&mut self) {
        self.touched.clear();
        self.spill.clear();
        if self.epoch == u32::MAX {
            // Stamp wrap-around: invalidate everything once per 2³²
            // queries so stale stamps can never alias a live epoch.
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    #[cold]
    fn grow_dense(&mut self, off: usize) {
        let new_len = (off + 1).next_power_of_two().max(self.vals.len() * 2);
        self.stamps.resize(new_len, 0);
        self.vals.resize(new_len, 0.0);
    }
}

impl Default for ScoreAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

/// The open-addressing fallback for keys outside the dense window —
/// Fibonacci hashing, linear probing, epoch-free (cleared per query).
#[derive(Clone, Debug)]
struct SpillMap {
    keys: Vec<u64>,
    vals: Vec<f64>,
    touched: Vec<u32>,
    mask: usize,
}

impl SpillMap {
    fn new() -> Self {
        SpillMap {
            keys: Vec::new(),
            vals: Vec::new(),
            touched: Vec::new(),
            mask: 0,
        }
    }

    fn len(&self) -> usize {
        self.touched.len()
    }

    fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    fn capacity(&self) -> usize {
        self.keys.len()
    }

    fn heap_bytes(&self) -> u64 {
        (self.keys.capacity() * 8 + self.vals.capacity() * 8 + self.touched.capacity() * 4) as u64
    }

    #[cold]
    fn materialize(&mut self) {
        if self.keys.is_empty() {
            self.keys = vec![EMPTY; 16];
            self.vals = vec![0.0; 16];
            self.mask = 15;
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (h >> 32) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn add(&mut self, key: u64, delta: f64) -> f64 {
        self.materialize();
        if self.touched.len() * 3 > self.keys.len() * 2 {
            self.grow();
        }
        let i = self.slot_of(key);
        if self.keys[i] == EMPTY {
            self.keys[i] = key;
            self.vals[i] = 0.0;
            self.touched.push(i as u32);
        }
        self.vals[i] += delta;
        self.vals[i]
    }

    fn get(&self, key: u64) -> f64 {
        if self.keys.is_empty() {
            return 0.0;
        }
        let i = self.slot_of(key);
        if self.keys[i] == EMPTY {
            0.0
        } else {
            self.vals[i]
        }
    }

    fn zero(&mut self, key: u64) {
        if self.keys.is_empty() {
            return;
        }
        let i = self.slot_of(key);
        if self.keys[i] != EMPTY {
            self.vals[i] = 0.0;
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.touched
            .iter()
            .map(move |&i| (self.keys[i as usize], self.vals[i as usize]))
    }

    fn clear(&mut self) {
        for &i in &self.touched {
            self.keys[i as usize] = EMPTY;
        }
        self.touched.clear();
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let mut bigger = SpillMap {
            keys: vec![EMPTY; new_slots],
            vals: vec![0.0; new_slots],
            touched: Vec::with_capacity(self.touched.len() * 2),
            mask: new_slots - 1,
        };
        for &i in &self.touched {
            let (k, v) = (self.keys[i as usize], self.vals[i as usize]);
            let j = bigger.slot_of(k);
            bigger.keys[j] = k;
            bigger.vals[j] = v;
            bigger.touched.push(j as u32);
        }
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut a = ScoreAccumulator::new();
        assert_eq!(a.add(7, 1.5), 1.5);
        assert_eq!(a.add(7, 0.5), 2.0);
        assert_eq!(a.get(7), 2.0);
        assert_eq!(a.get(8), 0.0);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn zero_keeps_slot_touched() {
        let mut a = ScoreAccumulator::new();
        a.add(3, 1.0);
        a.zero(3);
        assert_eq!(a.get(3), 0.0);
        assert_eq!(a.len(), 1);
        a.add(3, 0.25);
        assert_eq!(a.get(3), 0.25);
    }

    #[test]
    fn clear_resets_everything() {
        let mut a = ScoreAccumulator::new();
        for k in 0..100 {
            a.add(k, k as f64);
        }
        a.clear();
        assert!(a.is_empty());
        for k in 0..100 {
            assert_eq!(a.get(k), 0.0);
        }
    }

    #[test]
    fn clear_is_epoch_cheap_and_reusable() {
        let mut a = ScoreAccumulator::new();
        for round in 0..1000u64 {
            a.add(round % 7, 1.0);
            a.add(round % 13, 1.0);
            a.clear();
        }
        assert!(a.is_empty());
        assert_eq!(a.get(3), 0.0);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut a = ScoreAccumulator::with_capacity(8);
        for k in 0..10_000u64 {
            a.add(k, 1.0);
        }
        assert_eq!(a.len(), 10_000);
        for k in (0..10_000u64).step_by(997) {
            assert_eq!(a.get(k), 1.0);
        }
    }

    #[test]
    fn iter_yields_touched_pairs() {
        let mut a = ScoreAccumulator::new();
        a.add(10, 1.0);
        a.add(20, 2.0);
        let mut got: Vec<(u64, f64)> = a.iter().collect();
        got.sort_by_key(|&(k, _)| k);
        assert_eq!(got, vec![(10, 1.0), (20, 2.0)]);
    }

    #[test]
    fn sequential_and_sparse_ids_coexist() {
        let mut a = ScoreAccumulator::new();
        a.add(0, 1.0);
        a.add(u64::MAX - 1, 2.0);
        assert_eq!(a.get(0), 1.0);
        assert_eq!(a.get(u64::MAX - 1), 2.0);
        assert_eq!(a.len(), 2);
        let mut got: Vec<(u64, f64)> = a.iter().collect();
        got.sort_by_key(|&(k, _)| k);
        assert_eq!(got, vec![(0, 1.0), (u64::MAX - 1, 2.0)]);
        a.zero(u64::MAX - 1);
        assert_eq!(a.get(u64::MAX - 1), 0.0);
        a.clear();
        assert_eq!(a.get(u64::MAX - 1), 0.0);
    }

    #[test]
    fn advance_floor_slides_the_dense_window() {
        let mut a = ScoreAccumulator::with_capacity(8);
        a.add(5, 1.0);
        // Floor must not move while keys are touched.
        a.advance_floor(1_000_000);
        assert_eq!(a.get(5), 1.0);
        a.clear();
        a.advance_floor(1_000_000);
        let before = a.capacity();
        // Keys near the new floor stay dense: capacity should not balloon.
        for k in 1_000_000..1_000_050u64 {
            a.add(k, 1.0);
        }
        assert!(a.capacity() <= before.max(64));
        assert_eq!(a.len(), 50);
        assert_eq!(a.get(1_000_025), 1.0);
        // Keys *below* the floor still work via the spill table.
        a.add(3, 9.0);
        assert_eq!(a.get(3), 9.0);
        assert_eq!(a.len(), 51);
    }

    #[test]
    fn accumulate_matches_get_then_add() {
        // The fused upsert must agree with the two-step idiom in every
        // state: fresh, live-positive, zeroed, admit and no-admit.
        let mut fused = ScoreAccumulator::new();
        let mut twostep = ScoreAccumulator::new();
        let script: &[(u64, f64, bool)] = &[
            (5, 1.0, true),
            (5, 0.5, false),
            (6, 2.0, false),
            (6, 2.0, true),
            (u64::MAX - 3, 1.5, true),
            (u64::MAX - 3, 1.5, false),
        ];
        for &(key, delta, admit) in script {
            let got = fused.accumulate(key, delta, admit);
            let current = twostep.get(key);
            let want = if current > 0.0 {
                Accumulated::Updated(twostep.add(key, delta))
            } else if admit {
                Accumulated::Admitted(twostep.add(key, delta))
            } else {
                Accumulated::Skipped
            };
            assert_eq!(got, want, "key {key} delta {delta} admit {admit}");
            assert_eq!(fused.get(key), twostep.get(key));
        }
        // Zeroed slots re-admit (and only with admit_new).
        fused.zero(5);
        assert_eq!(fused.accumulate(5, 1.0, false), Accumulated::Skipped);
        assert_eq!(fused.accumulate(5, 1.0, true), Accumulated::Admitted(1.0));
    }

    #[test]
    fn batch_rev_replays_the_scalar_traversal() {
        // The batch is applied newest-first (reverse index order) with
        // per-entry pruning; the oracle is the open-coded loop the
        // engines used before the kernels.
        let ids: Vec<u64> = vec![3, 9, 3, 11, 7, 9, 2];
        let deltas = [0.4, 0.2, 0.5, 0.1, 0.6, -0.3, 0.2];
        let admit = [1u8, 0, 1, 1, 0, 1, 1];
        let prune = [0.3, 0.25, 0.45, 0.5, 0.1, 0.0, 0.15];
        let mut batch = ScoreAccumulator::new();
        batch.accumulate(9, 0.9, true); // pre-existing live candidate
        let mut scalar = ScoreAccumulator::new();
        scalar.accumulate(9, 0.9, true);
        let mut want_admitted = 0;
        for i in (0..ids.len()).rev() {
            let new = match scalar.accumulate(ids[i], deltas[i], admit[i] != 0) {
                Accumulated::Updated(new) => new,
                Accumulated::Admitted(new) => {
                    want_admitted += 1;
                    new
                }
                Accumulated::Skipped => continue,
            };
            if new < prune[i] {
                scalar.zero(ids[i]);
            }
        }
        let got = batch.accumulate_batch_rev(&ids, &deltas, &admit, &prune);
        assert_eq!(got, want_admitted);
        let mut want: Vec<(u64, f64)> = scalar.iter().collect();
        let mut have: Vec<(u64, f64)> = batch.iter().collect();
        want.sort_by_key(|&(k, _)| k);
        have.sort_by_key(|&(k, _)| k);
        assert_eq!(have.len(), want.len());
        for ((ka, va), (kb, vb)) in have.iter().zip(&want) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "key {ka}");
        }
        assert!(got >= 1, "the script admits at least one entry");
    }

    #[test]
    fn accumulate_all_rev_admits_everything() {
        let ids = [4u64, 8, 4, 15];
        let deltas = [0.25, 0.5, 0.25, 1.0];
        let mut a = ScoreAccumulator::new();
        let admitted = a.accumulate_all_rev(&ids, &deltas);
        assert_eq!(admitted, 3, "4 appears twice, admitted once");
        assert_eq!(a.get(4), 0.5);
        assert_eq!(a.get(8), 0.5);
        assert_eq!(a.get(15), 1.0);
    }

    #[test]
    fn floor_never_moves_backwards() {
        let mut a = ScoreAccumulator::new();
        a.advance_floor(100);
        a.advance_floor(50);
        a.add(100, 1.0);
        assert_eq!(a.get(100), 1.0);
    }
}
