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
//! # The list pass
//!
//! STR-L2 and the decay engine (`sssj_core::DecayStreaming`) spend most
//! of a dense record in [`ScoreAccumulator::accumulate_l2_list_rev`]:
//! one newest-first pass over a time-ordered posting list that computes
//! each posting's decay bound (from the engine's quantized decay table),
//! score delta, prune threshold and admission flag four at a time in
//! AVX2 registers (`sssj_kernels::avx2::l2_lanes`), or eight at a time
//! in AVX-512 registers, and applies them to the score slots in the same
//! registers — no intermediate arrays.
//!
//! A group of four is applied as one step: gather the four slots'
//! scores and stamps, blend, then store the four lanes from the newest
//! posting down. That is the per-entry rule only if no store of the
//! group could have changed what the group gathered, i.e. if the four
//! slots are *distinct*; so a group takes the vector step only when its
//! four offsets rise strictly inside the allocated dense window.
//! Distinctness *across* groups is not needed: groups run in program
//! order, and each gathers after the previous one stored. A time-ordered
//! list holds ids in arrival order, so in practice every group of a
//! list qualifies; one that does not (ids below the floor or past the
//! window, or the falling ids of a reorder buffer's release order) runs
//! the per-entry rule for its four postings, which covers growth and
//! the spill table. Storing the lanes newest-first keeps `touched` in
//! the order a per-entry walk would have touched the slots.
//!
//! On the AVX-512 lane the same pass takes eight postings per step, and
//! the mask registers let it store only what changes. The oldest group
//! is masked to the `n % 8` postings left (masked loads touch no word
//! past the list), so no group of four and no scalar tail remain. The
//! per-entry rule becomes masks — `live`, `upd = live ∧ v > 0`, `adm =
//! ¬upd ∧ admit`, `take = upd ∨ adm`, `fresh = take ∧ ¬live` — and each
//! mask picks the lanes of one store: a masked scatter writes scores on
//! `take` lanes only, another writes the epoch on `fresh` lanes only,
//! and a compress-store appends the fresh offsets to `touched`. The AVX2
//! step instead rewrites all four scores and stamps and writes every
//! offset to `touched`, mostly with unchanged values. A compress-store
//! packs lanes lowest first, i.e. oldest posting first; the lanes and
//! the mask are reversed before it so that `touched` keeps the
//! newest-first order of a per-entry walk. The distinctness rule is the
//! one above, over the valid lanes only.
//!
//! The `n % 4` oldest postings of the AVX2 pass, lists shorter than four
//! and the scalar and SSE4.1 lanes take the per-entry rule with the
//! scalar kernel formula (`sssj_kernels::l2_candidate`), which both
//! vector forms match bit for bit.

use sssj_kernels::L2BatchParams;

use crate::PackedPosting;

const EMPTY: u64 = u64::MAX;

/// Whether `group`'s ids rise strictly and all lie in the dense window
/// `[base, base + min(len, DENSE_SPAN_LIMIT))`: the condition under
/// which the vector list passes apply a group in registers.
fn rises_inside(group: &[PackedPosting], base: u64, len: usize) -> bool {
    let limit = (len as u64).min(DENSE_SPAN_LIMIT);
    group.windows(2).all(|w| w[0].id < w[1].id)
        && group.iter().all(|q| q.id.wrapping_sub(base) < limit)
}

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

    /// The per-entry rule of the list pass: [`Self::accumulate`], then
    /// [`Self::zero`] when the new score falls below `prune_below`
    /// (Algorithm 3's candidate pruning). Returns 1 when the entry was
    /// newly admitted, else 0.
    #[inline]
    fn accumulate_pruned(&mut self, key: u64, delta: f64, admit: bool, prune_below: f64) -> u32 {
        let (new, admitted) = match self.accumulate(key, delta, admit) {
            Accumulated::Updated(new) => (new, 0),
            Accumulated::Admitted(new) => (new, 1),
            Accumulated::Skipped => return 0,
        };
        if new < prune_below {
            self.zero(key);
        }
        admitted
    }

    /// STR-L2 candidate generation over one time-ordered posting list,
    /// newest posting first: for each posting, the decay upper bound
    /// from the quantized table `factors`, the score delta `xj·w`, the
    /// prune threshold `θₛ − ‖x′‖·pn·df` and the admission flag
    /// `rs2·df ≥ θₛ` (`sssj_kernels::l2_candidate`), applied at once by
    /// [`Self::accumulate`] and, below the threshold, [`Self::zero`].
    /// Returns how many postings were newly admitted.
    ///
    /// Equal — admitted count, touch order, every score bit — to
    /// `sssj_kernels::l2_candidate_batch` over the list followed by that
    /// per-entry rule newest first, without the arrays between them (see
    /// [the list pass](self#the-list-pass)). Like the batch kernel it
    /// needs a non-empty table with `p.inv_step > 0` (every
    /// `sssj_types::DecayTable` is one) and gaps `p.now − t` that are
    /// not NaN.
    pub fn accumulate_l2_list_rev(
        &mut self,
        postings: &[PackedPosting],
        p: &L2BatchParams,
        factors: &[f64],
    ) -> u32 {
        if postings.is_empty() {
            return 0;
        }
        assert!(
            !factors.is_empty() && p.inv_step > 0.0,
            "malformed decay table"
        );
        #[cfg(target_arch = "x86_64")]
        if postings.len() >= 4 {
            match sssj_kernels::active_lane() {
                sssj_kernels::Lane::Avx512 => {
                    // SAFETY: `active_lane` reports AVX-512 only when the
                    // CPU has AVX-512 F, VL, AVX2 and POPCNT.
                    return unsafe { self.l2_list_avx512(postings, p, factors) };
                }
                sssj_kernels::Lane::Avx2 => {
                    // SAFETY: `active_lane` reports AVX2 only when the CPU
                    // has it.
                    return unsafe { self.l2_list_avx2(postings, p, factors) };
                }
                _ => {}
            }
        }
        self.l2_entries_rev(postings, p, factors)
    }

    /// The per-entry route of [`Self::accumulate_l2_list_rev`]: the scalar
    /// kernel formula and [`Self::accumulate_pruned`], newest first.
    fn l2_entries_rev(
        &mut self,
        postings: &[PackedPosting],
        p: &L2BatchParams,
        factors: &[f64],
    ) -> u32 {
        let mut admitted = 0u32;
        for q in postings.iter().rev() {
            let c = sssj_kernels::l2_candidate(p, factors, q.weight, q.prefix_norm, q.t);
            admitted += self.accumulate_pruned(q.id, c.delta, c.admit, c.prune_below);
        }
        admitted
    }

    /// The AVX2 route of [`Self::accumulate_l2_list_rev`]: groups of four
    /// from the newest end, each applied in registers when its offsets
    /// rise strictly inside the dense window and by
    /// [`Self::l2_entries_rev`] otherwise; then the `n % 4` oldest
    /// postings by [`Self::l2_entries_rev`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn l2_list_avx2(
        &mut self,
        postings: &[PackedPosting],
        p: &L2BatchParams,
        factors: &[f64],
    ) -> u32 {
        use sssj_kernels::avx2::{l2_lanes, L2Splat};
        use std::arch::x86_64::*;

        let raw = PackedPosting::as_words(postings);
        let splat = L2Splat::new(p, factors);
        let tail = postings.len() % 4;
        let epoch = _mm_set1_epi32(self.epoch as i32);
        let base = _mm256_set1_epi64x(self.base as i64);
        let zero = _mm256_setzero_pd();
        // The 64-bit lanes 0, 2, 4, 6 of a mask, as four 32-bit lanes.
        let low_halves = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        // The dense window and its arrays; `l2_entries_rev` may grow them,
        // so they are re-read after it runs.
        let window = |acc: &mut Self| {
            let len = acc.vals.len();
            debug_assert_eq!(len, acc.stamps.len());
            let last = len.min(DENSE_SPAN_LIMIT as usize) as i64 - 1;
            (
                len,
                _mm256_set1_epi64x(last),
                acc.vals.as_mut_ptr(),
                acc.stamps.as_mut_ptr(),
            )
        };
        let (mut len, mut last, mut vals, mut stamps) = window(self);
        // A posting opens at most one slot, so with room for the whole
        // list `touched` never reallocates during the pass: its pointer
        // stays valid and its length can live in a register.
        self.touched.reserve(postings.len());
        let touched = self.touched.as_mut_ptr();
        let mut n = self.touched.len();
        let mut admitted = 0u32;
        let mut i = postings.len();
        while i >= tail + 4 {
            i -= 4;
            // SAFETY: `i + 4 <= postings.len()`, so `raw` holds the
            // `4·(i+4)` words `l2_lanes` reads; `factors` is not empty
            // (asserted by the caller); this function runs with AVX2
            // enabled.
            let lanes = unsafe { l2_lanes(raw, i, &splat) };
            let offs = _mm256_sub_epi64(lanes.ids, base);
            // Lane k qualifies when 0 ≤ off[k] ≤ last, and the group when
            // moreover off[0] < off[1] < off[2] < off[3] (distinct slots).
            let outside = _mm256_or_si256(
                _mm256_cmpgt_epi64(_mm256_setzero_si256(), offs),
                _mm256_cmpgt_epi64(offs, last),
            );
            let next = _mm256_permute4x64_epi64::<0b11_11_10_01>(offs);
            let rising = _mm256_cmpgt_epi64(next, offs);
            let fails = _mm256_movemask_pd(_mm256_castsi256_pd(outside))
                | (!_mm256_movemask_pd(_mm256_castsi256_pd(rising)) & 0b0111);
            if fails != 0 {
                // SAFETY: the first `n` elements are initialised, as at the
                // end of the pass. The per-entry rule pushes at most four
                // more, inside the reserve, so `touched` stays in place.
                unsafe { self.touched.set_len(n) };
                admitted += self.l2_entries_rev(&postings[i..i + 4], p, factors);
                n = self.touched.len();
                (len, last, vals, stamps) = window(self);
                continue;
            }
            let off = [
                _mm256_extract_epi64::<0>(offs) as usize,
                _mm256_extract_epi64::<1>(offs) as usize,
                _mm256_extract_epi64::<2>(offs) as usize,
                _mm256_extract_epi64::<3>(offs) as usize,
            ];
            debug_assert!(off[0] < off[1] && off[1] < off[2] && off[2] < off[3] && off[3] < len);
            // SAFETY: every lane of `offs` lies in `[0, len)` (checked
            // above, asserted here) and `vals`/`stamps` hold `len`
            // elements each.
            let (v, st) = unsafe {
                (
                    _mm256_i64gather_pd::<8>(vals, offs),
                    _mm256_i64gather_epi32::<4>(stamps as *const i32, offs),
                )
            };
            // The per-entry rule of `accumulate` + `zero` as masks:
            // upd = live ∧ v > 0; adm = ¬upd ∧ admit; take = upd ∨ adm;
            // new = (live ? v : 0) + δ; store take ? (new < pb ? 0 : new) : v.
            let live = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_cmpeq_epi32(st, epoch)));
            let upd = _mm256_and_pd(live, _mm256_cmp_pd::<_CMP_GT_OQ>(v, zero));
            let adm = _mm256_andnot_pd(upd, lanes.admit);
            let take = _mm256_or_pd(upd, adm);
            let new = _mm256_add_pd(_mm256_and_pd(v, live), lanes.deltas);
            let pruned = _mm256_cmp_pd::<_CMP_LT_OQ>(new, lanes.prune_below);
            let out = _mm256_blendv_pd(v, _mm256_andnot_pd(pruned, new), take);
            let take32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                _mm256_castpd_si256(take),
                low_halves,
            ));
            let stamp = _mm_blendv_epi8(st, epoch, take32);
            let fresh = _mm256_movemask_pd(_mm256_andnot_pd(live, take)) as usize;
            admitted += _mm256_movemask_pd(adm).count_ones();

            let (lo, hi) = (_mm256_castpd256_pd128(out), _mm256_extractf128_pd::<1>(out));
            // SAFETY: each `off[k] < len` (checked and asserted above), the
            // length of `vals` and of `stamps`; the four offsets are
            // distinct, so the order of these stores does not matter.
            unsafe {
                _mm_storeh_pd(vals.add(off[3]), hi);
                _mm_storel_pd(vals.add(off[2]), hi);
                _mm_storeh_pd(vals.add(off[1]), lo);
                _mm_storel_pd(vals.add(off[0]), lo);
                *stamps.add(off[3]) = _mm_extract_epi32::<3>(stamp) as u32;
                *stamps.add(off[2]) = _mm_extract_epi32::<2>(stamp) as u32;
                *stamps.add(off[1]) = _mm_extract_epi32::<1>(stamp) as u32;
                *stamps.add(off[0]) = _mm_extract_epi32::<0>(stamp) as u32;
            }
            // `touched` takes every offset, newest posting first, but only
            // advances past a freshly opened slot.
            for k in (0..4).rev() {
                debug_assert!(n < self.touched.capacity());
                // SAFETY: the reserve above left room for one element per
                // posting past the length at entry, and `n` has advanced at
                // most once per posting applied so far.
                unsafe { touched.add(n).write(off[k] as u32) };
                n += (fresh >> k) & 1;
            }
        }
        // SAFETY: the first `n` elements are initialised: the length at
        // entry, plus one written offset per step that advanced `n`.
        unsafe { self.touched.set_len(n) };
        admitted + self.l2_entries_rev(&postings[..tail], p, factors)
    }

    /// The AVX-512 route of [`Self::accumulate_l2_list_rev`]: groups of
    /// eight from the newest end, the oldest one masked to the `n % 8`
    /// postings left, each applied in registers when its valid offsets
    /// rise strictly inside the dense window and by
    /// [`Self::l2_entries_rev`] otherwise. Only changed slots are stored:
    /// scores on `take` lanes, stamps and `touched` on fresh lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl,avx2,popcnt")]
    fn l2_list_avx512(
        &mut self,
        postings: &[PackedPosting],
        p: &L2BatchParams,
        factors: &[f64],
    ) -> u32 {
        use std::arch::x86_64::*;

        let words = PackedPosting::as_words(postings).as_ptr() as *const f64;
        let max_idx = _mm512_set1_pd((factors.len() - 1) as f64);
        let now = _mm512_set1_pd(p.now);
        let inv_step = _mm512_set1_pd(p.inv_step);
        let xj = _mm512_set1_pd(p.xj);
        let xnorm_before = _mm512_set1_pd(p.xnorm_before);
        let rs2 = _mm512_set1_pd(p.rs2);
        let theta_slack = _mm512_set1_pd(p.theta_slack);
        let zero = _mm512_setzero_pd();
        let epoch = _mm256_set1_epi32(self.epoch as i32);
        let base = _mm512_set1_epi64(self.base as i64);
        // A row holds two postings `[id, w, pn, t, id, w, pn, t]`; the
        // first stage gathers four postings' `[id×4, w×4]` and `[pn×4,
        // t×4]` from two rows, the second joins two such halves.
        let id_w = _mm512_setr_epi64(0, 4, 8, 12, 1, 5, 9, 13);
        let pn_t = _mm512_setr_epi64(2, 6, 10, 14, 3, 7, 11, 15);
        let low4 = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
        let high4 = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
        let next = _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 7);
        let reverse = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
        // The dense window and its arrays; `l2_entries_rev` may grow them,
        // so they are re-read after it runs.
        let window = |acc: &mut Self| {
            let len = acc.vals.len();
            debug_assert_eq!(len, acc.stamps.len());
            (
                len,
                _mm512_set1_epi64(len.min(DENSE_SPAN_LIMIT as usize) as i64),
                acc.vals.as_mut_ptr(),
                acc.stamps.as_mut_ptr(),
            )
        };
        let (mut len, mut limit, mut vals, mut stamps) = window(self);
        // As in `l2_list_avx2`: room for one touch per posting, so
        // `touched` stays in place and its length lives in a register.
        self.touched.reserve(postings.len());
        let touched = self.touched.as_mut_ptr();
        let mut n = self.touched.len();
        let mut admitted = 0u32;
        let mut end = postings.len();
        while end > 0 {
            let count = end.min(8);
            let i = end - count;
            end = i;
            // Lane k holds posting i + k; lanes from `count` up are off.
            let valid = (0xFF_u32 >> (8 - count)) as __mmask8;
            let row_bits = u32::MAX >> (32 - 4 * count);
            let src = words.wrapping_add(4 * i);
            debug_assert!(i + count <= postings.len());
            // SAFETY: row r reads words `4i + 8r + j` only for the mask
            // bits j it keeps, and `row_bits` keeps exactly the `4·count`
            // words of postings `i..i + count`, all inside `postings`;
            // masked-off words are not accessed.
            let (r0, r1, r2, r3) = unsafe {
                (
                    _mm512_maskz_loadu_pd(row_bits as __mmask8, src),
                    _mm512_maskz_loadu_pd((row_bits >> 8) as __mmask8, src.wrapping_add(8)),
                    _mm512_maskz_loadu_pd((row_bits >> 16) as __mmask8, src.wrapping_add(16)),
                    _mm512_maskz_loadu_pd((row_bits >> 24) as __mmask8, src.wrapping_add(24)),
                )
            };
            let a = _mm512_permutex2var_pd(r0, id_w, r1);
            let b = _mm512_permutex2var_pd(r0, pn_t, r1);
            let c = _mm512_permutex2var_pd(r2, id_w, r3);
            let d = _mm512_permutex2var_pd(r2, pn_t, r3);
            let ids = _mm512_castpd_si512(_mm512_permutex2var_pd(a, low4, c));
            let weights = _mm512_permutex2var_pd(a, high4, c);
            let pns = _mm512_permutex2var_pd(b, low4, d);
            let times = _mm512_permutex2var_pd(b, high4, d);
            let loaded = _mm512_or_si512(
                _mm512_or_si512(ids, _mm512_castpd_si512(weights)),
                _mm512_or_si512(_mm512_castpd_si512(pns), _mm512_castpd_si512(times)),
            );
            debug_assert_eq!(
                _mm512_test_epi64_mask(loaded, loaded) & !valid,
                0,
                "masked-off postings load as zero"
            );
            // `sssj_kernels::l2_candidate`, operation for operation.
            let pos = _mm512_mul_pd(_mm512_sub_pd(now, times), inv_step);
            let bin = _mm512_cvttpd_epi32(_mm512_max_pd(_mm512_min_pd(pos, max_idx), zero));
            // SAFETY: every lane of `bin` lies in `[0, factors.len())`:
            // the clamp maps each position, NaN included, into `[0,
            // max_idx]` before truncation.
            let df = unsafe { _mm512_mask_i32gather_pd::<8>(zero, valid, bin, factors.as_ptr()) };
            let pb = _mm512_sub_pd(
                theta_slack,
                _mm512_mul_pd(_mm512_mul_pd(xnorm_before, pns), df),
            );
            let delta = _mm512_mul_pd(xj, weights);
            let admit =
                _mm512_mask_cmp_pd_mask::<_CMP_GE_OQ>(valid, _mm512_mul_pd(rs2, df), theta_slack);

            // The group qualifies when every valid offset lies in the
            // window and the valid offsets rise strictly (distinct slots).
            let offs = _mm512_sub_epi64(ids, base);
            let inside = _mm512_mask_cmplt_epu64_mask(valid, offs, limit);
            let rising = _mm512_mask_cmpgt_epi64_mask(
                valid >> 1,
                _mm512_permutexvar_epi64(next, offs),
                offs,
            );
            let qualifies = inside == valid && rising == valid >> 1;
            debug_assert_eq!(
                qualifies,
                rises_inside(&postings[i..i + count], self.base, len),
                "the group test decides on the valid lanes alone"
            );
            if !qualifies {
                // SAFETY: the first `n` elements are initialised, as at the
                // end of the pass. The per-entry rule pushes at most
                // `count` more, inside the reserve, so `touched` stays in
                // place.
                unsafe { self.touched.set_len(n) };
                admitted += self.l2_entries_rev(&postings[i..i + count], p, factors);
                n = self.touched.len();
                (len, limit, vals, stamps) = window(self);
                continue;
            }
            // SAFETY: every valid lane of `offs` lies in `[0, len)` (checked
            // above, asserted there), `vals`/`stamps` hold `len` elements
            // each, and masked-off lanes are not accessed.
            let (v, st) = unsafe {
                (
                    _mm512_mask_i64gather_pd::<8>(zero, valid, offs, vals),
                    _mm512_mask_i64gather_epi32::<4>(
                        _mm256_setzero_si256(),
                        valid,
                        offs,
                        stamps as *const i32,
                    ),
                )
            };
            // The per-entry rule of `accumulate` + `zero` as masks:
            // upd = live ∧ v > 0; adm = ¬upd ∧ admit; take = upd ∨ adm;
            // new = (live ? v : 0) + δ; kept = new < pb ? 0 : new.
            let live = _mm256_mask_cmpeq_epi32_mask(valid, st, epoch);
            let upd = _mm512_mask_cmp_pd_mask::<_CMP_GT_OQ>(live, v, zero);
            let adm = !upd & admit;
            let take = upd | adm;
            let fresh = take & !live;
            let new = _mm512_add_pd(_mm512_maskz_mov_pd(live, v), delta);
            let kept = _mm512_maskz_mov_pd(!_mm512_cmp_pd_mask::<_CMP_LT_OQ>(new, pb), new);
            admitted += adm.count_ones();
            let offs32 = _mm512_cvtepi64_epi32(offs);
            debug_assert!(n + count <= self.touched.capacity());
            // SAFETY: the valid offsets lie in `[0, len)` and are distinct
            // (checked above), so the scatters write inside `vals` and
            // `stamps` in any order. The compress-store writes one
            // element per fresh lane at `touched + n`, inside the reserve
            // (one element per posting past the length at entry).
            unsafe {
                _mm512_mask_i64scatter_pd::<8>(vals, take, offs, kept);
                _mm512_mask_i64scatter_epi32::<4>(stamps as *mut i32, fresh, offs, epoch);
                // Newest posting first, the order a per-entry walk touches.
                _mm256_mask_compressstoreu_epi32(
                    touched.add(n) as *mut i32,
                    fresh.reverse_bits(),
                    _mm256_permutevar8x32_epi32(offs32, reverse),
                );
            }
            n += fresh.count_ones() as usize;
        }
        // SAFETY: the first `n` elements are initialised: the length at
        // entry, plus the offsets each step compress-stored.
        unsafe { self.touched.set_len(n) };
        admitted
    }

    /// Applies kernel-prepared ids and score deltas newest entry first,
    /// admitting every touched candidate and never pruning (the INV
    /// index's rule). Returns how many entries were newly admitted.
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
