//! Candidate-batch kernels: fused decay-bound lookup, score delta and
//! prune-threshold computation over a batch of packed postings.
//!
//! A posting batch arrives as raw 64-bit words — [`POSTING_WORDS`] per
//! posting, laid out `[id, weight, prefix_norm, t]` (the `#[repr(C)]`
//! layout of `sssj_collections::PackedPosting`, bit-cast by its
//! `as_words`). Weights and times travel as `f64` bit patterns; ids stay
//! integral and are only ever *moved*, never operated on, so routing
//! them through `f64` lanes is bit-preserving.
//!
//! **Bit-exact contract.** Every kernel here performs per-entry
//! independent arithmetic in the same operation order as its scalar
//! reference (no FMA, no reassociation), so the wide paths return
//! bit-identical outputs. The quantized decay lookup reproduces
//! `DecayTable::upper` exactly for every non-NaN gap: `Δt·inv_step` is
//! clamped into `[0, len-1]` *before* truncation, which matches the
//! reference's saturating `as usize` cast on both ends.
//!
//! Tiers: scalar reference + AVX2 (the wins are the 4×4 posting
//! transpose and the table gather, both 256-bit ideas; SSE4.1 falls back
//! to scalar). The STR-L2 kernel's two steps are public on their own —
//! [`l2_candidate`] for one posting, [`avx2::l2_lanes`] for four — so a
//! caller can apply the values where they are computed.

use crate::dispatch::{active_lane, Lane};

/// Words per packed posting: `[id, weight, prefix_norm, t]`.
pub const POSTING_WORDS: usize = 4;
/// Word offset of the posting id.
pub const POSTING_ID: usize = 0;
/// Word offset of the posting weight (`f64` bits).
pub const POSTING_WEIGHT: usize = 1;
/// Word offset of the posting prefix norm (`f64` bits).
pub const POSTING_PREFIX: usize = 2;
/// Word offset of the posting timestamp (`f64` bits).
pub const POSTING_TIME: usize = 3;

/// Per-dimension invariants of the STR L2 candidate loop, fixed across
/// one posting-list traversal.
///
/// An index without the ℓ2 bound (AP, INV) passes `xnorm_before = ∞`.
/// Its prune threshold `θₛ − ∞·pn·df` is then `−∞` when `pn·df > 0` and
/// `NaN` when `pn·df = 0` (`∞·0 = NaN`), and no score is below either:
/// every lane compares `new < threshold` ordered (scalar `<`,
/// `_CMP_LT_OQ` on AVX2 and AVX-512), which is false against `NaN` and
/// against `−∞`. So it prunes nothing. AP admits on its `rs1` bound
/// alone with `rs2 = ∞` (`∞·df ≥ θₛ` for every `df > 0`; a zero factor
/// refuses the posting through `∞·0 = NaN`, which cannot lose a pair
/// since its decayed score is 0) and vetoes with `rs2 = −∞`. INV also
/// runs with `rs2 = 1` and `theta_slack = −∞`: admission `1·df ≥ −∞`
/// always holds, so every posting is admitted. (`rs2 = ∞` would not do
/// there: it refuses a posting whose factor is zero.)
#[derive(Clone, Copy, Debug)]
pub struct L2BatchParams {
    /// The query's weight on this dimension.
    pub xj: f64,
    /// The query's arrival time.
    pub now: f64,
    /// `‖x‖` of the query prefix *before* this dimension; `∞` turns the
    /// ℓ2 prune off (see above).
    pub xnorm_before: f64,
    /// The query's remaining-suffix norm on this dimension. `-∞` vetoes
    /// admission wholesale: `-∞·df ≥ θₛ` is false for every `df ≥ 0`
    /// (including the `NaN` from `-∞·0`, which compares false under both
    /// scalar `>=` and the ordered SIMD predicate).
    pub rs2: f64,
    /// `θ − ε`: the admission/prune threshold with safety slack; `−∞`
    /// turns every bound off (see above).
    pub theta_slack: f64,
    /// `1/step` of the quantized decay table (positive; a one-bin table
    /// uses 1).
    pub inv_step: f64,
}

fn check_batch(raw: &[u64], outs: &[usize]) -> usize {
    assert_eq!(raw.len() % POSTING_WORDS, 0, "raw posting words");
    let n = raw.len() / POSTING_WORDS;
    for &len in outs {
        assert!(len >= n, "output buffer shorter than batch: {len} < {n}");
    }
    n
}

/// Fused STR-L2 candidate batch: for each posting, the decay upper bound
/// from the quantized table, the score delta `xj·w`, the prune threshold
/// `θₛ − ‖x₍<j₎‖·pn·df`, and the admission flag `rs2·df ≥ θₛ`.
///
/// `raw` is the packed-posting word stream; outputs are parallel arrays
/// of at least `raw.len()/4` entries. Gaps `now − t` must not be NaN.
///
/// No engine calls this: every index kind runs
/// `ScoreAccumulator::accumulate_l2_list_rev`, which computes the same
/// values four postings at a time ([`avx2::l2_lanes`]) or eight at a
/// time on AVX-512, and applies them in registers. This array form stays
/// as that pass's test reference and as the benchmark ladder's micro
/// entry point, so `kernels.l2_batch_ns_per_posting` times this kernel
/// alone, not the engines' hot path.
pub fn l2_candidate_batch(
    raw: &[u64],
    p: &L2BatchParams,
    factors: &[f64],
    out_ids: &mut [u64],
    out_deltas: &mut [f64],
    out_prune_below: &mut [f64],
    out_admit: &mut [u8],
) {
    let n = check_batch(
        raw,
        &[
            out_ids.len(),
            out_deltas.len(),
            out_prune_below.len(),
            out_admit.len(),
        ],
    );
    assert!(
        !factors.is_empty() && p.inv_step > 0.0,
        "malformed decay table"
    );
    match active_lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: lane selection verified the feature; lengths checked.
        Lane::Avx2 | Lane::Avx512 => unsafe {
            l2_candidate_batch_avx2(
                raw,
                p,
                factors,
                out_ids,
                out_deltas,
                out_prune_below,
                out_admit,
            )
        },
        _ => l2_candidate_batch_scalar(
            0,
            n,
            raw,
            p,
            factors,
            out_ids,
            out_deltas,
            out_prune_below,
            out_admit,
        ),
    }
}

/// Scalar reference for [`l2_candidate_batch`] over entries `[from, to)`.
#[allow(clippy::too_many_arguments)]
fn l2_candidate_batch_scalar(
    from: usize,
    to: usize,
    raw: &[u64],
    p: &L2BatchParams,
    factors: &[f64],
    out_ids: &mut [u64],
    out_deltas: &mut [f64],
    out_prune_below: &mut [f64],
    out_admit: &mut [u8],
) {
    for i in from..to {
        let b = i * POSTING_WORDS;
        let c = l2_candidate(
            p,
            factors,
            f64::from_bits(raw[b + POSTING_WEIGHT]),
            f64::from_bits(raw[b + POSTING_PREFIX]),
            f64::from_bits(raw[b + POSTING_TIME]),
        );
        out_ids[i] = raw[b + POSTING_ID];
        out_deltas[i] = c.delta;
        out_prune_below[i] = c.prune_below;
        out_admit[i] = c.admit as u8;
    }
}

/// What [`l2_candidate_batch`] computes for one posting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct L2Candidate {
    /// The score delta `xj·w`.
    pub delta: f64,
    /// The prune threshold `θₛ − ‖x₍<j₎‖·pn·df`.
    pub prune_below: f64,
    /// The admission flag `rs2·df ≥ θₛ`.
    pub admit: bool,
}

/// The scalar reference of [`l2_candidate_batch`] for one posting of
/// weight `weight`, prefix norm `prefix_norm` and arrival time `t`.
/// Every lane of the batch kernel and of [`avx2::l2_lanes`] returns
/// these bits.
#[inline]
pub fn l2_candidate(
    p: &L2BatchParams,
    factors: &[f64],
    weight: f64,
    prefix_norm: f64,
    t: f64,
) -> L2Candidate {
    let max_idx = (factors.len() - 1) as f64;
    let dt = p.now - t;
    let pos = (dt * p.inv_step).min(max_idx).max(0.0);
    let df = factors[pos as usize];
    L2Candidate {
        delta: p.xj * weight,
        prune_below: p.theta_slack - p.xnorm_before * prefix_norm * df,
        admit: p.rs2 * df >= p.theta_slack,
    }
}

/// Batched quantized decay bound: `out[i] = factors[clamp(dts[i]·inv_step)]`,
/// the vector form of `DecayTable::upper`. Requires a non-empty table
/// with `inv_step > 0` (every `DecayTable` is one) and non-NaN gaps; negative gaps saturate to
/// bin 0 and over-horizon gaps clamp to the last bin, exactly like the
/// scalar table.
pub fn decay_upper_batch(dts: &[f64], inv_step: f64, factors: &[f64], out: &mut [f64]) {
    assert!(out.len() >= dts.len());
    assert!(
        !factors.is_empty() && inv_step > 0.0,
        "malformed decay table"
    );
    match active_lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: lane selection verified the feature; lengths checked.
        Lane::Avx2 | Lane::Avx512 => unsafe { decay_upper_batch_avx2(dts, inv_step, factors, out) },
        _ => decay_upper_batch_scalar(0, dts.len(), dts, inv_step, factors, out),
    }
}

fn decay_upper_batch_scalar(
    from: usize,
    to: usize,
    dts: &[f64],
    inv_step: f64,
    factors: &[f64],
    out: &mut [f64],
) {
    let max_idx = (factors.len() - 1) as f64;
    for i in from..to {
        let pos = (dts[i] * inv_step).min(max_idx).max(0.0);
        out[i] = factors[pos as usize];
    }
}

/// The AVX2 building blocks of the batch kernels, public so that a
/// caller can fuse the STR-L2 candidate computation with its own use of
/// the results (`sssj_collections::ScoreAccumulator::accumulate_l2_list_rev`
/// applies each group of four in registers instead of reading back
/// [`l2_candidate_batch`]'s output arrays).
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use std::arch::x86_64::*;

    use super::L2BatchParams;

    /// The loop invariants of [`l2_lanes`], broadcast once per posting
    /// list, and the decay table they index.
    #[derive(Clone, Copy, Debug)]
    pub struct L2Splat<'a> {
        factors: &'a [f64],
        max_idx: __m256d,
        now: __m256d,
        inv_step: __m256d,
        xj: __m256d,
        xnorm_before: __m256d,
        rs2: __m256d,
        theta_slack: __m256d,
    }

    impl<'a> L2Splat<'a> {
        /// Broadcasts `p` and binds the quantized decay table `factors`
        /// (non-empty, with `p.inv_step > 0`, as [`super::l2_candidate_batch`]
        /// asserts).
        ///
        /// # Safety
        ///
        /// Outside code compiled for AVX2, the caller must have verified
        /// `avx2`.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn new(p: &L2BatchParams, factors: &'a [f64]) -> Self {
            debug_assert!(
                !factors.is_empty() && p.inv_step > 0.0,
                "malformed decay table"
            );
            L2Splat {
                factors,
                max_idx: _mm256_set1_pd((factors.len() - 1) as f64),
                now: _mm256_set1_pd(p.now),
                inv_step: _mm256_set1_pd(p.inv_step),
                xj: _mm256_set1_pd(p.xj),
                xnorm_before: _mm256_set1_pd(p.xnorm_before),
                rs2: _mm256_set1_pd(p.rs2),
                theta_slack: _mm256_set1_pd(p.theta_slack),
            }
        }
    }

    /// Postings `i..i+4` of a batch: lane `k` holds posting `i + k`.
    #[derive(Clone, Copy, Debug)]
    pub struct L2Lanes {
        /// The posting ids, as 64-bit integers.
        pub ids: __m256i,
        /// The score deltas `xj·w`.
        pub deltas: __m256d,
        /// The prune thresholds `θₛ − ‖x₍<j₎‖·pn·df`.
        pub prune_below: __m256d,
        /// The admission flags `rs2·df ≥ θₛ`, as all-ones / all-zeros lanes.
        pub admit: __m256d,
    }

    /// The STR-L2 candidate values of postings `i..i+4` of the packed
    /// word stream `raw`: bit for bit what [`super::l2_candidate`]
    /// returns for each (same operations, same order, no FMA).
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2`, that `raw` holds at least
    /// `4·(i+4)` words, and that the table `s` was built from is not
    /// empty (the lookup clamps every gap, NaN included, into its bins).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn l2_lanes(raw: &[u64], i: usize, s: &L2Splat<'_>) -> L2Lanes {
        debug_assert!(raw.len() >= 4 * (i + 4) && !s.factors.is_empty());
        let (ids, times, weights, pns) = transpose4(raw, i);
        let dt = _mm256_sub_pd(s.now, times);
        let pos = _mm256_mul_pd(dt, s.inv_step);
        let df = gather_clamped(s.factors, pos, s.max_idx, _mm256_setzero_pd());
        let pb = _mm256_sub_pd(
            s.theta_slack,
            _mm256_mul_pd(_mm256_mul_pd(s.xnorm_before, pns), df),
        );
        L2Lanes {
            ids: _mm256_castpd_si256(ids),
            deltas: _mm256_mul_pd(s.xj, weights),
            prune_below: pb,
            admit: _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_mul_pd(s.rs2, df), s.theta_slack),
        }
    }

    /// Loads postings `i..i+4` from the word stream and transposes them
    /// into `(ids, weights, prefix_norms, times)` column vectors. Pure
    /// data movement — bit-preserving for the integral id lane.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2` and that `raw` holds at least
    /// `4·(i+4)` words.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose4(raw: &[u64], i: usize) -> (__m256d, __m256d, __m256d, __m256d) {
        let base = raw.as_ptr().add(4 * i) as *const f64;
        let r0 = _mm256_loadu_pd(base);
        let r1 = _mm256_loadu_pd(base.add(4));
        let r2 = _mm256_loadu_pd(base.add(8));
        let r3 = _mm256_loadu_pd(base.add(12));
        let t0 = _mm256_unpacklo_pd(r0, r1); // id0 id1 pn0 pn1
        let t1 = _mm256_unpackhi_pd(r0, r1); // w0  w1  t0  t1
        let t2 = _mm256_unpacklo_pd(r2, r3);
        let t3 = _mm256_unpackhi_pd(r2, r3);
        (
            _mm256_permute2f128_pd::<0x20>(t0, t2), // ids
            _mm256_permute2f128_pd::<0x31>(t1, t3), // times
            _mm256_permute2f128_pd::<0x20>(t1, t3), // weights
            _mm256_permute2f128_pd::<0x31>(t0, t2), // prefix norms
        )
    }

    /// Table lookup: clamp `pos` into `[0, max_idx]`, truncate, gather.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2`; `factors.len() - 1` must equal
    /// the value `max_idx` was built from.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gather_clamped(
        factors: &[f64],
        pos: __m256d,
        max_idx: __m256d,
        zero: __m256d,
    ) -> __m256d {
        let clamped = _mm256_max_pd(_mm256_min_pd(pos, max_idx), zero);
        let idx = _mm256_cvttpd_epi32(clamped);
        _mm256_i32gather_pd::<8>(factors.as_ptr(), idx)
    }

    /// Splits an admission movemask into four 0/1 bytes.
    #[inline]
    pub(crate) fn store_admit(out: &mut [u8], i: usize, mask: i32) {
        let m = mask as u32;
        out[i] = (m & 1) as u8;
        out[i + 1] = ((m >> 1) & 1) as u8;
        out[i + 2] = ((m >> 2) & 1) as u8;
        out[i + 3] = ((m >> 3) & 1) as u8;
    }
}

/// # Safety
///
/// Caller must have verified `avx2` and output lengths ≥ `raw.len()/4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn l2_candidate_batch_avx2(
    raw: &[u64],
    p: &L2BatchParams,
    factors: &[f64],
    out_ids: &mut [u64],
    out_deltas: &mut [f64],
    out_prune_below: &mut [f64],
    out_admit: &mut [u8],
) {
    use std::arch::x86_64::*;
    let n = raw.len() / POSTING_WORDS;
    let splat = avx2::L2Splat::new(p, factors);
    let mut i = 0usize;
    while i + 4 <= n {
        let lanes = avx2::l2_lanes(raw, i, &splat);
        _mm256_storeu_si256(out_ids.as_mut_ptr().add(i) as *mut __m256i, lanes.ids);
        _mm256_storeu_pd(out_deltas.as_mut_ptr().add(i), lanes.deltas);
        _mm256_storeu_pd(out_prune_below.as_mut_ptr().add(i), lanes.prune_below);
        avx2::store_admit(out_admit, i, _mm256_movemask_pd(lanes.admit));
        i += 4;
    }
    l2_candidate_batch_scalar(
        i,
        n,
        raw,
        p,
        factors,
        out_ids,
        out_deltas,
        out_prune_below,
        out_admit,
    );
}

/// # Safety
///
/// Caller must have verified `avx2` and `out.len() >= dts.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn decay_upper_batch_avx2(dts: &[f64], inv_step: f64, factors: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let max_idx = _mm256_set1_pd((factors.len() - 1) as f64);
    let zero = _mm256_setzero_pd();
    let invs = _mm256_set1_pd(inv_step);
    let mut i = 0usize;
    while i + 4 <= dts.len() {
        let dt = _mm256_loadu_pd(dts.as_ptr().add(i));
        let df = avx2::gather_clamped(factors, _mm256_mul_pd(dt, invs), max_idx, zero);
        _mm256_storeu_pd(out.as_mut_ptr().add(i), df);
        i += 4;
    }
    decay_upper_batch_scalar(i, dts.len(), dts, inv_step, factors, out);
}
