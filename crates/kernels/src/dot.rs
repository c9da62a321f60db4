//! Sparse·sparse and sparse·dense dot-product kernels.
//!
//! All slices follow the `SparseVector` layout: parallel `(dims, weights)`
//! arrays with **strictly increasing** dimension ids. That invariant is a
//! precondition here — it guarantees each dim matches at most once inside
//! a 4-wide compare window, which is what makes the merge path gather-free.

use crate::dispatch::{active_lane, Lane};

/// Dot product by simultaneous scan of two sorted dim arrays.
///
/// The wide paths compare a 4-dim window of `a` against all four
/// rotations of a 4-dim window of `b` (`pcmpeqd` + shuffles — no
/// gathers), mask the products and advance whichever window's maximum is
/// smaller. **Tolerance contract:** the AVX2 path keeps four partial
/// accumulators and the SSE4.1 path visits a window's matches in
/// rotation order rather than dim order, so either may differ from the
/// scalar reference by summation-order rounding (relative error ≲ 1e-12
/// for unit vectors).
pub fn dot_merge(ad: &[u32], aw: &[f64], bd: &[u32], bw: &[f64]) -> f64 {
    debug_assert_eq!(ad.len(), aw.len());
    debug_assert_eq!(bd.len(), bw.len());
    match active_lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: lane selection verified the feature.
        Lane::Avx2 | Lane::Avx512 => unsafe { dot_merge_avx2(ad, aw, bd, bw) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: lane selection verified the feature.
        Lane::Sse41 => unsafe { dot_merge_sse41(ad, aw, bd, bw) },
        _ => dot_merge_scalar(ad, aw, bd, bw),
    }
}

/// Dot product by probing each coordinate of the short side inside the
/// long side.
///
/// The wide paths replace the binary search with an 8-wide monotone
/// linear scan (compare, movemask, count-trailing-ones) resumed from the
/// previous landing point. **Bit-exact contract:** only the *search* is
/// vectorized; products are added one short-coordinate at a time in the
/// same order as the scalar reference, so all lanes return identical
/// bits. Above a 64× length imbalance every lane falls back to the
/// binary-search reference, keeping the probe `O(short · log long)`.
pub fn dot_probe(sd: &[u32], sw: &[f64], ld: &[u32], lw: &[f64]) -> f64 {
    debug_assert_eq!(sd.len(), sw.len());
    debug_assert_eq!(ld.len(), lw.len());
    if sd.is_empty() || ld.len() > 64 * sd.len() {
        return dot_probe_scalar(sd, sw, ld, lw);
    }
    match active_lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: lane selection verified the feature.
        Lane::Avx2 | Lane::Avx512 => unsafe { dot_probe_avx2(sd, sw, ld, lw) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: lane selection verified the feature.
        Lane::Sse41 => unsafe { dot_probe_sse41(sd, sw, ld, lw) },
        _ => dot_probe_scalar(sd, sw, ld, lw),
    }
}

/// Dot product of a sparse vector against a dense array indexed by dim;
/// out-of-range dims contribute zero.
///
/// STR's verification runs every full similarity through it: the
/// candidate's residual against the query scattered by dimension
/// (`sssj_core::Streaming`), so the cost follows the residual alone.
///
/// The AVX2 path gathers four dense weights per step while the window's
/// largest dim stays in range (dims are sorted, so one compare guards
/// all four lanes); the remainder — and every dim past the dense end —
/// runs through the scalar bounds-checked tail. **Tolerance contract:**
/// four partial accumulators, same bound as [`dot_merge`]. There is no
/// SSE4.1 tier (the win here is the gather).
pub fn dot_dense(ad: &[u32], aw: &[f64], dense: &[f64]) -> f64 {
    debug_assert_eq!(ad.len(), aw.len());
    match active_lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: lane selection verified the feature.
        Lane::Avx2 | Lane::Avx512 => unsafe { dot_dense_avx2(ad, aw, dense) },
        _ => dot_dense_scalar(ad, aw, dense),
    }
}

/// Scalar [`dot_merge`]: the classic two-pointer sorted merge. This is
/// the portable reference the wide paths are differential-tested against.
pub fn dot_merge_scalar(ad: &[u32], aw: &[f64], bd: &[u32], bw: &[f64]) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut acc = 0.0;
    while i < ad.len() && j < bd.len() {
        match ad[i].cmp(&bd[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += aw[i] * bw[j];
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Scalar [`dot_probe`]: binary-search each short coordinate in the
/// not-yet-consumed suffix of the long side. Portable reference; also
/// the fallback for extreme (>64×) imbalance on every lane.
pub fn dot_probe_scalar(sd: &[u32], sw: &[f64], ld: &[u32], lw: &[f64]) -> f64 {
    let mut lo = 0;
    let mut acc = 0.0;
    for (&d, &w) in sd.iter().zip(sw) {
        if lo >= ld.len() {
            break;
        }
        match ld[lo..].binary_search(&d) {
            Ok(k) => {
                acc += w * lw[lo + k];
                lo += k + 1;
            }
            Err(k) => lo += k,
        }
    }
    acc
}

/// Scalar [`dot_dense`]: one bounds-checked lookup per sparse coordinate.
pub fn dot_dense_scalar(ad: &[u32], aw: &[f64], dense: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&d, &w) in ad.iter().zip(aw) {
        if let Some(&m) = dense.get(d as usize) {
            acc += w * m;
        }
    }
    acc
}

/// Finishes a scalar two-pointer merge from positions `(i, j)`.
fn merge_tail(ad: &[u32], aw: &[f64], bd: &[u32], bw: &[f64], mut i: usize, mut j: usize) -> f64 {
    let mut acc = 0.0;
    while i < ad.len() && j < bd.len() {
        match ad[i].cmp(&bd[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += aw[i] * bw[j];
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Sums the four lanes of a 256-bit accumulator (lo+hi, then pairwise).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX support.
    #[target_feature(enable = "avx")]
    pub unsafe fn hsum4(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let s = _mm_add_pd(lo, hi);
        let s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
        _mm_cvtsd_f64(s)
    }
}

/// The 4×4 compare-all-rotations merge window.
///
/// # Safety
///
/// Caller must have verified `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_merge_avx2(ad: &[u32], aw: &[f64], bd: &[u32], bw: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let mut i = 0usize;
    let mut j = 0usize;
    let mut acc = _mm256_setzero_pd();
    while i + 4 <= ad.len() && j + 4 <= bd.len() {
        let da = _mm_loadu_si128(ad.as_ptr().add(i).cast());
        let db = _mm_loadu_si128(bd.as_ptr().add(j).cast());
        let wa = _mm256_loadu_pd(aw.as_ptr().add(i));
        let wb = _mm256_loadu_pd(bw.as_ptr().add(j));
        // Rotation r aligns a-lane k with b-lane (k+r) mod 4; strictly
        // increasing dims mean at most one rotation matches per lane, so
        // masking products into the accumulator cannot double-count.
        let m0 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(da, db));
        acc = _mm256_add_pd(
            acc,
            _mm256_and_pd(_mm256_castsi256_pd(m0), _mm256_mul_pd(wa, wb)),
        );
        let m1 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(da, _mm_shuffle_epi32::<0x39>(db)));
        acc = _mm256_add_pd(
            acc,
            _mm256_and_pd(
                _mm256_castsi256_pd(m1),
                _mm256_mul_pd(wa, _mm256_permute4x64_pd::<0x39>(wb)),
            ),
        );
        let m2 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(da, _mm_shuffle_epi32::<0x4E>(db)));
        acc = _mm256_add_pd(
            acc,
            _mm256_and_pd(
                _mm256_castsi256_pd(m2),
                _mm256_mul_pd(wa, _mm256_permute4x64_pd::<0x4E>(wb)),
            ),
        );
        let m3 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(da, _mm_shuffle_epi32::<0x93>(db)));
        acc = _mm256_add_pd(
            acc,
            _mm256_and_pd(
                _mm256_castsi256_pd(m3),
                _mm256_mul_pd(wa, _mm256_permute4x64_pd::<0x93>(wb)),
            ),
        );
        // Advance whichever window tops out lower: everything in it is
        // below the other side's remaining dims. Ties advance both.
        let amax = *ad.get_unchecked(i + 3);
        let bmax = *bd.get_unchecked(j + 3);
        if amax <= bmax {
            i += 4;
        }
        if bmax <= amax {
            j += 4;
        }
    }
    x86::hsum4(acc) + merge_tail(ad, aw, bd, bw, i, j)
}

/// 128-bit merge window: vector dim compares, scalar adds per match bit.
///
/// # Safety
///
/// Caller must have verified `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn dot_merge_sse41(ad: &[u32], aw: &[f64], bd: &[u32], bw: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let mut i = 0usize;
    let mut j = 0usize;
    let mut acc = 0.0f64;
    while i + 4 <= ad.len() && j + 4 <= bd.len() {
        let da = _mm_loadu_si128(ad.as_ptr().add(i).cast());
        let db = _mm_loadu_si128(bd.as_ptr().add(j).cast());
        let mut fold = |eq: __m128i, r: usize| {
            let mut m = _mm_movemask_ps(_mm_castsi128_ps(eq)) as u32;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                acc += aw[i + k] * bw[j + (k + r) % 4];
                m &= m - 1;
            }
        };
        fold(_mm_cmpeq_epi32(da, db), 0);
        fold(_mm_cmpeq_epi32(da, _mm_shuffle_epi32::<0x39>(db)), 1);
        fold(_mm_cmpeq_epi32(da, _mm_shuffle_epi32::<0x4E>(db)), 2);
        fold(_mm_cmpeq_epi32(da, _mm_shuffle_epi32::<0x93>(db)), 3);
        let amax = *ad.get_unchecked(i + 3);
        let bmax = *bd.get_unchecked(j + 3);
        if amax <= bmax {
            i += 4;
        }
        if bmax <= amax {
            j += 4;
        }
    }
    acc + merge_tail(ad, aw, bd, bw, i, j)
}

/// Shared body of the wide probe paths. `$scan(d, lo)` inspects one full
/// vector window starting at `lo` (availability is checked before the
/// call) and returns the index of the first long dim `>= d` inside it,
/// or `None` when the whole window is below `d`.
macro_rules! probe_body {
    ($sd:ident, $sw:ident, $ld:ident, $lw:ident, $lo:ident, $acc:ident, $scan:expr) => {
        'outer: for (&d, &w) in $sd.iter().zip($sw) {
            loop {
                if $lo + WIDTH > $ld.len() {
                    // Not enough dims left for a vector: scalar remainder.
                    while $lo < $ld.len() && $ld[$lo] < d {
                        $lo += 1;
                    }
                    if $lo >= $ld.len() {
                        break 'outer;
                    }
                    if $ld[$lo] == d {
                        $acc += w * $lw[$lo];
                        $lo += 1;
                    }
                    break;
                }
                match $scan(d, $lo) {
                    Some(k) => {
                        // First long dim >= d lands at k.
                        if $ld[k] == d {
                            $acc += w * $lw[k];
                            $lo = k + 1;
                        } else {
                            $lo = k;
                        }
                        break;
                    }
                    // A full window of dims < d: skip it.
                    None => $lo += WIDTH,
                }
            }
            if $lo >= $ld.len() {
                break;
            }
        }
    };
}

/// 8-wide monotone probe scan.
///
/// # Safety
///
/// Caller must have verified `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_probe_avx2(sd: &[u32], sw: &[f64], ld: &[u32], lw: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    const WIDTH: usize = 8;
    let bias = _mm256_set1_epi32(i32::MIN);
    let mut lo = 0usize;
    let mut acc = 0.0f64;
    probe_body!(sd, sw, ld, lw, lo, acc, |d: u32, lo: usize| {
        let v = _mm256_loadu_si256(ld.as_ptr().add(lo).cast());
        let dv = _mm256_set1_epi32(d as i32);
        // Unsigned `ld < d` via sign-bias then signed compare-greater.
        let lt = _mm256_cmpgt_epi32(_mm256_xor_si256(dv, bias), _mm256_xor_si256(v, bias));
        let m = _mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32;
        if m == 0xFF {
            None
        } else {
            Some(lo + (!m & 0xFF).trailing_zeros() as usize)
        }
    });
    acc
}

/// 4-wide monotone probe scan.
///
/// # Safety
///
/// Caller must have verified `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn dot_probe_sse41(sd: &[u32], sw: &[f64], ld: &[u32], lw: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    const WIDTH: usize = 4;
    let bias = _mm_set1_epi32(i32::MIN);
    let mut lo = 0usize;
    let mut acc = 0.0f64;
    probe_body!(sd, sw, ld, lw, lo, acc, |d: u32, lo: usize| {
        let v = _mm_loadu_si128(ld.as_ptr().add(lo).cast());
        let dv = _mm_set1_epi32(d as i32);
        let lt = _mm_cmpgt_epi32(_mm_xor_si128(dv, bias), _mm_xor_si128(v, bias));
        let m = _mm_movemask_ps(_mm_castsi128_ps(lt)) as u32;
        if m == 0xF {
            None
        } else {
            Some(lo + (!m & 0xF).trailing_zeros() as usize)
        }
    });
    acc
}

/// Gathered sparse·dense loop.
///
/// # Safety
///
/// Caller must have verified `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_dense_avx2(ad: &[u32], aw: &[f64], dense: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    // Guarantee every gathered index is both in range and representable
    // as a non-negative i32 (the gather's index type).
    let lim = dense.len().min(1usize << 31);
    let mut acc = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 4 <= ad.len() && (*ad.get_unchecked(i + 3) as usize) < lim {
        let vi = _mm_loadu_si128(ad.as_ptr().add(i).cast());
        let vd = _mm256_i32gather_pd::<8>(dense.as_ptr(), vi);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(vd, _mm256_loadu_pd(aw.as_ptr().add(i))));
        i += 4;
    }
    let mut total = x86::hsum4(acc);
    for k in i..ad.len() {
        if let Some(&m) = dense.get(ad[k] as usize) {
            total += aw[k] * m;
        }
    }
    total
}
