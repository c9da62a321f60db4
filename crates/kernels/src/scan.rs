//! Strided scans over packed time-ordered entry blocks.
//!
//! A `TimedBlock<T>` stores its entries contiguously; when `T` is
//! `#[repr(C)]` with only 64-bit fields, the live region bit-casts to a
//! `&[u64]` word stream (`PackedPosting::as_words`, `Edge::as_words`).
//! These kernels walk one `f64` field of each entry — `stride` words per
//! entry, the field at word `offset` — with AVX2 gathers.
//!
//! **Exactness contract.** Both kernels are pure comparisons with no
//! arithmetic: every lane returns identical results bit for bit. The
//! ordered SIMD predicates treat NaN as *false*, as do the scalar
//! references (`!(t < cutoff)` stops; `v >= min` rejects).

use crate::dispatch::{active_lane, Lane};

fn entry_count(words: &[u64], stride: usize, offset: usize) -> usize {
    assert!(stride >= 1 && offset < stride, "bad stride/offset");
    assert_eq!(words.len() % stride, 0, "words not a whole entry count");
    words.len() / stride
}

/// The number of leading entries whose time field is `< cutoff` — the
/// expiry partition point of a time-ordered block.
///
/// Equivalent to `partition_point(|e| e.t < cutoff)` when times are
/// non-decreasing, but a linear count from the front: expiry batches
/// are short (the engines call this on bounded chunks), so the
/// branch-free 4-wide count beats a binary search's mispredicts. It only
/// reads the block; the caller cuts the counted prefix.
pub fn partition_time_strided(words: &[u64], stride: usize, offset: usize, cutoff: f64) -> usize {
    let n = entry_count(words, stride, offset);
    match active_lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: lane selection verified the feature; layout checked.
        Lane::Avx2 | Lane::Avx512 => unsafe {
            partition_time_avx2(words, stride, offset, cutoff, n)
        },
        _ => partition_time_scalar(words, stride, offset, cutoff, 0, n),
    }
}

// `!(t < cutoff)` rather than `t >= cutoff`: a NaN timestamp must stop
// the expiry scan (fail-safe: keep the entry), exactly matching the
// AVX2 path's `_CMP_LT_OQ` mask where NaN compares not-less.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn partition_time_scalar(
    words: &[u64],
    stride: usize,
    offset: usize,
    cutoff: f64,
    from: usize,
    n: usize,
) -> usize {
    for i in from..n {
        let t = f64::from_bits(words[i * stride + offset]);
        if !(t < cutoff) {
            return i;
        }
    }
    n
}

/// Collects into `out_idx` the indices of entries whose `f64` field at
/// `offset` is `>= min`, returning how many qualified. `out_idx` must
/// hold at least one slot per entry.
///
/// This is the graph top-k filter: with a full candidate heap, only
/// edges at least as similar as the heap root can change the answer, and
/// they are rare — the kernel turns the scan into compares + movemask
/// and leaves the heap to the survivors.
pub fn select_ge_strided(
    words: &[u64],
    stride: usize,
    offset: usize,
    min: f64,
    out_idx: &mut [u32],
) -> usize {
    let n = entry_count(words, stride, offset);
    assert!(out_idx.len() >= n, "index buffer shorter than block");
    assert!(n <= u32::MAX as usize);
    match active_lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: lane selection verified the feature; lengths checked.
        Lane::Avx2 | Lane::Avx512 => unsafe {
            select_ge_avx2(words, stride, offset, min, out_idx, n)
        },
        _ => select_ge_scalar(words, stride, offset, min, out_idx, 0, n, 0),
    }
}

#[allow(clippy::too_many_arguments)]
fn select_ge_scalar(
    words: &[u64],
    stride: usize,
    offset: usize,
    min: f64,
    out_idx: &mut [u32],
    from: usize,
    n: usize,
    mut count: usize,
) -> usize {
    for i in from..n {
        let v = f64::from_bits(words[i * stride + offset]);
        if v >= min {
            out_idx[count] = i as u32;
            count += 1;
        }
    }
    count
}

/// # Safety
///
/// Caller must have verified `avx2`; `words` must hold `n` entries of
/// `stride` words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn partition_time_avx2(
    words: &[u64],
    stride: usize,
    offset: usize,
    cutoff: f64,
    n: usize,
) -> usize {
    use std::arch::x86_64::*;
    let cut = _mm256_set1_pd(cutoff);
    let s = stride as i32;
    let idx = _mm_set_epi32(3 * s, 2 * s, s, 0);
    let mut g = 0usize;
    while (g + 1) * 4 <= n {
        let base = words.as_ptr().add(g * 4 * stride + offset) as *const f64;
        let t = _mm256_i32gather_pd::<8>(base, idx);
        let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(t, cut);
        let m = _mm256_movemask_pd(lt) as u32;
        if m != 0xF {
            // First lane where `t < cutoff` fails.
            return g * 4 + (!m & 0xF).trailing_zeros() as usize;
        }
        g += 1;
    }
    partition_time_scalar(words, stride, offset, cutoff, g * 4, n)
}

/// # Safety
///
/// Caller must have verified `avx2`; `out_idx.len() >= n`; `words` must
/// hold `n` entries of `stride` words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn select_ge_avx2(
    words: &[u64],
    stride: usize,
    offset: usize,
    min: f64,
    out_idx: &mut [u32],
    n: usize,
) -> usize {
    use std::arch::x86_64::*;
    let minv = _mm256_set1_pd(min);
    let s = stride as i32;
    let idx = _mm_set_epi32(3 * s, 2 * s, s, 0);
    let mut count = 0usize;
    let mut g = 0usize;
    while (g + 1) * 4 <= n {
        let base = words.as_ptr().add(g * 4 * stride + offset) as *const f64;
        let v = _mm256_i32gather_pd::<8>(base, idx);
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(v, minv);
        let mut m = _mm256_movemask_pd(ge) as u32;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            *out_idx.get_unchecked_mut(count) = (g * 4 + k) as u32;
            count += 1;
            m &= m - 1;
        }
        g += 1;
    }
    select_ge_scalar(words, stride, offset, min, out_idx, g * 4, n, count)
}
