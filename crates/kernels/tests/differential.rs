//! Differential tests: every kernel, every lane, against the scalar
//! reference — bit-exact where the kernel contracts it, within the
//! documented summation-order tolerance otherwise.

use proptest::collection::vec;
use proptest::proptest;
use sssj_kernels::{
    decay_upper_batch, dot_dense, dot_merge, dot_probe, force_lane, l2_candidate_batch,
    partition_time_strided, posting_products, reference, select_ge_strided, L2BatchParams, Lane,
    POSTING_WORDS,
};
use std::sync::Mutex;

/// Serializes sections that flip the process-global lane override.
static LANE_LOCK: Mutex<()> = Mutex::new(());

const LANES: [Lane; 4] = [Lane::Scalar, Lane::Sse41, Lane::Avx2, Lane::Avx512];

/// Runs `f` once per lane (clamped to hardware) and returns the results
/// keyed by the requested lane; always restores auto dispatch.
fn on_each_lane<T>(f: impl Fn() -> T) -> Vec<(Lane, T)> {
    let _g = LANE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out = LANES
        .iter()
        .map(|&l| {
            force_lane(Some(l));
            (l, f())
        })
        .collect();
    force_lane(None);
    out
}

/// Sorts by dim, drops duplicate dims: a valid strictly-increasing
/// sparse layout from arbitrary `(dim, weight)` pairs.
fn sparse(pairs: Vec<(u32, f64)>) -> (Vec<u32>, Vec<f64>) {
    let mut pairs = pairs;
    pairs.sort_by_key(|p| p.0);
    pairs.dedup_by_key(|p| p.0);
    pairs.into_iter().unzip()
}

fn assert_close(got: f64, want: f64, what: &str) {
    let tol = 1e-12 * want.abs().max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got}, want {want} (tol {tol})"
    );
}

proptest! {
    #[test]
    fn merge_lanes_match_reference(
        a in vec((0u32..500, -2.0..2.0f64), 0..48),
        b in vec((0u32..500, -2.0..2.0f64), 0..48),
    ) {
        let (ad, aw) = sparse(a);
        let (bd, bw) = sparse(b);
        let want = reference::dot_merge(&ad, &aw, &bd, &bw);
        for (lane, got) in on_each_lane(|| dot_merge(&ad, &aw, &bd, &bw)) {
            assert_close(got, want, &format!("dot_merge on {lane:?}"));
        }
    }

    #[test]
    fn probe_lanes_are_bit_exact(
        s in vec((0u32..400, -2.0..2.0f64), 0..10),
        l in vec((0u32..400, -2.0..2.0f64), 0..200),
    ) {
        let (sd, sw) = sparse(s);
        let (ld, lw) = sparse(l);
        let want = reference::dot_probe(&sd, &sw, &ld, &lw);
        for (lane, got) in on_each_lane(|| dot_probe(&sd, &sw, &ld, &lw)) {
            assert!(
                got.to_bits() == want.to_bits(),
                "dot_probe on {lane:?}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn dense_lanes_match_reference(
        a in vec((0u32..600, -2.0..2.0f64), 0..48),
        dense in vec(-2.0..2.0f64, 0..500),
    ) {
        let (ad, aw) = sparse(a);
        let want = reference::dot_dense(&ad, &aw, &dense);
        for (lane, got) in on_each_lane(|| dot_dense(&ad, &aw, &dense)) {
            assert_close(got, want, &format!("dot_dense on {lane:?}"));
        }
    }

    #[test]
    fn l2_batch_lanes_are_bit_exact(
        postings in vec((proptest::num::u64::ANY, -1.0..1.0f64, 0.0..1.0f64, 0.0..50.0f64), 0..19),
        xj in -1.0..1.0f64,
        lambda in 0.01..0.5f64,
    ) {
        let raw = pack(&postings);
        let (factors, inv_step) = table(lambda, 60.0);
        let p = L2BatchParams {
            xj,
            now: 50.0,
            xnorm_before: 0.8,
            rs2: 0.6,
            theta_slack: 0.5 - 1e-12,
            inv_step,
        };
        let n = postings.len();
        let runs = on_each_lane(|| {
            let mut ids = vec![0u64; n];
            let mut deltas = vec![0.0f64; n];
            let mut prune = vec![0.0f64; n];
            let mut admit = vec![0u8; n];
            l2_candidate_batch(&raw, &p, &factors, &mut ids, &mut deltas, &mut prune, &mut admit);
            (ids, deltas, prune, admit)
        });
        assert_lanes_bit_equal(runs);
    }

    #[test]
    fn decay_upper_batch_matches_table_formula(
        dts in vec(-5.0..120.0f64, 0..23),
        lambda in 0.01..0.5f64,
    ) {
        let (factors, inv_step) = table(lambda, 100.0);
        // The scalar `DecayTable::upper` formula: saturating cast + clamp.
        let expect: Vec<f64> = dts
            .iter()
            .map(|&dt| {
                let idx = (dt * inv_step) as usize;
                factors[idx.min(factors.len() - 1)]
            })
            .collect();
        for (lane, got) in on_each_lane(|| {
            let mut out = vec![0.0f64; dts.len()];
            decay_upper_batch(&dts, inv_step, &factors, &mut out);
            out
        }) {
            for (g, e) in got.iter().zip(&expect) {
                assert!(g.to_bits() == e.to_bits(), "decay_upper on {lane:?}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn partition_matches_partition_point(
        gaps in vec(0.0..3.0f64, 0..40),
        cut in 0.0..60.0f64,
        stride in 3usize..5,
    ) {
        // Monotone non-decreasing times, as a TimedBlock guarantees.
        let mut t = 0.0;
        let times: Vec<f64> = gaps.iter().map(|g| { t += g; t }).collect();
        let offset = stride - 1;
        let mut words = vec![0u64; times.len() * stride];
        for (i, &ti) in times.iter().enumerate() {
            words[i * stride + offset] = ti.to_bits();
        }
        let want = times.partition_point(|&ti| ti < cut);
        for (lane, got) in on_each_lane(|| partition_time_strided(&words, stride, offset, cut)) {
            assert_eq!(got, want, "partition on {lane:?}");
        }
    }

    #[test]
    fn select_ge_matches_filter(
        vals in vec(-1.0..1.0f64, 0..60),
        min in -1.0..1.0f64,
        stride in 3usize..5,
    ) {
        let mut words = vec![0u64; vals.len() * stride];
        for (i, &v) in vals.iter().enumerate() {
            words[i * stride + 1] = v.to_bits();
        }
        let want: Vec<u32> = (0..vals.len() as u32).filter(|&i| vals[i as usize] >= min).collect();
        for (lane, got) in on_each_lane(|| {
            let mut idx = vec![0u32; vals.len()];
            let m = select_ge_strided(&words, stride, 1, min, &mut idx);
            idx.truncate(m);
            idx
        }) {
            assert_eq!(got, want, "select_ge on {lane:?}");
        }
    }
}

fn pack(postings: &[(u64, f64, f64, f64)]) -> Vec<u64> {
    let mut raw = Vec::with_capacity(postings.len() * POSTING_WORDS);
    for &(id, w, pn, t) in postings {
        raw.extend_from_slice(&[id, w.to_bits(), pn.to_bits(), t.to_bits()]);
    }
    raw
}

/// A quantized decay table built the same way `DecayTable::new` builds
/// one (replicated here — a dev-dependency on `sssj-types` would cycle).
fn table(lambda: f64, horizon: f64) -> (Vec<f64>, f64) {
    const BINS: usize = 256;
    let step = horizon / BINS as f64;
    let factors = (0..=BINS)
        .map(|i| (-lambda * i as f64 * step).exp())
        .collect();
    (factors, 1.0 / step)
}

type BatchOut = (Vec<u64>, Vec<f64>, Vec<f64>, Vec<u8>);

fn assert_lanes_bit_equal(runs: Vec<(Lane, BatchOut)>) {
    let (_, base) = &runs[0];
    for (lane, out) in &runs[1..] {
        assert_eq!(out.0, base.0, "ids differ on {lane:?}");
        assert_eq!(out.3, base.3, "admit differs on {lane:?}");
        for (field, (got, want)) in [(&out.1, &base.1), (&out.2, &base.2)]
            .iter()
            .enumerate()
            .map(|(f, (g, w))| (f, (g.iter(), w.iter())))
            .flat_map(|(f, (g, w))| g.zip(w).map(move |p| (f, p)))
        {
            assert!(
                got.to_bits() == want.to_bits(),
                "field {field} differs on {lane:?}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn probe_extreme_imbalance_uses_binary_search_everywhere() {
    let sd = [700u32];
    let sw = [2.0f64];
    let ld: Vec<u32> = (0..500).map(|i| i * 2).collect();
    let lw: Vec<f64> = (0..500).map(|i| 0.5 + i as f64).collect();
    let want = reference::dot_probe(&sd, &sw, &ld, &lw);
    for (lane, got) in on_each_lane(|| dot_probe(&sd, &sw, &ld, &lw)) {
        assert!(got.to_bits() == want.to_bits(), "{lane:?}");
    }
    assert_eq!(want, 2.0 * (0.5 + 350.0));
}

#[test]
fn merge_identical_and_disjoint_windows() {
    // All-match (every rotation-0 lane fires) and no-match interleaves,
    // long enough to drive the 4-wide window loop plus tails.
    let d: Vec<u32> = (0..23).map(|i| i * 2).collect();
    let w: Vec<f64> = (0..23).map(|i| 0.1 + i as f64 * 0.03).collect();
    let want_self = reference::dot_merge(&d, &w, &d, &w);
    let odd: Vec<u32> = (0..23).map(|i| i * 2 + 1).collect();
    for (lane, (same, none)) in
        on_each_lane(|| (dot_merge(&d, &w, &d, &w), dot_merge(&d, &w, &odd, &w)))
    {
        assert_close(same, want_self, &format!("self merge on {lane:?}"));
        assert_eq!(none, 0.0, "disjoint merge on {lane:?}");
    }
}

#[test]
fn merge_cross_rotation_matches() {
    // Offsets that only rotations 1–3 catch: a's window lanes match b's
    // at +1/+2/+3 positions.
    let ad = [1u32, 5, 9, 13, 17, 21, 25, 29];
    let bd = [0u32, 1, 5, 9, 13, 17, 21, 30];
    let aw: Vec<f64> = (0..8).map(|i| 1.0 + i as f64).collect();
    let bw: Vec<f64> = (0..8).map(|i| 2.0 + i as f64 * 0.5).collect();
    let want = reference::dot_merge(&ad, &aw, &bd, &bw);
    for (lane, got) in on_each_lane(|| dot_merge(&ad, &aw, &bd, &bw)) {
        assert_close(got, want, &format!("rotation merge on {lane:?}"));
    }
}

#[test]
fn neg_infinity_rs2_vetoes_admission_on_every_lane() {
    // -∞ · 0 = NaN must read as "not admitted" under both the scalar
    // `>=` and the ordered SIMD predicate: a one-bin table of factor 0
    // gives every posting df = 0.
    let postings: Vec<(u64, f64, f64, f64)> = (0..9).map(|i| (i, 0.5, 0.5, i as f64)).collect();
    let raw = pack(&postings);
    let factors = [0.0f64];
    let p = L2BatchParams {
        xj: 0.3,
        now: 10.0,
        xnorm_before: 0.5,
        rs2: f64::NEG_INFINITY,
        theta_slack: 0.4,
        inv_step: 1.0,
    };
    for (lane, admit) in on_each_lane(|| {
        let mut ids = vec![0u64; 9];
        let mut deltas = vec![0.0f64; 9];
        let mut prune = vec![0.0f64; 9];
        let mut admit = vec![1u8; 9];
        l2_candidate_batch(
            &raw,
            &p,
            &factors,
            &mut ids,
            &mut deltas,
            &mut prune,
            &mut admit,
        );
        admit
    }) {
        assert_eq!(admit, vec![0u8; 9], "{lane:?}");
    }
}

#[test]
fn posting_products_lanes_are_bit_exact() {
    let postings: Vec<(u64, f64, f64, f64)> = (0..13)
        .map(|i| (u64::MAX - i, 0.01 * i as f64 - 0.05, 0.2, i as f64))
        .collect();
    let raw = pack(&postings);
    let runs = on_each_lane(|| {
        let mut ids = vec![0u64; 13];
        let mut deltas = vec![0.0f64; 13];
        posting_products(&raw, -0.37, &mut ids, &mut deltas);
        (ids, deltas)
    });
    let (_, base) = &runs[0];
    for (lane, out) in &runs[1..] {
        assert_eq!(out.0, base.0, "ids differ on {lane:?}");
        for (g, w) in out.1.iter().zip(&base.1) {
            assert!(g.to_bits() == w.to_bits(), "delta differs on {lane:?}");
        }
    }
}

#[test]
fn select_ge_treats_nan_as_below() {
    let vals = [0.5, f64::NAN, 0.9, 0.1, f64::NAN, 0.7, 0.8, 0.2, 0.95];
    let mut words = vec![0u64; vals.len() * 3];
    for (i, v) in vals.iter().enumerate() {
        words[i * 3 + 1] = v.to_bits();
    }
    for (lane, got) in on_each_lane(|| {
        let mut idx = vec![0u32; vals.len()];
        let m = select_ge_strided(&words, 3, 1, 0.7, &mut idx);
        idx.truncate(m);
        idx
    }) {
        assert_eq!(got, vec![2, 5, 6, 8], "{lane:?}");
    }
}

#[test]
fn empty_inputs_are_zero_everywhere() {
    for (lane, (m, p, d)) in on_each_lane(|| {
        (
            dot_merge(&[], &[], &[], &[]),
            dot_probe(&[], &[], &[1], &[1.0]),
            dot_dense(&[], &[], &[1.0]),
        )
    }) {
        assert_eq!((m, p, d), (0.0, 0.0, 0.0), "{lane:?}");
    }
}
