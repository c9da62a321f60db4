//! Model-based property tests: each structure is compared against a simple
//! reference implementation under random operation sequences.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use sssj_collections::{
    Accumulated, ArrivalStore, DecayedMaxVec, PackedPosting, ScoreAccumulator, SurvivorFilter,
    Survivors,
};
use sssj_kernels::{active_lane, force_lane, l2_candidate_batch, L2BatchParams, Lane};

proptest! {
    /// DecayedMaxVec equals the brute-force decayed maximum at any later
    /// query time.
    #[test]
    fn decayed_max_matches_bruteforce(
        lambda in 0.0f64..2.0,
        events in proptest::collection::vec((0u32..8, 0.0f64..1.0), 1..50),
        extra in 0.0f64..10.0,
    ) {
        let mut m = DecayedMaxVec::new(lambda);
        // Assign increasing times 0, 1, 2, ... to events.
        for (i, &(dim, v)) in events.iter().enumerate() {
            m.update(dim, i as f64, v);
        }
        let t_query = events.len() as f64 + extra;
        for dim in 0u32..8 {
            let brute = events
                .iter()
                .enumerate()
                .filter(|(_, &(d, _))| d == dim)
                .map(|(i, &(_, v))| v * (-lambda * (t_query - i as f64)).exp())
                .fold(0.0f64, f64::max);
            prop_assert!((m.get(dim, t_query) - brute).abs() < 1e-10);
        }
    }
}

#[derive(Clone, Debug)]
enum WmOp {
    /// Advance time by the gap and record (dim, value).
    Update(u8, f64, f64),
    /// Query a dimension at the current time.
    Query(u8),
}

fn wm_op() -> impl Strategy<Value = WmOp> {
    prop_oneof![
        3 => (any::<u8>(), 0.0f64..2.0, 0.0f64..1.0)
            .prop_map(|(d, gap, v)| WmOp::Update(d % 6, gap, v)),
        2 => any::<u8>().prop_map(|d| WmOp::Query(d % 6)),
    ]
}

proptest! {
    /// WindowedMaxVec matches a naive scan over the retained trace.
    #[test]
    fn windowed_max_matches_naive(
        ops in proptest::collection::vec(wm_op(), 0..300),
        window in 0.5f64..10.0,
    ) {
        let mut sys = sssj_collections::WindowedMaxVec::new(window);
        let mut trace: Vec<(u8, f64, f64)> = Vec::new();
        let mut t = 0.0;
        for op in ops {
            match op {
                WmOp::Update(d, gap, v) => {
                    t += gap;
                    sys.update(d as u32, t, v);
                    trace.push((d, t, v));
                }
                WmOp::Query(d) => {
                    let naive = trace
                        .iter()
                        .filter(|&&(td, ts, _)| td == d && t - ts <= window)
                        .map(|&(_, _, v)| v)
                        .fold(0.0f64, f64::max);
                    prop_assert_eq!(sys.max(d as u32, t), naive);
                }
            }
        }
    }

    /// The windowed max upper-bounds the decayed max for exponential
    /// decay — the soundness fact the generic decay join relies on.
    #[test]
    fn windowed_max_dominates_decayed_max(
        updates in proptest::collection::vec(
            (0u32..4, 0.0f64..1.0, 0.01f64..1.0), 1..100),
        lambda in 0.01f64..1.0,
    ) {
        let window = 50.0;
        let mut wm = sssj_collections::WindowedMaxVec::new(window);
        let mut dm = DecayedMaxVec::new(lambda);
        let mut t = 0.0;
        for (d, gap, v) in updates {
            t += gap;
            wm.update(d, t, v);
            dm.update(d, t, v);
            // Everything is within the window here, so the undecayed max
            // must dominate the decayed one.
            for probe in 0..4 {
                prop_assert!(wm.max(probe, t) >= dm.get(probe, t) - 1e-12);
            }
        }
    }
}

/// Offsets from the floor at or past this go to the accumulator's spill
/// table (its private `DENSE_SPAN_LIMIT`).
const SPILL_OFFSET: u64 = 1 << 22;

/// Score deltas: dyadic values whose sums hit exact zeros and negatives,
/// signed zeros, and arbitrary values.
fn acc_delta() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => prop::sample::select(vec![0.25, 0.5, 1.0, -0.25, -0.5, -1.0]),
        1 => prop::sample::select(vec![0.0, -0.0]),
        2 => -1.0f64..1.0,
    ]
}

/// Per-entry prune thresholds, NaN and infinities included.
fn acc_prune() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => -0.5f64..1.5,
        1 => prop::sample::select(vec![0.0, 0.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
    ]
}

/// Batch ids relative to `floor`, by shape: strictly rising inside the
/// dense window (0), starting below the floor (1), running past the
/// dense array (growth, 2), ending past the dense span limit (3), rising
/// with repeats (4), unsorted (5), and falling — the order a reorder
/// buffer may release records in (6).
fn batch_ids(shape: u8, floor: u64, gaps: &[u64]) -> Vec<u64> {
    let first = gaps.first().map_or(0, |&g| g);
    let rising = |start: u64, min_gap: u64| {
        let mut id = start;
        gaps.iter()
            .map(|&g| {
                let here = id;
                id += g.max(min_gap);
                here
            })
            .collect::<Vec<u64>>()
    };
    match shape {
        0 => rising(floor + first, 1),
        1 => rising(floor - 5, 1),
        2 => rising(floor + 250, 1),
        3 => {
            let mut ids = rising(floor + first, 1);
            if let Some(last) = ids.last_mut() {
                *last = floor + SPILL_OFFSET + first;
            }
            ids
        }
        4 => rising(floor + first, 0),
        5 => gaps.iter().map(|&g| floor + g * 37 % 300).collect(),
        _ => {
            let mut ids = rising(floor + first, 1);
            ids.reverse();
            ids
        }
    }
}

/// An accumulator with its floor at `floor`, its dense array sized past
/// every in-window id shape's reach, and the slots the `pre` script
/// leaves: `(key − floor + 8, delta, op)` with op 0/1 = `accumulate`
/// admitting or not, 2 = `add`, 3 = `zero`. Halfway through, a new epoch
/// starts, so the earlier slots go stale.
fn seeded_accumulator(floor: u64, pre: &[(u64, f64, u8)]) -> ScoreAccumulator {
    let mut acc = ScoreAccumulator::new();
    acc.advance_floor(floor);
    acc.add(floor + 255, 0.5);
    for (i, &(k, delta, op)) in pre.iter().enumerate() {
        if i == pre.len() / 2 {
            acc.clear();
        }
        let key = floor + k - 8; // a few keys below the floor
        match op {
            0 => {
                acc.accumulate(key, delta, true);
            }
            1 => {
                acc.accumulate(key, delta, false);
            }
            2 => {
                acc.add(key, delta);
            }
            _ => acc.zero(key),
        }
    }
    acc
}

/// The per-entry rule of the list pass over kernel-prepared arrays:
/// newest entry first, `accumulate` then `zero` when the new score falls
/// below the entry's threshold.
fn batch_rev_reference(
    acc: &mut ScoreAccumulator,
    ids: &[u64],
    deltas: &[f64],
    admit: &[u8],
    prune: &[f64],
) -> u32 {
    let mut admitted = 0;
    for i in (0..ids.len()).rev() {
        let new = match acc.accumulate(ids[i], deltas[i], admit[i] != 0) {
            Accumulated::Updated(new) => new,
            Accumulated::Admitted(new) => {
                admitted += 1;
                new
            }
            Accumulated::Skipped => continue,
        };
        if new < prune[i] {
            acc.zero(ids[i]);
        }
    }
    admitted
}

/// Serialises the tests that force the process-global kernel lane.
static LANE: Mutex<()> = Mutex::new(());

/// Holds [`LANE`] and restores automatic lane selection when dropped,
/// also when the test fails.
struct LaneGuard {
    _lock: MutexGuard<'static, ()>,
}

impl LaneGuard {
    fn lock() -> Self {
        // A failed sibling poisons the lock; it guards no data.
        LaneGuard {
            _lock: LANE.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        force_lane(None);
    }
}

/// Prints each kernel lane a lane-forcing model test runs on, once per
/// test and lane, so a run on a host without AVX-512 says what it
/// covered.
fn report_lane(test: &'static str, lane: Lane) {
    static SEEN: Mutex<Vec<(&str, Lane)>> = Mutex::new(Vec::new());
    let mut seen = SEEN.lock().unwrap_or_else(|e| e.into_inner());
    if !seen.contains(&(test, lane)) {
        seen.push((test, lane));
        eprintln!("{test}: ran on {}", lane.name());
    }
}

/// Gaps `now − t`: negative, inside the table, and past its last bin.
fn l2_gap() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => -5.0f64..0.0,
        3 => 0.0f64..20.0,
        1 => 20.0f64..100.0,
    ]
}

/// The list pass's reference: the batch kernel over newest-first chunks
/// of 64, each replayed entry by entry by [`batch_rev_reference`].
fn l2_batch_then_replay(
    acc: &mut ScoreAccumulator,
    postings: &[PackedPosting],
    p: &L2BatchParams,
    factors: &[f64],
) -> u32 {
    let (mut ids, mut deltas, mut prune, mut admit) = ([0u64; 64], [0.0; 64], [0.0; 64], [0u8; 64]);
    let mut admitted = 0;
    for chunk in postings.rchunks(64) {
        let n = chunk.len();
        l2_candidate_batch(
            PackedPosting::as_words(chunk),
            p,
            factors,
            &mut ids[..n],
            &mut deltas[..n],
            &mut prune[..n],
            &mut admit[..n],
        );
        admitted += batch_rev_reference(acc, &ids[..n], &deltas[..n], &admit[..n], &prune[..n]);
    }
    admitted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `accumulate_l2_list_rev` equals the batch kernel + per-entry
    /// replay — admitted count, touched set, touch order and every
    /// score bit — on the scalar, AVX2 and AVX-512 lanes the host has,
    /// over list lengths either side of the groups of four and eight
    /// (full groups, a masked oldest group) and the chunk of 64, every
    /// id shape (the vector groups meet growth, spill, repeats inside a
    /// group and falling ids, so a masked group can fall back to the
    /// per-entry rule too), gaps before the first and past the last
    /// table bin, one-bin tables, and pre-existing stale, live, zeroed
    /// and negative slots, and the AP index's sentinels (`‖x′‖ = ∞`,
    /// `rs2 = ∞`). An `rs2` of `−∞` (the per-list veto) must admit
    /// nothing on any lane against a finite threshold, `−∞·0 = NaN` from
    /// a zero factor included.
    #[test]
    fn accumulator_l2_list_rev_matches_batch_then_replay(
        floor in 10u64..1000,
        pre in proptest::collection::vec((0u64..300, acc_delta(), 0u8..4), 0..60),
        len in prop::sample::select(vec![0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 63, 64, 65, 130]),
        shape in 0u8..7,
        entries in proptest::collection::vec(
            (0u64..4, acc_delta(), 0.0f64..1.0, l2_gap()), 130..=130),
        factors in proptest::collection::vec(prop_oneof![5 => 0.0f64..1.0, 1 => Just(0.0)], 1..12),
        inv_step in 0.05f64..2.0,
        xj in acc_delta(),
        xnorm_before in prop_oneof![4 => 0.0f64..1.0, 1 => Just(f64::INFINITY)],
        rs2 in prop_oneof![
            4 => 0.0f64..1.5,
            1 => Just(f64::NEG_INFINITY),
            1 => Just(f64::INFINITY),
        ],
        theta_slack in acc_prune(),
    ) {
        let _lane = LaneGuard::lock();
        let start = seeded_accumulator(floor, &pre);
        let now = 100.0;
        let gaps: Vec<u64> = entries[..len].iter().map(|e| e.0).collect();
        let postings: Vec<PackedPosting> = batch_ids(shape, floor, &gaps)
            .into_iter()
            .zip(&entries[..len])
            .map(|(id, &(_, weight, prefix_norm, gap))| PackedPosting {
                id,
                weight,
                prefix_norm,
                t: now - gap,
            })
            .collect();
        let p = L2BatchParams { xj, now, xnorm_before, rs2, theta_slack, inv_step };
        force_lane(Some(Lane::Scalar));
        let mut model = start.clone();
        let want: Vec<u32> = (0..2)
            .map(|_| l2_batch_then_replay(&mut model, &postings, &p, &factors))
            .collect();
        let want_state: Vec<(u64, u64)> = model.iter().map(|(k, v)| (k, v.to_bits())).collect();
        for lane in [Lane::Scalar, Lane::Avx2, Lane::Avx512] {
            force_lane(Some(lane));
            if active_lane() != lane {
                // Above the hardware maximum: the forced lane was clamped.
                continue;
            }
            report_lane("accumulator_l2_list_rev_matches_batch_then_replay", lane);
            let mut sys = start.clone();
            // Twice: the second pass meets the slots the first one touched.
            let got: Vec<u32> = (0..2)
                .map(|_| sys.accumulate_l2_list_rev(&postings, &p, &factors))
                .collect();
            prop_assert_eq!(&got, &want, "admitted on {:?}", lane);
            if rs2 == f64::NEG_INFINITY && theta_slack.is_finite() {
                prop_assert_eq!(&got, &vec![0, 0], "vetoed admissions on {:?}", lane);
            }
            prop_assert_eq!(sys.len(), model.len(), "{:?}", lane);
            let have: Vec<(u64, u64)> = sys.iter().map(|(k, v)| (k, v.to_bits())).collect();
            prop_assert_eq!(&have, &want_state, "{:?}", lane);
        }
    }
}

/// The list pass with the INV index's parameters (`θₛ = −∞`, `rs2 = 1`,
/// `‖x′‖ = 0`: bounds off) equals `accumulate(.., true)` applied newest
/// first on every lane the host has — admitted count, touch order and
/// every score bit — over lists shorter than a group of four, one group
/// of eight and a masked oldest group, with rising, repeated and falling
/// ids, negative and zero deltas, and zero decay factors.
#[test]
fn posting_products_lanes_are_bit_exact() {
    let _lane = LaneGuard::lock();
    let now = 12.0;
    let factors = [1.0, 0.75, 0.0];
    let inv = L2BatchParams {
        xj: -0.37,
        now,
        xnorm_before: 0.0,
        rs2: 1.0,
        theta_slack: f64::NEG_INFINITY,
        inv_step: 0.25,
    };
    let shapes: [fn(u64) -> u64; 3] = [|i| 100 + 2 * i, |i| 100 + i / 2, |i| 130 - 2 * i];
    for len in [1u64, 2, 3, 8, 13] {
        for (shape, id) in shapes.iter().enumerate() {
            let postings: Vec<PackedPosting> = (0..len)
                .map(|i| PackedPosting {
                    id: id(i),
                    weight: 0.01 * i as f64 - 0.05,
                    prefix_norm: 0.2,
                    t: i as f64,
                })
                .collect();
            let mut model = ScoreAccumulator::new();
            model.advance_floor(90);
            let mut want_admitted = 0;
            for q in postings.iter().rev() {
                let step = model.accumulate(q.id, inv.xj * q.weight, true);
                want_admitted += matches!(step, Accumulated::Admitted(_)) as u32;
            }
            let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (k, v.to_bits())).collect();
            for lane in [Lane::Scalar, Lane::Sse41, Lane::Avx2, Lane::Avx512] {
                force_lane(Some(lane));
                if active_lane() != lane {
                    // Above the hardware maximum: the forced lane was clamped.
                    continue;
                }
                report_lane("posting_products_lanes_are_bit_exact", lane);
                let mut sys = ScoreAccumulator::new();
                sys.advance_floor(90);
                let admitted = sys.accumulate_l2_list_rev(&postings, &inv, &factors);
                let have: Vec<(u64, u64)> = sys.iter().map(|(k, v)| (k, v.to_bits())).collect();
                let case = format!("{lane:?}, {len} postings, id shape {shape}");
                assert_eq!(admitted, want_admitted, "admitted on {case}");
                assert_eq!(have, want, "scores on {case}");
            }
        }
    }
}

/// The list pass with the AP index's parameters on every lane the host
/// has: `‖x′‖ = ∞` (no ℓ2 prune), a finite `θₛ`, and `rs2 = ∞` once the
/// `rs1` bound admits or `−∞` to veto. It must equal `accumulate(..,
/// admit)` applied newest first and never `zero`: the threshold `θₛ −
/// ∞·pn·df` is `−∞`, or `NaN` where `pn·df = 0`, and no lane's ordered
/// `<` holds against either, while admission `∞·df ≥ θₛ` holds exactly
/// for a positive factor (`∞·0 = NaN` refuses a zero one). Scores stay
/// below `θₛ` and prefix norms and factors hit zero, so any prune or
/// stray admission would show.
#[test]
fn ap_parameters_prune_nothing_on_every_lane() {
    let _lane = LaneGuard::lock();
    let now = 12.0;
    let factors = [1.0, 0.75, 0.0];
    let inv_step = 0.25;
    for rs2 in [f64::INFINITY, f64::NEG_INFINITY] {
        let ap = L2BatchParams {
            xj: 0.37,
            now,
            xnorm_before: f64::INFINITY,
            rs2,
            theta_slack: 0.5,
            inv_step,
        };
        for len in [1u64, 3, 4, 8, 13, 21] {
            let postings: Vec<PackedPosting> = (0..len)
                .map(|i| PackedPosting {
                    id: 100 + i,
                    weight: 0.01 * i as f64 - 0.05,
                    prefix_norm: if i % 3 == 0 { 0.0 } else { 0.2 },
                    t: i as f64,
                })
                .collect();
            let mut model = ScoreAccumulator::new();
            model.advance_floor(90);
            let mut want_admitted = 0;
            // Twice: the second pass meets live, negative and zero slots.
            for _ in 0..2 {
                for q in postings.iter().rev() {
                    let bin = ((now - q.t) * inv_step).clamp(0.0, 2.0) as usize;
                    let admit = rs2 == f64::INFINITY && factors[bin] > 0.0;
                    let step = model.accumulate(q.id, ap.xj * q.weight, admit);
                    want_admitted += matches!(step, Accumulated::Admitted(_)) as u32;
                }
            }
            let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (k, v.to_bits())).collect();
            if rs2 == f64::INFINITY && len > 8 {
                assert!(want.iter().any(|&(_, v)| f64::from_bits(v) != 0.0));
            }
            for lane in [Lane::Scalar, Lane::Sse41, Lane::Avx2, Lane::Avx512] {
                force_lane(Some(lane));
                if active_lane() != lane {
                    // Above the hardware maximum: the forced lane was clamped.
                    continue;
                }
                report_lane("ap_parameters_prune_nothing_on_every_lane", lane);
                let mut sys = ScoreAccumulator::new();
                sys.advance_floor(90);
                let admitted: u32 = (0..2)
                    .map(|_| sys.accumulate_l2_list_rev(&postings, &ap, &factors))
                    .sum();
                let have: Vec<(u64, u64)> = sys.iter().map(|(k, v)| (k, v.to_bits())).collect();
                let case = format!("{lane:?}, {len} postings, rs2 = {rs2}");
                assert_eq!(admitted, want_admitted, "admitted on {case}");
                assert_eq!(have, want, "scores on {case}");
            }
        }
    }
}

#[derive(Clone, Debug)]
enum StoreOp {
    /// Advance time by the gap, then push a row of this id with a
    /// residual of this length.
    Push(f64, u8, usize),
    /// Pop at `last push + ahead` with this horizon.
    Pop(f64, f64),
    /// Truncate the residual of the `pick % len`-th live row.
    Truncate(usize, usize),
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        4 => (0.0f64..2.0, 0u8..8, 0usize..40).prop_map(|(gap, id, len)| StoreOp::Push(gap, id, len)),
        2 => (0.0f64..3.0, prop_oneof![4 => 0.0f64..6.0, 1 => Just(0.0)])
            .prop_map(|(ahead, tau)| StoreOp::Pop(ahead, tau)),
        1 => (0usize..64, 0usize..40).prop_map(|(pick, len)| StoreOp::Truncate(pick, len)),
    ]
}

/// One model row: `(ordinal, id, t, q, dims, weights)`.
type ModelRow = (u64, u64, f64, f64, Vec<u32>, Vec<f64>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ArrivalStore` behaves like a `VecDeque` of rows numbered by
    /// arrival: pushes, horizon pops and residual truncations over
    /// sequences long enough to cross the columns' and the arena's
    /// in-place compaction many times.
    #[test]
    fn arrival_store_matches_vecdeque_model(ops in proptest::collection::vec(store_op(), 0..400)) {
        let mut sys: ArrivalStore<u64> = ArrivalStore::new();
        let mut model: VecDeque<ModelRow> = VecDeque::new();
        let (mut next, mut t) = (0u64, 0.0f64);
        for op in ops {
            match op {
                StoreOp::Push(gap, id, len) => {
                    t += gap;
                    let dims: Vec<u32> = (0..len as u32).map(|k| 3 * k + id as u32).collect();
                    let weights: Vec<f64> = dims.iter().map(|&d| next as f64 + d as f64 / 64.0).collect();
                    let q = next as f64 / 7.0;
                    prop_assert_eq!(sys.push(id as u64, t, q, next * 3, &dims, &weights), next);
                    model.push_back((next, id as u64, t, q, dims, weights));
                    next += 1;
                }
                StoreOp::Pop(ahead, tau) => {
                    let now = t + ahead;
                    let mut popped = 0;
                    while model.front().is_some_and(|r| now - r.2 > tau) {
                        model.pop_front();
                        popped += 1;
                    }
                    prop_assert_eq!(sys.pop_expired(now, tau), popped);
                }
                StoreOp::Truncate(pick, len) => {
                    if !model.is_empty() {
                        let n = model.len();
                        let row = &mut model[pick % n];
                        sys.truncate_residual(row.0, len);
                        row.4.truncate(len);
                        row.5.truncate(len);
                    }
                }
            }
            let front = model.front().map_or(next, |r| r.0);
            prop_assert_eq!((sys.front(), sys.end(), sys.len()), (front, next, model.len()));
            prop_assert!(sys.row(front.wrapping_sub(1)).is_none() && sys.row(next).is_none());
            for (ord, id, rt, q, dims, weights) in &model {
                let row = sys.row(*ord).expect("live row");
                prop_assert_eq!((row.id, row.t, row.q, row.aux), (*id, *rt, *q, ord * 3));
                prop_assert_eq!(row.dims, &dims[..]);
                prop_assert_eq!(row.weights, &weights[..]);
            }
            let qs: Vec<f64> = model.iter().map(|r| r.3).collect();
            let ts: Vec<f64> = model.iter().map(|r| r.2).collect();
            prop_assert_eq!(sys.q_column(), &qs[..]);
            prop_assert_eq!(sys.t_column(), &ts[..]);
        }
    }
}

/// The survivor rule written the obvious way, over [`ScoreAccumulator::iter`]:
/// `(offset, score bits)` of every touched key with a row in the columns
/// and `c > 0 ∧ ¬((c + q)·upper(now − t) < θₛ)` (`c > 0` without pruning).
fn survivors_reference(acc: &ScoreAccumulator, f: &SurvivorFilter) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for (key, c) in acc.iter() {
        let off = key.wrapping_sub(f.first);
        if off >= f.q.len() as u64 || c <= 0.0 {
            continue;
        }
        let row = off as usize;
        if f.prunes {
            let dt = (f.now - f.t[row]).max(0.0);
            let bin = ((dt * f.inv_step) as usize).min(f.factors.len() - 1);
            if (c + f.q[row]) * f.factors[bin] < f.theta_slack {
                continue;
            }
        }
        out.push((off as u32, c.to_bits()));
    }
    out
}

/// Dyadic scores and bounds, so `(c + q)·df` lands exactly on `θₛ` often.
fn dyadic() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `ScoreAccumulator::survivors` returns the same survivors, scores
    /// and order — touch order, spill keys last — as the obvious rule
    /// over `iter`, on the scalar, AVX2 and AVX-512 lanes the host has.
    /// Inputs: 0–17 touched keys in random touch order (so a group of
    /// eight holds several survivors out of key order), scores at, below
    /// and above zero, bounds landing exactly on `θₛ`, rows at a bin
    /// edge, at the horizon's last bin, past it and in the future, keys
    /// past the columns, spill keys below the floor and past the dense
    /// span, and the non-pruning policy.
    #[test]
    fn survivor_filter_matches_reference_on_every_lane(
        floor in 0u64..1000,
        touches in proptest::collection::vec(
            (0u64..24, prop_oneof![4 => dyadic(), 1 => -1.0f64..1.0, 1 => Just(-0.25)], 0u8..6),
            0..=17),
        rows in 0usize..20,
        qs in proptest::collection::vec(dyadic(), 20..=20),
        bins in proptest::collection::vec(0u32..8, 20..=20),
        factors in proptest::collection::vec(prop::sample::select(vec![1.0, 0.5, 0.25, 0.0]), 1..6),
        inv_step in prop::sample::select(vec![0.5, 1.0, 2.0, 4.0]),
        theta_slack in prop::sample::select(vec![0.0, 0.25, 0.375, 0.5, 0.75, 1.0, 1.5]),
        prunes in proptest::bool::ANY,
        spill in 0u8..3,
    ) {
        let _lane = LaneGuard::lock();
        let now = 50.0;
        let mut acc = ScoreAccumulator::new();
        acc.advance_floor(floor);
        for &(k, delta, op) in &touches {
            let key = floor + k;
            match op {
                // Zeroed slots stay touched with a score of zero.
                0 => {
                    acc.add(key, delta);
                    acc.zero(key);
                }
                _ => {
                    acc.add(key, delta);
                }
            }
        }
        if spill >= 1 && floor > 0 {
            acc.add(floor - 1, 1.0);
        }
        if spill >= 2 {
            acc.add(floor + SPILL_OFFSET, 1.0);
        }
        // Row i is `bins[i]` table steps old: 0 = now, a bin edge in
        // between, `factors.len() − 1` = the horizon's last bin, larger
        // = past it; 7 is in the future.
        let ts: Vec<f64> = bins[..rows]
            .iter()
            .map(|&b| if b == 7 { now + 1.5 } else { now - b as f64 / inv_step })
            .collect();
        let f = SurvivorFilter {
            first: floor,
            q: &qs[..rows],
            t: &ts,
            now,
            theta_slack,
            factors: &factors,
            inv_step,
            prunes,
        };
        let want = survivors_reference(&acc, &f);
        let mut out = Survivors::new();
        for lane in [Lane::Scalar, Lane::Avx2, Lane::Avx512] {
            force_lane(Some(lane));
            if active_lane() != lane {
                // Above the hardware maximum: the forced lane was clamped.
                continue;
            }
            report_lane("survivor_filter_matches_reference_on_every_lane", lane);
            acc.survivors(&f, &mut out);
            let got: Vec<(u32, u64)> = out.iter().map(|(o, c)| (o, c.to_bits())).collect();
            prop_assert_eq!(&got, &want, "{:?}", lane);
        }
    }
}
