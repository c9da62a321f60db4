//! Model-based property tests: each structure is compared against a simple
//! reference implementation under random operation sequences.

use proptest::prelude::*;
use sssj_collections::{Accumulated, DecayedMaxVec, LinkedHashMap, ScoreAccumulator};

#[derive(Clone, Debug)]
enum MapOp {
    Insert(u16, u64),
    Remove(u16),
    PopFront,
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        4 => (any::<u16>(), any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        2 => any::<u16>().prop_map(MapOp::Remove),
        1 => Just(MapOp::PopFront),
    ]
}

/// Reference model: association list preserving insertion order.
#[derive(Default)]
struct ModelMap {
    entries: Vec<(u16, u64)>,
}

impl ModelMap {
    fn insert(&mut self, k: u16, v: u64) -> Option<u64> {
        for e in &mut self.entries {
            if e.0 == k {
                return Some(std::mem::replace(&mut e.1, v));
            }
        }
        self.entries.push((k, v));
        None
    }

    fn remove(&mut self, k: u16) -> Option<u64> {
        let pos = self.entries.iter().position(|e| e.0 == k)?;
        Some(self.entries.remove(pos).1)
    }

    fn pop_front(&mut self) -> Option<(u16, u64)> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0))
        }
    }
}

proptest! {
    /// LinkedHashMap behaves like an insertion-ordered association list.
    #[test]
    fn linked_hash_map_matches_model(ops in proptest::collection::vec(map_op(), 0..300)) {
        let mut sys: LinkedHashMap<u16, u64> = LinkedHashMap::new();
        let mut model = ModelMap::default();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(sys.insert(k, v), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(sys.remove(&k), model.remove(k));
                }
                MapOp::PopFront => {
                    prop_assert_eq!(sys.pop_front(), model.pop_front());
                }
            }
            prop_assert_eq!(sys.len(), model.entries.len());
        }
        let got: Vec<(u16, u64)> = sys.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, model.entries);
    }

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
/// with repeats (4), and unsorted (5).
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
        _ => gaps.iter().map(|&g| floor + g * 37 % 300).collect(),
    }
}

/// The per-entry reference for `accumulate_batch_rev`: newest entry
/// first, `accumulate` then `zero` when the new score falls below the
/// entry's threshold.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `accumulate_batch_rev` equals its per-entry reference bit for bit —
    /// admitted count, touched set, touch order and every score — over
    /// batch lengths either side of any chunk-size cut-off, every id
    /// shape, and pre-existing stale, live, zeroed and negative slots.
    #[test]
    fn accumulator_batch_rev_matches_per_entry_model(
        floor in 10u64..1000,
        pre in proptest::collection::vec((0u64..300, acc_delta(), 0u8..4), 0..60),
        len in prop::sample::select(vec![0usize, 1, 7, 8, 9, 63, 64]),
        shape in 0u8..6,
        entries in proptest::collection::vec(
            (0u64..4, acc_delta(), any::<bool>(), acc_prune()), 64..=64),
    ) {
        let mut sys = ScoreAccumulator::new();
        sys.advance_floor(floor);
        // Size the dense array past every in-window shape's reach.
        sys.add(floor + 255, 0.5);
        for (i, &(k, delta, op)) in pre.iter().enumerate() {
            // Halfway, start a new epoch: earlier slots go stale.
            if i == pre.len() / 2 {
                sys.clear();
            }
            let key = floor + k - 8; // a few keys below the floor
            match op {
                0 => { sys.accumulate(key, delta, true); }
                1 => { sys.accumulate(key, delta, false); }
                2 => { sys.add(key, delta); }
                _ => sys.zero(key),
            }
        }
        let gaps: Vec<u64> = entries[..len].iter().map(|e| e.0).collect();
        let ids = batch_ids(shape, floor, &gaps);
        let deltas: Vec<f64> = entries[..len].iter().map(|e| e.1).collect();
        let admit: Vec<u8> = entries[..len].iter().map(|e| e.2 as u8).collect();
        let prune: Vec<f64> = entries[..len].iter().map(|e| e.3).collect();
        let mut model = sys.clone();
        // Twice: the second pass meets the slots the first one touched.
        for pass in 0..2 {
            let got = sys.accumulate_batch_rev(&ids, &deltas, &admit, &prune);
            let want = batch_rev_reference(&mut model, &ids, &deltas, &admit, &prune);
            prop_assert_eq!(got, want, "admitted, pass {}", pass);
            prop_assert_eq!(sys.len(), model.len());
            let have: Vec<(u64, u64)> = sys.iter().map(|(k, v)| (k, v.to_bits())).collect();
            let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (k, v.to_bits())).collect();
            prop_assert_eq!(have, want, "pass {}", pass);
        }
    }
}
