//! Steady-state allocation audit: after warm-up, the STR-L2 loop must
//! process records with **zero** heap allocations — under the
//! exponential and under a generic decay model alike — and so must
//! STR-INV, STR-AP and STR-L2AP, which run the same list pass with other
//! bounds. The arrival-ordered row store (compacted in place), the epoch
//! accumulator, the flat packed posting blocks, the window-max deques and
//! the owned scratch buffers reach their size and stay there.
//!
//! The binary installs a counting wrapper around the system allocator;
//! this file intentionally contains a single `#[test]` so no concurrent
//! test pollutes the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sssj_core::{DecaySpec, SssjConfig, StreamJoin, Streaming};
use sssj_index::IndexKind;
use sssj_types::{vector::unit_vector, DecayModel, StreamRecord, Timestamp};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A steady-rate stream with fixed-shape vectors over a small vocabulary:
/// occupancy of every structure plateaus, which is exactly the regime the
/// zero-allocation claim covers.
fn steady_stream(n: u64) -> Vec<StreamRecord> {
    (0..n)
        .map(|i| {
            let base = (i * 7) % 29;
            let entries = [
                (base as u32, 0.7),
                ((base as u32 + 3) % 29, 0.5),
                ((base as u32 + 11) % 29, 0.4),
                ((base as u32 + 17) % 29, 0.3),
            ];
            StreamRecord::new(i, Timestamp::new(i as f64 * 0.25), unit_vector(&entries))
        })
        .collect()
}

/// Warms `join` up on the first 5 000 records, then asserts that the
/// last 1 000 allocate nothing.
fn assert_steady_state_allocates_nothing(mut join: Streaming, records: &[StreamRecord]) {
    let mut out = Vec::with_capacity(1 << 16);

    // Warm-up: grow the row store, posting blocks, accumulator and
    // scratch to their plateau, slide past several horizons.
    let (warmup, measured) = records.split_at(5_000);
    for r in warmup {
        join.process(r, &mut out);
        out.clear();
    }

    let before = allocations();
    let mut pairs = 0u64;
    for r in measured {
        join.process(r, &mut out);
        pairs += out.len() as u64;
        out.clear();
    }
    let after = allocations();

    // The loop must have exercised the full path: candidates generated,
    // pairs emitted, postings pruned.
    let name = join.name();
    assert!(pairs > 0, "{name}: measurement window must produce pairs");
    assert!(
        join.stats().entries_pruned > 0,
        "{name}: time filtering must run"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state {name} must not allocate: {} allocations over {} records",
        after - before,
        measured.len()
    );
}

#[test]
fn str_l2_steady_state_allocates_nothing() {
    let records = steady_stream(6_000);
    // τ = ln(1/0.6)/0.05 ≈ 10.2 → ~41 live vectors at 4 records/unit.
    let exponential = Streaming::new(SssjConfig::new(0.6, 0.05), IndexKind::L2);
    assert_steady_state_allocates_nothing(exponential, &records);
    // STR-INV, STR-AP and STR-L2AP run the same list pass with other
    // bounds; the AP kinds also keep the re-indexing inverted index,
    // whose per-dimension ordinals drop their expired prefix on insert.
    // (A dimension that never recurs keeps its stale ordinals; this
    // stream's vocabulary recurs.)
    for kind in [IndexKind::Inv, IndexKind::Ap, IndexKind::L2ap] {
        let join = Streaming::new(SssjConfig::new(0.6, 0.05), kind);
        assert_steady_state_allocates_nothing(join, &records);
    }
    // τ = 25·(1 − 0.6) = 10, with the window-max bound on.
    let linear = DecaySpec::new(DecayModel::linear(25.0));
    assert_steady_state_allocates_nothing(Streaming::with_decay(0.6, linear), &records);
}
