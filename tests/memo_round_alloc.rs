//! A warm `MemoOracle` round allocates nothing.
//!
//! The memo keeps its round scratch (slot list, miss lists, in-flight
//! table) between rounds, so once a round of the same size has run, a
//! round with hits, in-batch duplicates and fresh misses makes no heap
//! allocation on either query shape. A counting global allocator pins
//! that. It counts only on the thread that switched it on (a `const`
//! thread-local, which itself never allocates), and this file holds one
//! test, so no other test thread can add to the count.

use nco_metric::EuclideanMetric;
use nco_oracle::probabilistic::{ProbQuadOracle, ProbValueOracle};
use nco_oracle::{ComparisonOracle, MemoOracle, QuadrupletOracle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_memo_rounds_allocate_nothing() {
    // Pairs: the warm-up round asks 16 fresh pairs. The measured round,
    // as long, replays 6 of them (hits), asks 5 fresh pairs, repeats 3 of
    // those in the batch and adds 2 uncached degenerates.
    let values: Vec<f64> = (0..32).map(|i| ((i * 13) % 33) as f64).collect();
    let mut memo = MemoOracle::new(ProbValueOracle::new(values, 0.2, 3));
    let warm: Vec<(usize, usize)> = (0..16).map(|i| (i, i + 16)).collect();
    let mut round: Vec<(usize, usize)> = (0..6).map(|i| (i, i + 16)).collect();
    round.extend((0..5).map(|i| (i + 16, i)));
    round.extend((0..3).map(|i| (i + 16, i)));
    round.extend([(7, 7), (9, 9)]);
    assert_eq!(round.len(), warm.len());
    let mut out = Vec::with_capacity(2 * warm.len());
    memo.le_batch(&warm, &mut out);
    let allocations = allocations_in(|| memo.le_batch(&round, &mut out));
    assert_eq!(allocations, 0, "warm pair round allocated");
    assert_eq!(out.len(), 2 * warm.len());
    assert_eq!(memo.hits(), 6 + 3);

    // Quadruplets: the same mix. 16 + 5 cached entries stay under the
    // quadruplet table's first growth threshold (48 of 64 slots).
    let m = EuclideanMetric::from_points(
        &(0..32)
            .map(|i| vec![(i * 7 % 31) as f64, i as f64])
            .collect::<Vec<_>>(),
    );
    let mut memo = MemoOracle::new(ProbQuadOracle::new(m, 0.2, 3));
    let warm: Vec<[usize; 4]> = (0..16).map(|i| [i, i + 16, i, i + 1]).collect();
    let mut round: Vec<[usize; 4]> = (0..6).map(|i| [i + 16, i, i + 1, i]).collect();
    round.extend((0..5).map(|i| [i, i + 16, i, i + 2]));
    round.extend((0..3).map(|i| [i + 16, i, i + 2, i]));
    round.extend([[1, 2, 2, 1], [3, 4, 3, 4]]);
    assert_eq!(round.len(), warm.len());
    let mut out = Vec::with_capacity(2 * warm.len());
    memo.le_batch(&warm, &mut out);
    let allocations = allocations_in(|| memo.le_batch(&round, &mut out));
    assert_eq!(allocations, 0, "warm quadruplet round allocated");
    assert_eq!(out.len(), 2 * warm.len());
    assert_eq!(memo.hits(), 6 + 3);
}
