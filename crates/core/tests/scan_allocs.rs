//! Heap allocations per ordered read on a warmed session (DESIGN.md §6i,
//! *Reused walk buffers*): a single-tree `range_scan` allocates only its
//! result, an 8-shard hash-forest `range_scan` a handful of vectors of
//! shard length besides, and `successor`/`predecessor` no more than that.
//! None of these counts may grow with the span or with the tree.
//!
//! A single-test binary on purpose: the counting allocator below is
//! process-global, and only the thread that switches counting on is
//! counted, so nothing else in the binary can disturb the figures.

use citrus::{CitrusForest, CitrusTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when they can no longer be read.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (including reallocations) `op` makes on this thread.
fn allocations<T>(op: impl FnOnce() -> T) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = op();
    COUNTING.with(|c| c.set(false));
    drop(out);
    ALLOCATIONS.with(Cell::get)
}

const SPANS: [u64; 2] = [8, 512];
const CALLS: u64 = 50;

/// The most allocations any of `CALLS` calls of `op` made, over probe
/// keys spread across `[0, limit)`.
fn worst(limit: u64, mut op: impl FnMut(u64) -> u64) -> u64 {
    (0..CALLS).map(|i| op(i * limit / CALLS)).max().unwrap_or(0)
}

#[test]
fn warmed_ordered_reads_allocate_only_their_results() {
    let mut tree_counts = Vec::new();
    let mut forest_counts = Vec::new();
    for keys in [4_096u64, 32_768] {
        // Keys are the even numbers below 2 * keys, inserted in a
        // scattered order so the trees are not degenerate.
        let key = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % keys) * 2;

        let tree: CitrusTree<u64, u64> = CitrusTree::new();
        let mut t = tree.session();
        for i in 0..keys {
            t.insert(key(i), i);
        }
        let forest: CitrusForest<u64, u64> = CitrusForest::with_shards(8);
        let mut f = forest.session();
        for i in 0..keys {
            f.insert(key(i), i);
        }

        // Warm-up on the largest span: the walk buffers reach their
        // working size, and every shard session and chaos site exists.
        let widest = *SPANS.last().expect("spans");
        for i in 0..CALLS {
            let lo = i * 2 * keys / CALLS;
            assert_eq!(
                t.range_scan(&lo, &(lo + widest)).len(),
                f.range_scan(&lo, &(lo + widest)).len()
            );
            t.successor(&lo);
            t.predecessor(&lo);
            f.successor(&lo);
            f.predecessor(&lo);
        }

        let mut tree_row = Vec::new();
        let mut forest_row = Vec::new();
        for span in SPANS {
            let range = worst(2 * keys, |lo| {
                allocations(|| t.range_scan(&lo, &(lo + span)))
            });
            assert_eq!(
                range, 1,
                "tree range_scan (span {span}, {keys} keys) allocates only its result"
            );
            tree_row.push(range);
            let range = worst(2 * keys, |lo| {
                allocations(|| f.range_scan(&lo, &(lo + span)))
            });
            assert!(
                range <= 5,
                "forest range_scan (span {span}, {keys} keys): {range} allocations"
            );
            forest_row.push(range);
        }
        for (name, count) in [
            (
                "tree successor",
                worst(2 * keys, |k| allocations(|| t.successor(&k))),
            ),
            (
                "tree predecessor",
                worst(2 * keys, |k| allocations(|| t.predecessor(&k))),
            ),
            (
                "forest successor",
                worst(2 * keys, |k| allocations(|| f.successor(&k))),
            ),
            (
                "forest predecessor",
                worst(2 * keys, |k| allocations(|| f.predecessor(&k))),
            ),
        ] {
            assert!(count <= 4, "{name} ({keys} keys): {count} allocations");
            if name.starts_with("tree") {
                // A `(u64, u64)` candidate is returned without allocating.
                assert_eq!(count, 0, "{name} ({keys} keys): {count} allocations");
            }
        }
        eprintln!("{keys} keys: tree range_scan {tree_row:?}, forest range_scan {forest_row:?} (spans {SPANS:?})");
        tree_counts.push(tree_row);
        forest_counts.push(forest_row);
    }
    // Independent of span (within a row) and of tree size (across rows).
    for counts in [&tree_counts, &forest_counts] {
        let first = counts[0][0];
        assert!(
            counts.iter().flatten().all(|&n| n == first),
            "allocation counts vary with span or size: {counts:?}"
        );
    }
}
