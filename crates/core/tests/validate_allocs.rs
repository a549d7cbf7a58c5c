//! Heap bytes `CitrusForest::validate_structure` allocates (DESIGN.md
//! §6e, *Per-shard vs. global invariants*): the cross-shard check streams
//! each shard's keys in place, so the validator's extra memory is its
//! walk stacks, O(tree height), not a copy of the keys. Ten times the
//! keys must not move the figure past a fixed small bound.
//!
//! A single-test binary on purpose: the counting allocator below is
//! process-global, and only the thread that switches counting on is
//! counted, so nothing else in the binary can disturb the figures.

use citrus::{even_splitters, CitrusForest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Adds `bytes` to this thread's tally while counting is on.
fn note_allocation(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when they can no longer be read.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation counts as a fresh block of the new size.
        note_allocation(new_size);
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

/// `op`'s result and the heap bytes it allocated on this thread.
fn bytes_allocated<T>(op: impl FnOnce() -> T) -> (T, usize) {
    BYTES.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = op();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.with(Cell::get))
}

const SHARDS: usize = 8;
/// The validator's whole allocation budget at any size. Its walk stacks
/// hold one entry per level of a shard, so the figure moves only with
/// the shards' heights: about 2–12 KiB at both sizes below. A copy of
/// the keys would take 16 bytes per key, over 3 MB at 200k keys.
const BOUND: usize = 64 << 10;

/// Fills `forest` with `keys` keys spread over `[0, 4 · keys)`, inserted
/// in a scattered order so the shards are not degenerate, and returns
/// what `validate_structure` allocates.
fn validator_bytes(forest: CitrusForest<u64, u64>, keys: u64) -> usize {
    {
        let mut s = forest.session();
        for i in 0..keys {
            // Knuth's multiplicative constant is prime, so this permutes
            // `0..keys`.
            let key = (i * 2_654_435_761 % keys) * 4;
            assert!(s.insert(key, i));
        }
    }
    let mut forest = forest;
    let (stats, bytes) = bytes_allocated(|| forest.validate_structure());
    assert_eq!(stats.expect("valid forest").len as u64, keys);
    bytes
}

#[test]
fn cross_shard_validation_allocates_independently_of_the_key_count() {
    for keys in [20_000u64, 200_000] {
        for (router, bytes) in [
            (
                "hash",
                validator_bytes(CitrusForest::with_shards(SHARDS), keys),
            ),
            (
                "range",
                validator_bytes(
                    CitrusForest::with_range_router(even_splitters(SHARDS, 4 * keys)),
                    keys,
                ),
            ),
        ] {
            eprintln!("[validate-allocs] {router} router, {keys} keys: {bytes} bytes");
            assert!(
                bytes <= BOUND,
                "{router}-routed validate_structure over {keys} keys allocated {bytes} bytes \
                 (bound {BOUND}): the cross-shard check must not copy the keys"
            );
        }
    }
}
