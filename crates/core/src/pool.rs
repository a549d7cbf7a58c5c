//! The line pool: the allocator behind every one-line tree node.
//!
//! glibc serves a 64-aligned `Box` through `posix_memalign`, which costs
//! a 64-byte node about 245 bytes of heap and spreads a tree of them over
//! four times the pages. A search misses the cache on nearly every level
//! of a large tree, so that footprint is paid on every get. The pool
//! instead carves 1 MiB chunks into 64-byte lines handed out back to
//! back: a tree of N small nodes occupies N lines (DESIGN.md §6l).
//!
//! * Each thread keeps a cache: two free lists of at most [`BATCH`] lines
//!   (`hot` and a full `spare`, the magazine pair of Bonwick's slab
//!   allocator) and a bump range of never-used lines.
//! * Behind the caches sits one process-wide store under a mutex: full
//!   lists spilled by threads that free more than they allocate, and the
//!   leftovers of exited threads. Caches trade with it a whole list or a
//!   whole range at a time, never a single line.
//! * At thread exit the cache goes back to the shared store. During TLS
//!   teardown, when the cache is gone, alloc and free use the shared store
//!   directly.
//!
//! Freed lines are reused but **never returned to the OS**: the pool holds
//! the high-water mark of live plus retired-but-unfreed nodes until the
//! process exits. This is deliberate. Returning memory would need per-chunk
//! occupancy tracking on every free, and the trees this pool serves are
//! long-lived indexes whose size peaks and plateaus.
//!
//! A free line carries its list link in its **last** word. In debug builds
//! the rest of the line is filled with [`POISON`]; that part covers the
//! lock, mark, child and tag words of a node, so a late unlock or
//! child-pointer store on a freed node breaks the pattern (caught when the
//! line is next allocated), a second free of the same line finds the
//! pattern already in its child and tag words (caught at once), and a reader that follows a
//! freed node's child pointer gets a non-canonical address and faults
//! instead of quietly reading stale data.

use std::alloc::{self, Layout};
use std::cell::RefCell;
use std::ptr;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Bytes per line: one cache line.
pub(crate) const LINE: usize = 64;

/// Bytes per chunk requested from the system allocator.
const CHUNK: usize = 1 << 20;

/// Lines per free list traded between a thread cache and the shared store.
const BATCH: usize = 128;

/// Offset of the free-list link inside a free line.
const LINK: usize = LINE - core::mem::size_of::<*mut u8>();

/// Debug-build fill of a free line's bytes `[0, LINK)`.
#[cfg(debug_assertions)]
const POISON: u8 = 0xA5;

/// The bytes of a line that hold a node's two child pointers and two
/// tags, which every node initialises (`node.rs` pins the offsets). The
/// double-free check reads only these: a node's padding bytes are
/// uninitialised and must not be read.
#[cfg(debug_assertions)]
pub(crate) const NODE_WORDS: core::ops::Range<usize> = 8..40;

/// The process-wide store behind the thread caches.
static SHARED: Mutex<Shared> = Mutex::new(Shared {
    lists: Vec::new(),
    ranges: Vec::new(),
});

/// A singly linked list of free lines, threaded through each line's link
/// word.
#[derive(Clone, Copy)]
struct List {
    head: *mut u8,
    len: usize,
}

impl List {
    const EMPTY: Self = Self {
        head: ptr::null_mut(),
        len: 0,
    };

    /// # Safety
    ///
    /// `line` must be a pool line that nothing else references.
    unsafe fn push(&mut self, line: *mut u8) {
        // SAFETY: the line is ours and `LINK` is inside it, word-aligned.
        unsafe { line.add(LINK).cast::<*mut u8>().write(self.head) };
        self.head = line;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<*mut u8> {
        if self.len == 0 {
            return None;
        }
        let line = self.head;
        // SAFETY: every listed line was pushed with its link written.
        self.head = unsafe { line.add(LINK).cast::<*mut u8>().read() };
        self.len -= 1;
        Some(line)
    }
}

/// Lines `[next, end)` of a chunk, never handed out yet.
#[derive(Clone, Copy)]
struct Range {
    next: *mut u8,
    end: *mut u8,
}

impl Range {
    const EMPTY: Self = Self {
        next: ptr::null_mut(),
        end: ptr::null_mut(),
    };

    fn is_empty(&self) -> bool {
        self.next == self.end
    }

    fn take(&mut self) -> Option<*mut u8> {
        if self.is_empty() {
            return None;
        }
        let line = self.next;
        // SAFETY: `next < end`, both inside one chunk.
        self.next = unsafe { line.add(LINE) };
        Some(line)
    }

    /// Gets a fresh chunk from the system allocator.
    fn new_chunk() -> Self {
        let layout = Layout::from_size_align(CHUNK, LINE).expect("chunk layout");
        // SAFETY: the layout has non-zero size.
        let next = unsafe { alloc::alloc(layout) };
        if next.is_null() {
            alloc::handle_alloc_error(layout);
        }
        Self {
            next,
            // SAFETY: one past the end of the allocation.
            end: unsafe { next.add(CHUNK) },
        }
    }
}

struct Shared {
    /// Free lists, each at most [`BATCH`] long.
    lists: Vec<List>,
    /// Unused tails of chunks, left by exited threads.
    ranges: Vec<Range>,
}

// SAFETY: the store owns the free lines it lists; they move between
// threads only under the mutex.
unsafe impl Send for Shared {}

/// Locks the shared store. A panic never leaves it half-updated (every
/// update is a single push or pop), so a poisoned lock is still usable.
fn shared() -> MutexGuard<'static, Shared> {
    SHARED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One thread's cache of lines.
struct Cache {
    hot: List,
    /// Empty, or exactly [`BATCH`] lines.
    spare: List,
    fresh: Range,
    /// Lines this thread took from `fresh` (test diagnostics).
    carved: usize,
}

impl Cache {
    fn alloc(&mut self) -> *mut u8 {
        loop {
            if let Some(line) = self.hot.pop() {
                // SAFETY: a listed line is free and now ours.
                unsafe { check_poison(line) };
                return line;
            }
            if self.spare.len > 0 {
                self.hot = core::mem::replace(&mut self.spare, List::EMPTY);
                continue;
            }
            if let Some(line) = self.fresh.take() {
                self.carved += 1;
                return line;
            }
            let mut shared = shared();
            if let Some(list) = shared.lists.pop() {
                self.hot = list;
            } else if let Some(range) = shared.ranges.pop() {
                self.fresh = range;
            } else {
                drop(shared);
                self.fresh = Range::new_chunk();
            }
        }
    }

    /// # Safety
    ///
    /// As for [`free`].
    unsafe fn free(&mut self, line: *mut u8) {
        if self.hot.len == BATCH {
            if self.spare.len > 0 {
                shared().lists.push(self.spare);
            }
            self.spare = core::mem::replace(&mut self.hot, List::EMPTY);
        }
        // SAFETY: forwarded.
        unsafe { self.hot.push(line) };
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        let mut shared = shared();
        for list in [self.hot, self.spare] {
            if list.len > 0 {
                shared.lists.push(list);
            }
        }
        if !self.fresh.is_empty() {
            shared.ranges.push(self.fresh);
        }
    }
}

thread_local! {
    static CACHE: RefCell<Cache> = const {
        RefCell::new(Cache {
            hot: List::EMPTY,
            spare: List::EMPTY,
            fresh: Range::EMPTY,
            carved: 0,
        })
    };
}

/// Returns an uninitialised, 64-aligned, 64-byte line.
pub(crate) fn alloc() -> *mut u8 {
    CACHE
        .try_with(|cache| cache.try_borrow_mut().ok().map(|mut c| c.alloc()))
        .ok()
        .flatten()
        .unwrap_or_else(alloc_shared)
}

/// Returns `line` to the pool. Its contents are overwritten.
///
/// # Safety
///
/// `line` must come from [`alloc`], must not have been freed since, and
/// nothing may access it afterwards (its object already dropped).
pub(crate) unsafe fn free(line: *mut u8) {
    // SAFETY: the object is dropped, so its node words were initialised;
    // the line is ours per the contract.
    unsafe { poison(line) };
    let cached = CACHE
        .try_with(|cache| match cache.try_borrow_mut() {
            Ok(mut cache) => {
                // SAFETY: forwarded to the caller's contract.
                unsafe { cache.free(line) };
                true
            }
            Err(_) => false,
        })
        .unwrap_or(false);
    if !cached {
        // SAFETY: forwarded; the thread cache did not take the line.
        unsafe { free_shared(line) };
    }
}

/// [`alloc`] without a thread cache (TLS teardown).
fn alloc_shared() -> *mut u8 {
    let mut shared = shared();
    if let Some(list) = shared.lists.last_mut() {
        let line = list.pop().expect("stored lists are non-empty");
        if list.len == 0 {
            shared.lists.pop();
        }
        // SAFETY: a listed line is free and now ours.
        unsafe { check_poison(line) };
        return line;
    }
    if let Some(range) = shared.ranges.last_mut() {
        let line = range.take().expect("stored ranges are non-empty");
        if range.is_empty() {
            shared.ranges.pop();
        }
        return line;
    }
    let mut range = Range::new_chunk();
    let line = range.take().expect("a new chunk has lines");
    shared.ranges.push(range);
    line
}

/// [`free`] without a thread cache (TLS teardown).
///
/// # Safety
///
/// As for [`free`].
unsafe fn free_shared(line: *mut u8) {
    let mut shared = shared();
    match shared.lists.last_mut() {
        // SAFETY: forwarded.
        Some(list) if list.len < BATCH => unsafe { list.push(line) },
        _ => {
            let mut list = List::EMPTY;
            // SAFETY: forwarded.
            unsafe { list.push(line) };
            shared.lists.push(list);
        }
    }
}

/// Fills a line being freed with [`POISON`], panicking if its node words
/// already carry it (a double free). No-op in release builds.
///
/// # Safety
///
/// `line` must be a pool line whose [`NODE_WORDS`] are initialised (a
/// node, or a line freed before) and that nothing else accesses.
#[inline]
unsafe fn poison(line: *mut u8) {
    #[cfg(debug_assertions)]
    {
        // SAFETY: per the contract these bytes are initialised and ours.
        let words =
            unsafe { core::slice::from_raw_parts(line.add(NODE_WORDS.start), NODE_WORDS.len()) };
        assert!(
            !words.iter().all(|&b| b == POISON),
            "pool line {line:p} freed twice"
        );
        // SAFETY: the whole line is ours; `LINK` is inside it.
        unsafe { line.write_bytes(POISON, LINK) };
    }
    #[cfg(not(debug_assertions))]
    let _ = line;
}

/// Asserts that a line taken off a free list still carries [`POISON`]:
/// anything else is a write after free. No-op in release builds.
///
/// # Safety
///
/// `line` must be a free line, poisoned when freed, now owned by the
/// caller.
#[inline]
unsafe fn check_poison(line: *mut u8) {
    #[cfg(debug_assertions)]
    {
        // SAFETY: `free` filled these bytes; any later write after free
        // stored initialised bytes too.
        let body = unsafe { core::slice::from_raw_parts(line, LINK) };
        if let Some(at) = body.iter().position(|&b| b != POISON) {
            panic!("pool line {line:p} written after free (byte {at})");
        }
    }
    #[cfg(not(debug_assertions))]
    let _ = line;
}

/// Lines the calling thread has carved from never-used chunk memory, as
/// opposed to reused free lines.
#[cfg(test)]
pub(crate) fn carved_here() -> usize {
    CACHE.with(|cache| cache.borrow().carved)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocates a line and initialises it, as a node constructor would: a
    /// line still carrying the free pattern would look freed already.
    fn take() -> *mut u8 {
        let line = alloc();
        // SAFETY: a fresh line is ours and `LINE` bytes long.
        unsafe { line.write_bytes(0, LINE) };
        line
    }

    #[test]
    fn lines_are_aligned_and_distinct() {
        let lines: Vec<*mut u8> = (0..3 * BATCH).map(|_| take()).collect();
        let mut sorted = lines.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), lines.len());
        assert!(lines.iter().all(|&l| (l as usize).is_multiple_of(LINE)));
        for line in lines {
            // SAFETY: allocated above, freed once.
            unsafe { free(line) };
        }
    }

    #[test]
    fn freed_lines_come_back() {
        let a = take();
        // SAFETY: allocated above, freed once.
        unsafe { free(a) };
        assert_eq!(take(), a, "the hot list is LIFO");
        // SAFETY: reallocated above, freed once.
        unsafe { free(a) };
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "freed twice")]
    fn double_free_panics() {
        let a = take();
        // SAFETY: deliberately wrong: the second free is the bug under test.
        unsafe {
            free(a);
            free(a);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "written after free")]
    fn write_after_free_panics_at_next_alloc() {
        let a = take();
        // SAFETY: deliberately wrong: the store after free is the bug
        // under test (byte 0 is where a node keeps its lock).
        unsafe {
            free(a);
            a.write(0);
        }
        let _ = alloc();
    }
}
