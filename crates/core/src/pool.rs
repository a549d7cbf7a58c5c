//! The line pool: the allocator behind every one-line tree node.
//!
//! glibc serves a 64-aligned `Box` through `posix_memalign`, which costs
//! a 64-byte node about 245 bytes of heap and spreads a tree of them over
//! four times the pages. A search misses the cache on nearly every level
//! of a large tree, so that footprint is paid on every get. The pool
//! instead carves 64-byte lines back to back out of 2 MiB-aligned 2 MiB
//! blocks: a tree of N small nodes occupies N lines (DESIGN.md §6l).
//!
//! * A block is carved as two 1 MiB halves (bump ranges). The first goes
//!   to the thread that needed it, the second to the shared store.
//! * Once both halves of a block are fully carved, every page of it is
//!   resident, and the thread that finished it asks Linux to collapse the
//!   block into one 2 MiB page (`MADV_COLLAPSE`). A search through a tree
//!   of millions of nodes then needs one TLB entry per 32768 nodes instead
//!   of one per 64. Collapsing only fully carved blocks costs no memory:
//!   faulting huge pages in at allocation would round every partly carved
//!   block up to 2 MiB. Where the call is unsupported or fails, the block
//!   stays on 4 KiB pages and nothing else changes.
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
//! process exits. This is deliberate. Returning memory would need per-block
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

/// Bytes per block requested from the system allocator, and its
/// alignment: one huge page.
const BLOCK: usize = 2 << 20;

/// Bytes per bump range: half a block.
const HALF: usize = BLOCK / 2;

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
static SHARED: Mutex<Shared> = Mutex::new(Shared::new());

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

/// Lines `[next, end)` of a block half, never handed out yet.
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
        // SAFETY: `next < end`, both inside one block.
        self.next = unsafe { line.add(LINE) };
        Some(line)
    }

    /// The base of the block this range is a half of.
    fn block(&self) -> usize {
        (self.end as usize - 1) & !(BLOCK - 1)
    }

    /// Gets a fresh block from the system allocator and returns its two
    /// halves, lower first.
    fn new_block() -> [Self; 2] {
        let layout = Layout::from_size_align(BLOCK, BLOCK).expect("block layout");
        // SAFETY: the layout has non-zero size.
        let base = unsafe { alloc::alloc(layout) };
        if base.is_null() {
            alloc::handle_alloc_error(layout);
        }
        // SAFETY: both offsets are within, or one past the end of, the
        // allocation.
        let (mid, end) = unsafe { (base.add(HALF), base.add(BLOCK)) };
        [
            Self {
                next: base,
                end: mid,
            },
            Self { next: mid, end },
        ]
    }
}

struct Shared {
    /// Free lists, each at most [`BATCH`] long.
    lists: Vec<List>,
    /// Uncarved block halves: second halves of new blocks, and the
    /// leftovers of exited threads.
    ranges: Vec<Range>,
    /// Bases of the blocks with exactly one half fully carved.
    half_carved: Vec<usize>,
    /// Blocks submitted for collapse (diagnostics).
    collapses: usize,
}

impl Shared {
    const fn new() -> Self {
        Self {
            lists: Vec::new(),
            ranges: Vec::new(),
            half_carved: Vec::new(),
            collapses: 0,
        }
    }

    /// Records that `range` has handed out its last line. Returns its
    /// block's base once the other half is done too: the block is then
    /// fully carved and the caller collapses it, after unlocking.
    fn finish_half(&mut self, range: &Range) -> Option<usize> {
        debug_assert!(range.is_empty());
        let block = range.block();
        match self.half_carved.iter().position(|&b| b == block) {
            Some(at) => {
                self.half_carved.swap_remove(at);
                self.collapses += 1;
                Some(block)
            }
            None => {
                self.half_carved.push(block);
                None
            }
        }
    }
}

// SAFETY: the store owns the free lines it lists; they move between
// threads only under the mutex.
unsafe impl Send for Shared {}

/// Locks the shared store. A panic never leaves it half-updated (every
/// update is a single push or pop), so a poisoned lock is still usable.
fn shared() -> MutexGuard<'static, Shared> {
    lock(&SHARED)
}

fn lock(store: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the next line of `range`. When that empties the range, records
/// the half as carved in `store`, and collapses the block if that
/// finished it.
fn carve(range: &mut Range, store: &Mutex<Shared>) -> Option<*mut u8> {
    let line = range.take()?;
    if range.is_empty() {
        let block = lock(store).finish_half(range);
        if let Some(base) = block {
            collapse(base);
        }
    }
    Some(line)
}

/// Asks the kernel to back the fully carved block at `base` with one
/// 2 MiB page. Returns whether it did. Failure is harmless: the block
/// stays on 4 KiB pages. The kernel refuses with EINVAL before Linux 6.1
/// or with transparent huge pages set to `never`, and with EAGAIN or
/// ENOMEM when it has no huge page to spare.
fn collapse(base: usize) -> bool {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    ))]
    {
        use core::ffi::{c_int, c_void};
        /// The asm-generic value, shared by x86_64 and aarch64.
        const MADV_COLLAPSE: c_int = 25;
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        // SAFETY: `[base, base + BLOCK)` is one live block from
        // `Range::new_block` (the pool never frees one). MADV_COLLAPSE
        // only changes how the range is mapped, never its contents, so
        // lines in use by other threads are unaffected.
        unsafe { madvise(base as *mut c_void, BLOCK, MADV_COLLAPSE) == 0 }
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    )))]
    {
        let _ = base;
        false
    }
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
            if let Some(line) = carve(&mut self.fresh, &SHARED) {
                self.carved += 1;
                return line;
            }
            let mut shared = shared();
            if let Some(list) = shared.lists.pop() {
                self.hot = list;
            } else if let Some(range) = shared.ranges.pop() {
                self.fresh = range;
            } else {
                let [first, second] = Range::new_block();
                shared.ranges.push(second);
                self.fresh = first;
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
            let range = shared.ranges.pop().expect("just taken from");
            let block = shared.finish_half(&range);
            drop(shared);
            if let Some(base) = block {
                collapse(base);
            }
        }
        return line;
    }
    let [mut first, second] = Range::new_block();
    let line = first.take().expect("a new block has lines");
    shared.ranges.push(second);
    shared.ranges.push(first);
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

/// Lines the calling thread has carved from never-used block memory, as
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

    /// Carves every line of `range`, recording it in `store`.
    fn carve_all(range: &mut Range, store: &Mutex<Shared>) {
        while carve(range, store).is_some() {}
    }

    /// Returns a block from [`Range::new_block`] to the system allocator,
    /// so the tests that build blocks outside the pool leak nothing.
    ///
    /// # Safety
    ///
    /// `base` must be such a block's base, not in use and not yet freed.
    unsafe fn release(base: usize) {
        let layout = Layout::from_size_align(BLOCK, BLOCK).expect("block layout");
        // SAFETY: forwarded to the caller's contract.
        unsafe { alloc::dealloc(base as *mut u8, layout) };
    }

    #[test]
    fn a_block_is_aligned_and_split_into_two_halves() {
        let [lo, hi] = Range::new_block();
        let base = lo.next as usize;
        assert!(base.is_multiple_of(BLOCK));
        assert_eq!(lo.end, hi.next);
        assert_eq!(hi.end as usize - base, BLOCK);
        assert_eq!((lo.block(), hi.block()), (base, base));
        // SAFETY: nothing was carved from the block.
        unsafe { release(base) };
    }

    #[test]
    fn a_block_with_one_half_carved_is_not_collapsed() {
        let store = Mutex::new(Shared::new());
        let [mut lo, mut hi] = Range::new_block();
        let base = lo.block();
        carve_all(&mut lo, &store);
        assert_eq!(lock(&store).collapses, 0);
        assert_eq!(lock(&store).half_carved, [base]);
        // All but the last line of the other half changes nothing either.
        for _ in 1..HALF / LINE {
            carve(&mut hi, &store);
        }
        assert_eq!(lock(&store).collapses, 0);
        // SAFETY: the carved lines were never used.
        unsafe { release(base) };
    }

    #[test]
    fn a_fully_carved_block_is_collapsed_once_in_either_order() {
        for lower_first in [true, false] {
            let store = Mutex::new(Shared::new());
            let [mut lo, mut hi] = Range::new_block();
            let base = lo.block();
            let (first, second) = if lower_first {
                (&mut lo, &mut hi)
            } else {
                (&mut hi, &mut lo)
            };
            carve_all(first, &store);
            carve_all(second, &store);
            // Empty ranges carve nothing and record nothing again.
            assert!(carve(&mut lo, &store).is_none() && carve(&mut hi, &store).is_none());
            let store = lock(&store);
            assert_eq!(store.collapses, 1, "lower half first: {lower_first}");
            assert!(store.half_carved.is_empty());
            // SAFETY: the carved lines were never used.
            unsafe { release(base) };
        }
    }

    #[test]
    fn halves_finished_on_two_threads_collapse_their_block_once() {
        const BLOCKS: usize = 8;
        let store = Mutex::new(Shared::new());
        for _ in 0..BLOCKS {
            let [mut lo, mut hi] = Range::new_block();
            let base = lo.block();
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for half in [&mut lo, &mut hi] {
                    let (store, barrier) = (&store, &barrier);
                    // Raw pointers are not `Send`; the range moves as addresses.
                    let (next, end) = (half.next as usize, half.end as usize);
                    scope.spawn(move || {
                        let mut range = Range {
                            next: next as *mut u8,
                            end: end as *mut u8,
                        };
                        barrier.wait();
                        carve_all(&mut range, store);
                    });
                }
            });
            // SAFETY: the carved lines were never used.
            unsafe { release(base) };
        }
        let store = lock(&store);
        assert_eq!(store.collapses, BLOCKS);
        assert!(store.half_carved.is_empty());
    }

    /// Collapsing a block leaves its contents alone, whether or not the
    /// kernel collapses it; when it reports success, the block is one
    /// huge page.
    #[test]
    fn collapse_keeps_contents_and_maps_a_huge_page() {
        let [lo, _] = Range::new_block();
        let base = lo.block();
        let words = BLOCK / core::mem::size_of::<usize>();
        let block = base as *mut usize;
        for i in 0..words {
            // SAFETY: the block is ours and `words` long.
            unsafe { block.add(i).write(i ^ base) };
        }
        let collapsed = collapse(base);
        for i in 0..words {
            // SAFETY: written above.
            assert_eq!(unsafe { block.add(i).read() }, i ^ base, "word {i}");
        }
        #[cfg(target_os = "linux")]
        if collapsed {
            let huge_kb = anon_huge_pages_kb(base).expect("the block is mapped");
            assert!(huge_kb >= 2048, "collapsed, but {huge_kb} kB AnonHugePages");
        }
        #[cfg(not(target_os = "linux"))]
        assert!(!collapsed);
        // SAFETY: the block is no longer used.
        unsafe { release(base) };
    }

    /// The `AnonHugePages` of the `/proc/self/smaps` mapping holding `addr`.
    #[cfg(target_os = "linux")]
    fn anon_huge_pages_kb(addr: usize) -> Option<usize> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            let head = line.split_whitespace().next().unwrap_or_default();
            if let Some((start, end)) = head.split_once('-') {
                if let (Ok(start), Ok(end)) = (
                    usize::from_str_radix(start, 16),
                    usize::from_str_radix(end, 16),
                ) {
                    inside = (start..end).contains(&addr);
                    continue;
                }
            }
            if inside {
                if let Some(kb) = line.strip_prefix("AnonHugePages:") {
                    return kb.trim().trim_end_matches("kB").trim().parse().ok();
                }
            }
        }
        None
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
