//! Epoch-based memory reclamation (EBR) for the Citrus reproduction.
//!
//! The Citrus paper runs its timed experiments **without** reclaiming
//! memory and names "efficient memory reclamation" as the main direction
//! for future work (§7) — RCU's primary use inside the Linux kernel.
//! This crate supplies that missing piece: a small, self-contained
//! epoch-based reclamation domain in the style of Fraser's EBR (the same
//! family of schemes as the paper's own scalable RCU implementation, which
//! the authors describe as "similar to epoch-based reclamation \[11\]").
//!
//! # How it works
//!
//! * A domain keeps a **global epoch** counter.
//! * Each participating thread *pins* the domain while it may hold
//!   references to shared nodes, recording the global epoch in its own
//!   cache-padded slot.
//! * Removed nodes are *retired*, stamped with the current global epoch.
//! * The global epoch can advance from `e` to `e+1` only when every pinned
//!   thread has observed `e`. Therefore, once the global epoch reaches
//!   `e + 2`, no thread can still hold a reference obtained before a node
//!   retired at epoch `e` was unlinked — freeing it is safe.
//!
//! # Why whole-operation pinning (and not just read-side sections)
//!
//! Citrus updaters deliberately acquire node locks **outside** the RCU
//! read-side critical section (to avoid RCU deadlock), so they carry node
//! pointers around with no read-side protection. Reclamation must therefore
//! wait out *entire operations*, not just read-side critical sections. The
//! Citrus tree pins an [`EbrGuard`] for the full duration of every
//! operation when running in `Epoch` reclamation mode.
//!
//! Nodes are retired only through a registered [`EbrHandle`], by the
//! thread that unlinked them. The tree's two-child delete waits for its
//! grace period inline, so the crate needs no `call_rcu`-style queue or
//! worker thread (DESIGN.md §6g has the one that was removed).
//!
//! # Example
//!
//! ```
//! use citrus_reclaim::EbrDomain;
//!
//! let domain = EbrDomain::new();
//! let handle = domain.register();
//!
//! let node = Box::into_raw(Box::new(42u64));
//! {
//!     let _guard = handle.pin();
//!     // ... unlink `node` from a shared structure ...
//!     // SAFETY: `node` is unlinked; no new references can be created.
//!     unsafe { handle.retire(node) };
//! }
//! // The node is freed automatically once a grace period has elapsed
//! // (or at domain drop, whichever comes first).
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;

pub use metrics::ReclaimMetrics;

use citrus_chaos as chaos;
use citrus_sync::{CachePadded, Registry, SlotHandle, SpinMutex};
use core::cell::{Cell, RefCell};
use core::fmt;
use core::sync::atomic::{fence, AtomicU64, Ordering};

/// Pinned bit of a thread slot (bit 0); bits 1.. hold the observed epoch.
const PINNED: u64 = 1;

/// Number of epochs that must pass before a retired object is freed.
const GRACE_EPOCHS: u64 = 2;

/// Local retirements between automatic collection attempts.
const COLLECT_EVERY: usize = 64;

/// A type-erased retired allocation awaiting a grace period.
struct Retired {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
    epoch: u64,
}

// SAFETY: retired pointers are owned (unlinked) allocations in transit to
// the thread that frees them.
unsafe impl Send for Retired {}

/// The deleter the generic retire entry points pair with a `Box<T>`.
///
/// # Safety
///
/// `p` must come from `Box::into_raw` of a `T`, not yet freed.
unsafe fn drop_box<T>(p: *mut u8) {
    // SAFETY: forwarded to the caller's contract.
    drop(unsafe { Box::from_raw(p.cast::<T>()) });
}

impl Retired {
    /// # Safety
    ///
    /// A grace period must have elapsed since retirement (or all threads
    /// must have quiesced).
    unsafe fn free(self) {
        // SAFETY: forwarded to the caller's contract.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

struct EpochSlot {
    /// `(observed_epoch << 1) | pinned`.
    state: CachePadded<AtomicU64>,
}

impl EpochSlot {
    fn new() -> Self {
        Self {
            state: CachePadded::new(AtomicU64::new(0)),
        }
    }
}

/// An epoch-based reclamation domain.
///
/// Threads [`register`](Self::register) to obtain an [`EbrHandle`]; nodes
/// retired through a handle are freed after a grace period. All retired
/// objects are freed at the latest when the domain is dropped.
pub struct EbrDomain {
    global_epoch: AtomicU64,
    registry: Registry<EpochSlot>,
    /// Bags abandoned by deregistered threads, drained by later collectors
    /// and at domain drop.
    orphans: SpinMutex<Vec<Retired>>,
    /// Diagnostics: total objects freed after a grace period.
    freed: AtomicU64,
    metrics: ReclaimMetrics,
}

impl EbrDomain {
    /// Creates a new domain at epoch 1 with no registered threads.
    pub fn new() -> Self {
        Self {
            // Start at 1 so "epoch 0" can never alias a fresh slot value.
            global_epoch: AtomicU64::new(1),
            registry: Registry::new(),
            orphans: SpinMutex::new(Vec::new()),
            freed: AtomicU64::new(0),
            metrics: ReclaimMetrics::new(),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> EbrHandle<'_> {
        // A released slot is always unpinned; no reset required.
        let slot = self.registry.register(EpochSlot::new, |_| {});
        EbrHandle {
            domain: self,
            slot,
            pin_depth: Cell::new(0),
            garbage: RefCell::new(Vec::new()),
            since_collect: Cell::new(0),
            stripe: self.metrics.assign_stripe(),
        }
    }

    /// This domain's metric instruments (no-ops unless the crate is built
    /// with the `stats` feature).
    pub fn metrics(&self) -> &ReclaimMetrics {
        &self.metrics
    }

    /// The current global epoch (diagnostics).
    pub fn epoch(&self) -> u64 {
        self.global_epoch.load(Ordering::Relaxed)
    }

    /// Total number of objects freed after a grace period (diagnostics).
    pub fn freed_count(&self) -> u64 {
        self.freed.load(Ordering::Relaxed)
    }

    /// Attempts to advance the global epoch by one.
    ///
    /// Succeeds only if every currently pinned thread has observed the
    /// current epoch; returns the (possibly unchanged) global epoch.
    fn try_advance(&self) -> u64 {
        let global = self.global_epoch.load(Ordering::SeqCst);
        for slot in self.registry.iter() {
            let s = slot.value().state.load(Ordering::SeqCst);
            if s & PINNED == PINNED && (s >> 1) != global {
                // A straggler is still in the previous epoch.
                return global;
            }
        }
        // Multiple threads may race; all failures are benign.
        match self.global_epoch.compare_exchange(
            global,
            global + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => global + 1,
            Err(now) => now,
        }
    }

    /// Frees every element of `bag` whose grace period has elapsed at
    /// `global`, keeping the rest.
    ///
    /// Frees expired elements, returning how many it freed.
    ///
    /// # Safety
    ///
    /// `bag` elements must have been retired per [`EbrHandle::retire`]'s
    /// contract.
    unsafe fn free_expired(&self, bag: &mut Vec<Retired>, global: u64) -> usize {
        let mut freed = 0;
        let mut i = 0;
        while i < bag.len() {
            if bag[i].epoch + GRACE_EPOCHS <= global {
                let r = bag.swap_remove(i);
                // SAFETY: two epochs have passed since retirement; by the
                // EBR argument no thread still holds a reference.
                unsafe { r.free() };
                freed += 1;
            } else {
                i += 1;
            }
        }
        self.freed.fetch_add(freed as u64, Ordering::Relaxed);
        freed
    }
}

impl Default for EbrDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EbrDomain {
    fn drop(&mut self) {
        // `&mut self`: no handles exist (they borrow the domain), so every
        // remaining retired object is unreachable by any thread.
        let orphans = std::mem::take(&mut *self.orphans.lock());
        for r in orphans {
            // SAFETY: all threads have quiesced.
            unsafe { r.free() };
        }
    }
}

impl fmt::Debug for EbrDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EbrDomain")
            .field("epoch", &self.epoch())
            .field("threads", &self.registry.slot_count())
            .field("freed", &self.freed_count())
            .finish()
    }
}

/// Per-thread participant in an [`EbrDomain`].
///
/// Not `Send`; drop it before the domain. Dropping the handle hands any
/// not-yet-freed retired objects to the domain's orphan list.
pub struct EbrHandle<'d> {
    domain: &'d EbrDomain,
    slot: SlotHandle<'d, EpochSlot>,
    pin_depth: Cell<u32>,
    garbage: RefCell<Vec<Retired>>,
    since_collect: Cell<usize>,
    /// This handle's metric-counter stripe.
    stripe: usize,
}

impl<'d> EbrHandle<'d> {
    /// Pins the domain: until the returned guard drops, the global epoch
    /// can advance at most once, so any reference read from a shared
    /// structure while pinned stays valid.
    ///
    /// Pins nest; only the outermost pin touches shared state.
    pub fn pin(&self) -> EbrGuard<'_, 'd> {
        self.raw_pin();
        EbrGuard { handle: self }
    }

    /// Pins the domain without a guard; pair it with exactly one
    /// [`raw_unpin`](Self::raw_unpin). For a caller that holds pins on
    /// several domains at once and releases them together. Prefer
    /// [`pin`](Self::pin).
    pub fn raw_pin(&self) {
        let depth = self.pin_depth.get();
        self.pin_depth.set(depth + 1);
        if depth == 0 {
            let global = self.domain.global_epoch.load(Ordering::Relaxed);
            self.slot
                .state
                .store((global << 1) | PINNED, Ordering::Relaxed);
            // Order the pin publication before any subsequent loads of
            // shared structure (pairs with collectors' SeqCst scans).
            fence(Ordering::SeqCst);
        }
    }

    /// Releases one [`raw_pin`](Self::raw_pin).
    ///
    /// # Panics
    ///
    /// Debug builds panic if the handle is not pinned.
    pub fn raw_unpin(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0, "raw_unpin without a matching pin");
        self.pin_depth.set(depth - 1);
        if depth == 1 {
            // Order the critical region's accesses before unpinning.
            fence(Ordering::Release);
            self.slot.state.store(0, Ordering::Release);
        }
    }

    /// Returns `true` while the calling thread holds at least one pin.
    pub fn is_pinned(&self) -> bool {
        self.pin_depth.get() > 0
    }

    /// Retires an unlinked allocation; it will be freed after a grace
    /// period (or at domain drop).
    ///
    /// # Safety
    ///
    /// * `ptr` must have been allocated via `Box<T>` and be exclusively
    ///   owned by the caller (already unlinked from every shared structure,
    ///   so no *new* references can be created).
    /// * Threads may still hold *old* references, but only ones acquired
    ///   while pinned.
    pub unsafe fn retire<T>(&self, ptr: *mut T) {
        // SAFETY: forwarded; `drop_box::<T>` frees a `Box<T>`.
        unsafe { self.retire_raw(ptr.cast(), drop_box::<T>) }
    }

    /// [`retire`](Self::retire) for an allocation with its own deleter:
    /// after the grace period the domain calls `drop_fn(ptr)` instead of
    /// freeing a `Box`. For objects that live outside the global
    /// allocator, such as pool-allocated tree nodes.
    ///
    /// # Safety
    ///
    /// * `drop_fn(ptr)` must be sound to call exactly once, from any
    ///   thread, and must release the object.
    /// * `ptr` must be exclusively owned by the caller, as for
    ///   [`retire`](Self::retire): unlinked, with old references held
    ///   only by pinned threads.
    pub unsafe fn retire_raw(&self, ptr: *mut u8, drop_fn: unsafe fn(*mut u8)) {
        let retired = Retired {
            ptr,
            drop_fn,
            epoch: self.domain.global_epoch.load(Ordering::Relaxed),
        };
        let limbo_depth = {
            let mut garbage = self.garbage.borrow_mut();
            garbage.push(retired);
            garbage.len()
        };
        self.domain.metrics.record_retire(self.stripe, limbo_depth);
        // A thread paused here has pushed garbage that nothing will free
        // until its own next collect trigger or domain drop.
        chaos::point!("reclaim/retire/before-collect");
        let n = self.since_collect.get() + 1;
        self.since_collect.set(n);
        if n >= COLLECT_EVERY {
            self.since_collect.set(0);
            self.collect();
        }
    }

    /// Attempts to advance the epoch and free expired garbage now.
    ///
    /// Called automatically every few retirements; exposed for tests and
    /// for flushing at quiescent points.
    pub fn collect(&self) {
        let global = self.domain.try_advance();
        // Between observing the advanced epoch and freeing: other threads
        // may advance further and free their own garbage concurrently.
        chaos::point!("reclaim/collect/between-advance-and-free");
        let mut garbage = self.garbage.borrow_mut();
        // SAFETY: elements were retired under `retire`'s contract.
        let mut freed = unsafe { self.domain.free_expired(&mut garbage, global) };

        // Opportunistically drain expired orphans left by departed threads.
        if let Some(mut orphans) = self.domain.orphans.try_lock() {
            // SAFETY: as above.
            freed += unsafe { self.domain.free_expired(&mut orphans, global) };
        }
        self.domain.metrics.record_collect(freed);
    }

    /// Number of objects retired by this handle and not yet freed.
    pub fn pending(&self) -> usize {
        self.garbage.borrow().len()
    }
}

impl Drop for EbrHandle<'_> {
    fn drop(&mut self) {
        assert!(
            !self.is_pinned(),
            "EBR handle dropped while pinned; epoch advancement would wedge"
        );
        let mut garbage = self.garbage.borrow_mut();
        if !garbage.is_empty() {
            self.domain.orphans.lock().append(&mut garbage);
        }
    }
}

impl fmt::Debug for EbrHandle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EbrHandle")
            .field("pin_depth", &self.pin_depth.get())
            .field("pending", &self.pending())
            .finish()
    }
}

/// RAII pin on an [`EbrDomain`]; see [`EbrHandle::pin`].
pub struct EbrGuard<'h, 'd> {
    handle: &'h EbrHandle<'d>,
}

impl Drop for EbrGuard<'_, '_> {
    fn drop(&mut self) {
        self.handle.raw_unpin();
    }
}

impl fmt::Debug for EbrGuard<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EbrGuard").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// A payload that records its own drop.
    struct Canary<'a>(&'a AtomicU64);

    impl Drop for Canary<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retired_objects_free_after_grace_period() {
        let drops = AtomicU64::new(0);
        let domain = EbrDomain::new();
        let h = domain.register();
        {
            let _g = h.pin();
            let p = Box::into_raw(Box::new(Canary(&drops)));
            unsafe { h.retire(p) };
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        // Each collect can advance the epoch at most once; after two
        // advances the grace period has elapsed.
        h.collect();
        h.collect();
        h.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(domain.freed_count(), 1);
        drop(h);
    }

    #[test]
    fn raw_retirements_run_their_own_deleter() {
        static DELETED: AtomicU64 = AtomicU64::new(0);
        unsafe fn delete(p: *mut u8) {
            // SAFETY: `p` comes from `Box::into_raw` of a `u32` below.
            drop(unsafe { Box::from_raw(p.cast::<u32>()) });
            DELETED.fetch_add(1, Ordering::SeqCst);
        }
        let domain = EbrDomain::new();
        let h = domain.register();
        // SAFETY: a fresh, exclusively owned allocation; `delete` frees it.
        unsafe {
            h.retire_raw(Box::into_raw(Box::new(1u32)).cast(), delete);
        }
        assert_eq!(DELETED.load(Ordering::SeqCst), 0, "no grace period yet");
        for _ in 0..3 {
            h.collect();
        }
        assert_eq!(DELETED.load(Ordering::SeqCst), 1);
        drop(h);
    }

    #[test]
    fn pinned_thread_blocks_epoch_advance() {
        let domain = EbrDomain::new();
        let h1 = domain.register();
        let h2 = domain.register();
        let e0 = domain.epoch();

        let _pin1 = h1.pin();
        // h1 pinned at e0: one advance can still succeed (h1 observed e0),
        // but a second cannot while h1 stays pinned at e0.
        h2.collect();
        let e1 = domain.epoch();
        assert!(e1 <= e0 + 1);
        h2.collect();
        h2.collect();
        assert_eq!(domain.epoch(), e1, "epoch advanced past a pinned straggler");
    }

    #[test]
    fn nested_pins_do_not_unpin_early() {
        let domain = EbrDomain::new();
        let h = domain.register();
        let g1 = h.pin();
        let g2 = h.pin();
        drop(g1);
        assert!(h.is_pinned());
        drop(g2);
        assert!(!h.is_pinned());
    }

    #[test]
    fn domain_drop_frees_all_pending() {
        let drops = AtomicU64::new(0);
        {
            let domain = EbrDomain::new();
            let h = domain.register();
            let g = h.pin();
            for _ in 0..10 {
                let p = Box::into_raw(Box::new(Canary(&drops)));
                unsafe { h.retire(p) };
            }
            drop(g);
            drop(h);
            // Nothing collected; domain drop must free everything.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn orphans_from_departed_threads_are_drained() {
        let drops = AtomicU64::new(0);
        let domain = EbrDomain::new();
        {
            let h = domain.register();
            let p = Box::into_raw(Box::new(Canary(&drops)));
            let _g = h.pin();
            unsafe { h.retire(p) };
        } // handle dropped; garbage orphaned
        let h2 = domain.register();
        h2.collect();
        h2.collect();
        h2.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "orphan was not drained");
        drop(h2);
    }

    #[test]
    #[should_panic(expected = "dropped while pinned")]
    fn dropping_pinned_handle_panics() {
        let domain = EbrDomain::new();
        let h = domain.register();
        let g = h.pin();
        std::mem::forget(g);
        drop(h);
    }

    #[test]
    fn concurrent_retire_stress_never_frees_early() {
        // Readers repeatedly pin and chase a shared pointer; a writer swaps
        // and retires old payloads. Payloads self-check via a magic field
        // cleared on drop — observing a cleared field means use-after-free.
        use core::sync::atomic::AtomicPtr;
        const MAGIC: u64 = 0xC17A_05EB;
        const WRITES: u64 = 3_000;

        struct Payload {
            magic: AtomicU64,
        }
        impl Drop for Payload {
            fn drop(&mut self) {
                self.magic.store(0, Ordering::SeqCst);
            }
        }

        let domain = EbrDomain::new();
        let cell = AtomicPtr::new(Box::into_raw(Box::new(Payload {
            magic: AtomicU64::new(MAGIC),
        })));
        let stop = AtomicBool::new(false);
        let barrier = Barrier::new(3);

        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let h = domain.register();
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let _g = h.pin();
                        let p = cell.load(Ordering::Acquire);
                        // SAFETY: pinned, and `p` was reachable.
                        let magic = unsafe { (*p).magic.load(Ordering::SeqCst) };
                        assert_eq!(magic, MAGIC, "observed a freed payload");
                    }
                });
            }
            s.spawn(|| {
                let h = domain.register();
                barrier.wait();
                for _ in 0..WRITES {
                    let fresh = Box::into_raw(Box::new(Payload {
                        magic: AtomicU64::new(MAGIC),
                    }));
                    let old = cell.swap(fresh, Ordering::AcqRel);
                    let _g = h.pin();
                    // SAFETY: `old` is unlinked; readers that got it while
                    // pinned are protected by the grace period.
                    unsafe { h.retire(old) };
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        // SAFETY: all threads joined; final payload still live.
        unsafe { drop(Box::from_raw(cell.load(Ordering::Relaxed))) };
    }

    #[test]
    fn debug_impls_nonempty() {
        let domain = EbrDomain::new();
        let h = domain.register();
        let g = h.pin();
        assert!(format!("{domain:?}").contains("EbrDomain"));
        assert!(format!("{h:?}").contains("EbrHandle"));
        assert!(format!("{g:?}").contains("EbrGuard"));
        drop(g);
    }
}
