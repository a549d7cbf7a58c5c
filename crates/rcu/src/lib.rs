//! User-space read-copy-update (RCU) for the Citrus reproduction.
//!
//! RCU is a synchronization mechanism that favors readers: a read-side
//! critical section is delimited by `rcu_read_lock` / `rcu_read_unlock`
//! (both wait-free, nearly free), while a writer may call `synchronize_rcu`
//! as a barrier that blocks until **all pre-existing read-side critical
//! sections have completed** (the *RCU property*, Fig. 2 of the paper).
//!
//! This crate provides two complete user-space implementations behind the
//! [`RcuFlavor`] trait:
//!
//! * [`ScalableRcu`] — the implementation introduced in §5 of the paper.
//!   Each thread owns one cache-padded word packing a critical-section
//!   counter and an "inside critical section" flag. `synchronize_rcu` scans
//!   all threads and waits, per thread, until the counter changes or the
//!   flag clears. Crucially, **concurrent synchronizers do not coordinate
//!   with each other at all** — no locks — which is what lets Citrus scale
//!   under update-heavy workloads (Fig. 8, right).
//! * [`GlobalLockRcu`] — a faithful model of the classic user-space RCU
//!   (liburcu-style, Desnoyers et al.): grace periods are driven through a
//!   global grace-period phase counter and **`synchronize_rcu` callers
//!   serialize on a global lock**. This is the "standard RCU" whose
//!   collapse under concurrent updates the paper demonstrates (Fig. 8,
//!   left).
//!
//! Data structures in this repository are generic over [`RcuFlavor`], so
//! swapping implementations — the whole point of Figure 8 — is a type
//! parameter.
//!
//! Each `synchronize_rcu` call runs its own grace period: neither flavor
//! lets a caller return on a peer's grace period.
//!
//! # Thread model
//!
//! Threads participate by registering with a flavor instance
//! ([`RcuFlavor::register`]), obtaining a per-thread [`RcuHandle`]. The
//! handle is cheap, not `Send`, and releases its slot on drop. Read-side
//! critical sections nest.
//!
//! # Example
//!
//! ```
//! use citrus_rcu::{RcuFlavor, RcuHandle, ScalableRcu};
//! use std::sync::atomic::{AtomicPtr, Ordering};
//!
//! let rcu = ScalableRcu::new();
//! let cell = AtomicPtr::new(Box::into_raw(Box::new(1u64)));
//!
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let reader = rcu.register();
//!         let _guard = reader.read_lock();
//!         let v = unsafe { *cell.load(Ordering::Acquire) };
//!         assert!(v == 1 || v == 2);
//!     });
//!     s.spawn(|| {
//!         let writer = rcu.register();
//!         let old = cell.swap(Box::into_raw(Box::new(2u64)), Ordering::AcqRel);
//!         writer.synchronize(); // wait for pre-existing readers
//!         drop(unsafe { Box::from_raw(old) }); // now safe to free
//!     });
//! });
//! # drop(unsafe { Box::from_raw(cell.load(Ordering::Relaxed)) });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod flavor;
mod global_lock;
mod metrics;
mod scalable;
mod stall;

pub use flavor::{RcuFlavor, RcuHandle, RcuReadGuard};
pub use global_lock::{GlobalLockRcu, GlobalLockRcuHandle};
pub use metrics::RcuMetrics;
pub use scalable::{ScalableRcu, ScalableRcuHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn exercise_basic<F: RcuFlavor>(rcu: &F) {
        let h = rcu.register();
        // Empty grace period completes immediately.
        h.synchronize();
        // Nested read sections.
        {
            let _outer = h.read_lock();
            let _inner = h.read_lock();
        }
        h.synchronize();
    }

    #[test]
    fn basic_scalable() {
        exercise_basic(&ScalableRcu::new());
    }

    #[test]
    fn basic_global_lock() {
        exercise_basic(&GlobalLockRcu::new());
    }

    /// The RCU property: a reader inside a critical section when
    /// `synchronize` is invoked blocks the synchronizer until it exits.
    fn grace_period_waits<F: RcuFlavor>(rcu: &F) {
        let in_cs = AtomicBool::new(false);
        let sync_done = AtomicBool::new(false);
        let (enter_tx, enter_rx) = mpsc::channel::<()>();
        let (exit_tx, exit_rx) = mpsc::channel::<()>();

        let (in_cs_ref, sync_done_ref) = (&in_cs, &sync_done);
        std::thread::scope(|s| {
            s.spawn(move || {
                let h = rcu.register();
                let guard = h.read_lock();
                in_cs_ref.store(true, Ordering::SeqCst);
                enter_tx.send(()).unwrap();
                // Stay in the critical section until told to leave.
                exit_rx.recv().unwrap();
                in_cs_ref.store(false, Ordering::SeqCst);
                drop(guard);
            });
            s.spawn(move || {
                enter_rx.recv().unwrap();
                let h = rcu.register();
                h.synchronize();
                // The reader must have left its critical section by now.
                assert!(
                    !in_cs_ref.load(Ordering::SeqCst),
                    "synchronize returned while a pre-existing reader was in its critical section"
                );
                sync_done_ref.store(true, Ordering::SeqCst);
            });
            // Give the synchronizer time to (incorrectly) race past the
            // reader, then let the reader go.
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                !sync_done.load(Ordering::SeqCst),
                "synchronize returned before the reader exited"
            );
            exit_tx.send(()).unwrap();
        });
        assert!(sync_done.load(Ordering::SeqCst));
    }

    #[test]
    fn grace_period_waits_scalable() {
        grace_period_waits(&ScalableRcu::new());
    }

    #[test]
    fn grace_period_waits_global_lock() {
        grace_period_waits(&GlobalLockRcu::new());
    }

    /// Readers that enter *after* synchronize starts must not block it
    /// forever: a continuous stream of new read sections on another thread
    /// must not starve the synchronizer.
    fn no_starvation_by_new_readers<F: RcuFlavor>(rcu: &F) {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let h = rcu.register();
                while !stop.load(Ordering::Relaxed) {
                    let _g = h.read_lock();
                    std::hint::spin_loop();
                }
            });
            s.spawn(|| {
                let h = rcu.register();
                for _ in 0..50 {
                    h.synchronize();
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
    }

    #[test]
    fn no_starvation_scalable() {
        no_starvation_by_new_readers(&ScalableRcu::new());
    }

    #[test]
    fn no_starvation_global_lock() {
        no_starvation_by_new_readers(&GlobalLockRcu::new());
    }

    /// Classic RCU publish/retire stress: a writer swaps a boxed value,
    /// synchronizes, poisons and frees the old one. Readers must never
    /// observe the poison through the shared pointer.
    fn publish_retire_stress<F: RcuFlavor>(rcu: &F) {
        const POISON: u64 = u64::MAX;
        const WRITES: usize = 2_000;
        const READERS: usize = 3;
        let cell = AtomicPtr::new(Box::into_raw(Box::new(0u64)));
        let stop = AtomicBool::new(false);

        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    let h = rcu.register();
                    while !stop.load(Ordering::Relaxed) {
                        let g = h.read_lock();
                        let p = cell.load(Ordering::Acquire);
                        // SAFETY: `p` was published and cannot be freed
                        // before our read section ends.
                        let v = unsafe { *p };
                        assert_ne!(v, POISON, "reader observed a freed value");
                        drop(g);
                    }
                });
            }
            s.spawn(|| {
                let h = rcu.register();
                for i in 1..=WRITES as u64 {
                    let fresh = Box::into_raw(Box::new(i));
                    let old = cell.swap(fresh, Ordering::AcqRel);
                    h.synchronize();
                    // SAFETY: a grace period elapsed; no reader holds `old`.
                    unsafe {
                        *old = POISON;
                        drop(Box::from_raw(old));
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        // SAFETY: all threads joined.
        unsafe { drop(Box::from_raw(cell.load(Ordering::Relaxed))) };
    }

    #[test]
    fn publish_retire_stress_scalable() {
        publish_retire_stress(&ScalableRcu::new());
    }

    #[test]
    fn publish_retire_stress_global_lock() {
        publish_retire_stress(&GlobalLockRcu::new());
    }

    /// Concurrent synchronizers must all make progress (the scalable flavor
    /// is lock-free among synchronizers; the global-lock flavor serializes
    /// but must not deadlock).
    fn concurrent_synchronizers<F: RcuFlavor>(rcu: &F) {
        const SYNCERS: usize = 4;
        const EACH: usize = 100;
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..SYNCERS {
                s.spawn(|| {
                    let h = rcu.register();
                    for _ in 0..EACH {
                        {
                            let _g = h.read_lock();
                        }
                        h.synchronize();
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), SYNCERS as u64);
    }

    #[test]
    fn concurrent_synchronizers_scalable() {
        concurrent_synchronizers(&ScalableRcu::new());
    }

    #[test]
    fn concurrent_synchronizers_global_lock() {
        concurrent_synchronizers(&GlobalLockRcu::new());
    }

    #[test]
    fn flavor_names_differ() {
        assert_ne!(ScalableRcu::NAME, GlobalLockRcu::NAME);
    }

    #[test]
    fn grace_period_counters_advance() {
        let rcu = ScalableRcu::new();
        let h = rcu.register();
        let before = rcu.grace_periods();
        h.synchronize();
        h.synchronize();
        assert_eq!(rcu.grace_periods(), before + 2);

        let rcu = GlobalLockRcu::new();
        let h = rcu.register();
        let before = rcu.grace_periods();
        h.synchronize();
        assert_eq!(rcu.grace_periods(), before + 1);
    }
}
