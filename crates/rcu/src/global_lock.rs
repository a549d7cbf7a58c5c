//! Classic user-space RCU with a globally locked `synchronize_rcu`
//! (the "standard RCU implementation" of the paper's Figure 8).
//!
//! This models liburcu's memory-barrier flavor (Desnoyers, McKenney, Stern,
//! Dagenais, Walpole, *User-level implementations of Read-Copy Update*,
//! IEEE TPDS 2012):
//!
//! * A global *grace-period phase* counter.
//! * On `rcu_read_lock` a thread copies the current phase into its own
//!   reader word and sets an active bit.
//! * `synchronize_rcu` **acquires a global lock**, then runs two phase
//!   flips; after each flip it waits until every reader is either inactive
//!   or has observed the new phase.
//!
//! The two flips mirror liburcu: a reader may have fetched the old phase
//! but not yet published its reader word when the first flip happens;
//! waiting out two phases ensures no reader from before the grace period
//! survives into it.
//!
//! The global lock is the scaling bottleneck the paper identifies: with
//! many concurrent updaters each executing `synchronize_rcu`, updates
//! serialize behind this one lock *and* each then waits a full grace
//! period, so throughput collapses as update concurrency grows (Fig. 8,
//! left). [`ScalableRcu`](crate::ScalableRcu) removes exactly this
//! coordination.

use crate::flavor::{RcuFlavor, RcuHandle};
use crate::metrics::RcuMetrics;
use crate::stall::StallWatchdog;
use citrus_chaos as chaos;
use citrus_obs::Stopwatch;
use citrus_sync::{Backoff, CachePadded, Registry, SlotHandle, SpinMutex};
use core::cell::Cell;
use core::fmt;
use core::sync::atomic::{fence, AtomicU64, Ordering};
use core::time::Duration;
use std::time::Instant;

/// Active bit: the thread is inside a read-side critical section.
const ACTIVE: u64 = 1;
/// Phase counter step (phase occupies bits 1..).
const PHASE_ONE: u64 = 2;

/// One registered thread's reader state: `0` when quiescent, otherwise
/// `(observed_phase) | ACTIVE` where `observed_phase` is the global phase
/// value (already shifted, bits 1..) at `rcu_read_lock` time.
struct ReaderSlot {
    word: CachePadded<AtomicU64>,
}

impl ReaderSlot {
    fn new() -> Self {
        Self {
            word: CachePadded::new(AtomicU64::new(0)),
        }
    }
}

/// Classic global-lock user-space RCU domain. See the module-level documentation.
///
/// # Example
///
/// ```
/// use citrus_rcu::{GlobalLockRcu, RcuFlavor, RcuHandle};
///
/// let rcu = GlobalLockRcu::new();
/// let h = rcu.register();
/// {
///     let _g = h.read_lock();
/// }
/// h.synchronize();
/// ```
pub struct GlobalLockRcu {
    /// Serializes all `synchronize_rcu` callers — the Fig. 8 bottleneck.
    gp_lock: SpinMutex<()>,
    /// Global grace-period phase, in steps of [`PHASE_ONE`].
    gp_phase: AtomicU64,
    registry: Registry<ReaderSlot>,
    grace_periods: AtomicU64,
    metrics: RcuMetrics,
    watchdog: StallWatchdog,
}

impl GlobalLockRcu {
    /// Creates a new domain with no registered threads.
    pub fn new() -> Self {
        Self {
            gp_lock: SpinMutex::new(()),
            gp_phase: AtomicU64::new(PHASE_ONE),
            registry: Registry::new(),
            grace_periods: AtomicU64::new(0),
            metrics: RcuMetrics::new(),
            watchdog: StallWatchdog::new(),
        }
    }
}

impl Default for GlobalLockRcu {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for GlobalLockRcu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalLockRcu")
            .field("threads", &self.registry.slot_count())
            .field("grace_periods", &self.grace_periods())
            .finish()
    }
}

impl RcuFlavor for GlobalLockRcu {
    type Handle<'a> = GlobalLockRcuHandle<'a>;

    const NAME: &'static str = "rcu-global-lock";

    fn register(&self) -> GlobalLockRcuHandle<'_> {
        // Released slots always read 0 (quiescent); no reset needed.
        let slot = self.registry.register(ReaderSlot::new, |_| {});
        GlobalLockRcuHandle {
            domain: self,
            slot,
            nesting: Cell::new(0),
            stripe: self.metrics.assign_stripe(),
        }
    }

    fn grace_periods(&self) -> u64 {
        self.grace_periods.load(Ordering::Relaxed)
    }

    fn metrics(&self) -> &RcuMetrics {
        &self.metrics
    }

    fn set_stall_timeout(&self, timeout: Option<Duration>) {
        self.watchdog.set_timeout(timeout);
    }

    fn stall_events(&self) -> u64 {
        self.watchdog.events()
    }

    fn take_stall_diagnostic(&self) -> Option<String> {
        self.watchdog.take_diagnostic()
    }
}

/// Per-thread handle for [`GlobalLockRcu`].
pub struct GlobalLockRcuHandle<'d> {
    domain: &'d GlobalLockRcu,
    slot: SlotHandle<'d, ReaderSlot>,
    nesting: Cell<u32>,
    /// This handle's metric-counter stripe.
    stripe: usize,
}

impl RcuHandle for GlobalLockRcuHandle<'_> {
    #[inline]
    fn raw_read_lock(&self) {
        let n = self.nesting.get();
        self.nesting.set(n + 1);
        if n == 0 {
            let phase = self.domain.gp_phase.load(Ordering::Relaxed);
            // Release, not Relaxed: the synchronizer's flip wait-loop also
            // exits when it observes us re-entered *at the new phase* —
            // i.e. when its Acquire load reads this store after an
            // exit-and-re-enter. The previous unlock's release store is
            // never read on that path (and post-C++20 its release sequence
            // does not extend through this plain store), so this store
            // must itself carry the previous critical section's loads.
            self.slot.word.store(phase | ACTIVE, Ordering::Release);
            // A synchronizer blocked on this word exits once it observes
            // a re-entry at the new phase.
            chaos::wake_hint();
            // A reader preempted here has published a (possibly stale)
            // phase but not yet ordered its loads — the window the two
            // phase flips exist to cover.
            chaos::point!("rcu-global-lock/read-lock/between-store-and-fence");
            // Pair with the synchronizer's fence: it either sees us active,
            // or we see all its pre-grace-period stores.
            fence(Ordering::SeqCst);
            self.domain.metrics.record_read_section(self.stripe);
        }
    }

    #[inline]
    fn raw_read_unlock(&self) {
        let n = self.nesting.get();
        // Same underflow hazard as the scalable flavor: wrapping to
        // u32::MAX in release builds would pin in_read_section() true and
        // wedge later grace periods — fail loudly in every build.
        let Some(rest) = n.checked_sub(1) else {
            panic!("read_unlock without matching read_lock");
        };
        self.nesting.set(rest);
        if rest == 0 {
            // Single Release store, no separate release fence: it pairs
            // with the synchronizer's Acquire load for the "quiescent
            // (word 0)" exit of the flip wait-loop. The other exit —
            // "re-entered at the new phase" — is covered by
            // `raw_read_lock`'s Release store on the re-entry word.
            self.slot.word.store(0, Ordering::Release);
            // A synchronizer blocked on this word can now proceed.
            chaos::wake_hint();
        }
    }

    fn synchronize(&self) {
        debug_assert!(
            !self.in_read_section(),
            "synchronize_rcu inside a read-side critical section would self-deadlock"
        );
        let domain = self.domain;
        // Time from before lock acquisition: queueing behind other
        // synchronizers is precisely the latency Fig. 8 is about.
        let stopwatch = Stopwatch::start();
        // Order the caller's prior stores (e.g. unlinking a node) before
        // the phase flips.
        fence(Ordering::SeqCst);
        // === The global lock: all synchronizers serialize here. ===
        let _gp = domain.gp_lock.lock();
        let own = core::ptr::from_ref::<ReaderSlot>(&self.slot).cast::<u8>();
        // Two phase flips, as in liburcu: a reader may fetch the phase and
        // publish its word a moment later, so one flip can miss it; it
        // cannot survive two.
        let stall_limit = domain.watchdog.timeout();
        let mut scanned = 0u64;
        for _ in 0..2 {
            // A synchronizer paused between flips holds the global lock
            // while readers keep entering under the first new phase.
            chaos::point!("rcu-global-lock/synchronize/phase-flip");
            let new_phase = domain.gp_phase.fetch_add(PHASE_ONE, Ordering::SeqCst) + PHASE_ONE;
            // Order the flip before the reader scan in the SeqCst total
            // order, as liburcu does after every flip: a reader whose
            // read-lock fence precedes this one published its word under
            // the old phase, and the scan below is then sure to see that
            // word. A reader that fetched the old phase but publishes it
            // after this point is what the second flip covers.
            fence(Ordering::SeqCst);
            for (index, slot) in domain.registry.iter().enumerate() {
                chaos::point!("rcu-global-lock/synchronize/scan-step");
                if core::ptr::from_ref::<ReaderSlot>(slot.value()).cast::<u8>() == own {
                    continue;
                }
                scanned += 1;
                let word = &slot.value().word;
                let backoff = Backoff::new();
                let mut waited_since: Option<Instant> = None;
                let mut reported = false;
                loop {
                    let w = word.load(Ordering::Acquire);
                    // Quiescent, or entered at (or after) the new phase:
                    // not a pre-existing reader.
                    if w & ACTIVE == 0 || (w & !ACTIVE) >= new_phase {
                        break;
                    }
                    // Progress needs this reader to exit or re-enter:
                    // park under a deterministic schedule.
                    chaos::blocked!("rcu-global-lock/synchronize/reader-wait");
                    backoff.snooze();
                    if let Some(limit) = stall_limit {
                        let since = *waited_since.get_or_insert_with(Instant::now);
                        if !reported && since.elapsed() >= limit {
                            reported = true;
                            domain
                                .watchdog
                                .note(GlobalLockRcu::NAME, index, w, since.elapsed());
                            domain.metrics.record_synchronize_stall(self.stripe);
                        }
                    }
                }
            }
        }
        fence(Ordering::SeqCst);
        domain.grace_periods.fetch_add(1, Ordering::Relaxed);
        domain
            .metrics
            .record_synchronize(self.stripe, stopwatch.elapsed_ns());
        domain.metrics.record_scan_slots(scanned);
    }

    #[inline]
    fn in_read_section(&self) -> bool {
        self.nesting.get() > 0
    }
}

impl Drop for GlobalLockRcuHandle<'_> {
    fn drop(&mut self) {
        assert!(
            !self.in_read_section(),
            "RCU handle dropped inside a read-side critical section"
        );
    }
}

impl fmt::Debug for GlobalLockRcuHandle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalLockRcuHandle")
            .field("nesting", &self.nesting.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn reader_word_carries_phase() {
        let rcu = GlobalLockRcu::new();
        let h = rcu.register();
        h.raw_read_lock();
        let w = h.slot.word.load(Ordering::Relaxed);
        assert_eq!(w & ACTIVE, ACTIVE);
        assert_eq!(w & !ACTIVE, rcu.gp_phase.load(Ordering::Relaxed));
        h.raw_read_unlock();
        assert_eq!(h.slot.word.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn synchronize_advances_phase_twice() {
        let rcu = GlobalLockRcu::new();
        let h = rcu.register();
        let before = rcu.gp_phase.load(Ordering::Relaxed);
        h.synchronize();
        assert_eq!(
            rcu.gp_phase.load(Ordering::Relaxed),
            before + 2 * PHASE_ONE,
            "liburcu-style grace periods flip the phase twice"
        );
    }

    #[test]
    fn synchronizers_serialize_on_the_global_lock() {
        // Demonstrates (not just asserts) the Fig. 8 mechanism: while one
        // synchronizer waits on a reader, a second synchronizer cannot even
        // start its grace period.
        let rcu = GlobalLockRcu::new();
        let reader_in = AtomicBool::new(false);
        let release_reader = AtomicBool::new(false);
        let second_done = AtomicBool::new(false);

        std::thread::scope(|s| {
            s.spawn(|| {
                let h = rcu.register();
                let g = h.read_lock();
                reader_in.store(true, Ordering::SeqCst);
                let backoff = Backoff::new();
                while !release_reader.load(Ordering::SeqCst) {
                    backoff.snooze();
                }
                drop(g);
            });
            s.spawn(|| {
                let h = rcu.register();
                let backoff = Backoff::new();
                while !reader_in.load(Ordering::SeqCst) {
                    backoff.snooze();
                }
                h.synchronize(); // blocks on the reader
            });
            s.spawn(|| {
                let h = rcu.register();
                let backoff = Backoff::new();
                while !reader_in.load(Ordering::SeqCst) {
                    backoff.snooze();
                }
                // Give the first synchronizer time to take the lock.
                std::thread::sleep(Duration::from_millis(50));
                h.synchronize(); // must wait behind the first one
                second_done.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(150));
            assert!(
                !second_done.load(Ordering::SeqCst),
                "second synchronizer finished while the first was blocked — no serialization?"
            );
            release_reader.store(true, Ordering::SeqCst);
        });
        assert!(second_done.load(Ordering::SeqCst));
    }

    #[test]
    fn debug_is_nonempty() {
        let rcu = GlobalLockRcu::new();
        let h = rcu.register();
        assert!(format!("{rcu:?}").contains("GlobalLockRcu"));
        assert!(format!("{h:?}").contains("GlobalLockRcuHandle"));
    }

    // In every build profile, not just debug (the release-mode nesting
    // underflow would wedge all later grace periods).
    #[test]
    #[should_panic(expected = "read_unlock without matching read_lock")]
    fn unbalanced_unlock_panics() {
        let rcu = GlobalLockRcu::new();
        let h = rcu.register();
        h.raw_read_unlock();
    }

    /// The "re-entered at the new phase" quiescence exit: a synchronizer
    /// blocked on a reader must also be released when the reader exits and
    /// re-enters with the freshly flipped phase, not only when it observes
    /// the word quiescent (0). `raw_read_lock`'s Release store is what
    /// makes that exit carry the first section's ordering. The flavor runs
    /// two flips, so the reader may need to turn over once per flip.
    #[test]
    fn synchronize_returns_when_blocking_reader_reenters() {
        let rcu = GlobalLockRcu::new();
        // The watchdog is the "synchronizer is blocked on us" signal.
        rcu.set_stall_timeout(Some(Duration::from_millis(1)));
        let h = rcu.register();
        h.raw_read_lock();
        let sync_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let hs = rcu.register();
                hs.synchronize();
                sync_done.store(true, Ordering::SeqCst);
            });
            // One stall event per flip the synchronizer blocks in; after
            // each, turn the section over so the word picks up the current
            // phase. The second flip can race our first re-entry (if the
            // re-entry already read the post-flip-2 phase there is no
            // second stall), hence the `sync_done` escape.
            let backoff = Backoff::new();
            for events in 1..=2u64 {
                while rcu.stall_events() < events && !sync_done.load(Ordering::SeqCst) {
                    backoff.snooze();
                }
                if sync_done.load(Ordering::SeqCst) {
                    break;
                }
                h.raw_read_unlock();
                h.raw_read_lock();
            }
            while !sync_done.load(Ordering::SeqCst) {
                backoff.snooze();
            }
            assert!(h.in_read_section());
            h.raw_read_unlock();
        });
        assert_eq!(rcu.grace_periods(), 1);
    }
}
