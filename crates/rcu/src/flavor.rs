//! The [`RcuFlavor`] abstraction: the three-function RCU API used by Citrus
//! (`rcu_read_lock`, `rcu_read_unlock`, `synchronize_rcu`), expressed as a
//! per-thread handle so implementations can keep per-thread reader state.

use crate::metrics::RcuMetrics;
use core::fmt;
use core::time::Duration;

/// An RCU implementation ("flavor", in liburcu terminology).
///
/// A flavor instance is a *domain*: grace periods computed by
/// [`RcuHandle::synchronize`] cover exactly the read-side critical sections
/// of handles registered with the same instance. Independent data structures
/// may use independent domains.
///
/// # Example
///
/// ```
/// use citrus_rcu::{RcuFlavor, RcuHandle, ScalableRcu};
///
/// fn quiesce<F: RcuFlavor>(rcu: &F) {
///     let h = rcu.register();
///     h.synchronize(); // all pre-existing read sections have finished
/// }
/// quiesce(&ScalableRcu::new());
/// ```
pub trait RcuFlavor: Send + Sync + Default + 'static {
    /// The per-thread participant handle.
    type Handle<'a>: RcuHandle
    where
        Self: 'a;

    /// Short human-readable name used in benchmark reports
    /// (e.g. `"rcu-scalable"`).
    const NAME: &'static str;

    /// Creates a new, empty domain.
    fn new() -> Self {
        Self::default()
    }

    /// Registers the calling thread, returning its handle.
    ///
    /// The handle must be dropped before the domain; it is not `Send`.
    /// Registering the same thread twice is allowed (two independent
    /// participant slots).
    fn register(&self) -> Self::Handle<'_>;

    /// Total number of grace periods completed in this domain
    /// (diagnostics; approximate under concurrency).
    fn grace_periods(&self) -> u64;

    /// This domain's metric instruments (no-ops unless the crate is built
    /// with the `stats` feature). Register them into a
    /// [`citrus_obs::MetricsRegistry`] with
    /// [`RcuMetrics::register_into`].
    fn metrics(&self) -> &RcuMetrics;

    /// Reconfigures the grace-period stall watchdog: after waiting this
    /// long on one reader, `synchronize` records a stall event and emits a
    /// diagnostic naming the blocking registry slot (then keeps waiting —
    /// the watchdog never changes grace-period semantics). `None` disables
    /// it. A new domain starts at 2 s.
    ///
    /// The default implementation ignores the setting (for flavors without
    /// a watchdog).
    fn set_stall_timeout(&self, timeout: Option<Duration>) {
        let _ = timeout;
    }

    /// Number of grace-period stalls recorded by the watchdog. Counted
    /// unconditionally (not gated on the `stats` feature).
    fn stall_events(&self) -> u64 {
        0
    }

    /// The former count of `synchronize` calls that returned on a peer's
    /// grace period. Always 0: grace-period sharing was removed and every
    /// call runs its own grace period. Kept only because the benchmark
    /// program still calls it; the next change to the benchmark deletes
    /// it.
    fn synchronize_piggybacks(&self) -> u64 {
        0
    }

    /// Takes the most recent stall diagnostic, if any.
    fn take_stall_diagnostic(&self) -> Option<String> {
        None
    }
}

/// Per-thread RCU participant: read-side critical sections and grace-period
/// waits.
///
/// Read-side sections are reentrant: nested [`read_lock`](Self::read_lock)
/// calls are counted and only the outermost entry/exit touches shared state.
pub trait RcuHandle {
    /// Enters a read-side critical section.
    ///
    /// Wait-free (a handful of instructions). Prefer the RAII wrapper
    /// [`read_lock`](Self::read_lock).
    fn raw_read_lock(&self);

    /// Exits a read-side critical section.
    ///
    /// Wait-free.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the thread is not inside a read-side section.
    fn raw_read_unlock(&self);

    /// Waits until all read-side critical sections that existed when this
    /// call started have completed (the RCU property).
    ///
    /// Blocking; must **not** be called from inside a read-side critical
    /// section (self-deadlock).
    ///
    /// # Panics
    ///
    /// Debug builds panic if called inside a read-side section.
    fn synchronize(&self);

    /// Returns `true` while the calling thread is inside a read-side
    /// critical section of this handle.
    fn in_read_section(&self) -> bool;

    /// Enters a read-side critical section, returning an RAII guard that
    /// exits it on drop.
    fn read_lock(&self) -> RcuReadGuard<'_, Self>
    where
        Self: Sized,
    {
        self.raw_read_lock();
        RcuReadGuard { handle: self }
    }
}

/// RAII guard for a read-side critical section; see [`RcuHandle::read_lock`].
pub struct RcuReadGuard<'h, H: RcuHandle> {
    handle: &'h H,
}

impl<H: RcuHandle> Drop for RcuReadGuard<'_, H> {
    fn drop(&mut self) {
        self.handle.raw_read_unlock();
    }
}

impl<H: RcuHandle> fmt::Debug for RcuReadGuard<'_, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RcuReadGuard").finish_non_exhaustive()
    }
}
