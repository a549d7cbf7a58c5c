//! Tree-level metrics: validation restarts, per-node lock acquisitions,
//! and `synchronize_rcu` calls on the two-child delete path.
//!
//! Instruments come from `citrus-obs` and are no-ops unless this crate is
//! built with the `stats` feature. [`CitrusTree::register_metrics`]
//! registers these together with the RCU domain's and (in `Epoch` mode)
//! the reclamation domain's instruments, giving one registry snapshot for
//! the whole stack.
//!
//! [`CitrusTree::register_metrics`]: crate::CitrusTree::register_metrics

use citrus_obs::{Counter, MetricsRegistry};
use core::sync::atomic::{AtomicUsize, Ordering};

/// Stripe count for the per-tree event counters.
const STRIPES: usize = 32;

/// Metrics kept by every [`CitrusTree`](crate::CitrusTree).
///
/// # Example
///
/// ```
/// use citrus::CitrusTree;
/// use citrus_obs::MetricsRegistry;
///
/// let tree: CitrusTree<u64, u64> = CitrusTree::new();
/// let registry = MetricsRegistry::new();
/// tree.register_metrics(&registry);
///
/// let mut s = tree.session();
/// s.insert(1, 10);
/// s.remove(&1);
/// # drop(s);
///
/// let snap = registry.snapshot();
/// #[cfg(feature = "stats")]
/// assert!(snap.counter("citrus", "lock_acquisitions").unwrap() >= 3);
/// #[cfg(not(feature = "stats"))]
/// assert!(snap.is_empty());
/// ```
#[derive(Debug)]
pub struct TreeMetrics {
    insert_retries: Counter,
    remove_retries: Counter,
    lock_acquisitions: Counter,
    synchronize_calls: Counter,
    scan_ops: Counter,
    scan_restarts: Counter,
    /// Round-robin stripe allocator for sessions (cold path: one
    /// `fetch_add` per [`session`](crate::CitrusTree::session)).
    next_stripe: AtomicUsize,
}

impl TreeMetrics {
    pub(crate) fn new() -> Self {
        Self {
            insert_retries: Counter::new(STRIPES),
            remove_retries: Counter::new(STRIPES),
            lock_acquisitions: Counter::new(STRIPES),
            synchronize_calls: Counter::new(STRIPES),
            scan_ops: Counter::new(STRIPES),
            scan_restarts: Counter::new(STRIPES),
            next_stripe: AtomicUsize::new(0),
        }
    }

    /// Assigns the next session its counter stripe.
    pub(crate) fn assign_stripe(&self) -> usize {
        self.next_stripe.fetch_add(1, Ordering::Relaxed) % STRIPES
    }

    /// Records an `insert` that failed validation and restarted.
    #[inline]
    pub(crate) fn record_insert_retry(&self, stripe: usize) {
        self.insert_retries.incr(stripe);
    }

    /// Records a `remove` that failed validation and restarted.
    #[inline]
    pub(crate) fn record_remove_retry(&self, stripe: usize) {
        self.remove_retries.incr(stripe);
    }

    /// Records `n` per-node lock acquisitions.
    #[inline]
    pub(crate) fn record_locks(&self, stripe: usize, n: u64) {
        self.lock_acquisitions.add(stripe, n);
    }

    /// Records one `synchronize_rcu` issued by a two-child delete.
    #[inline]
    pub(crate) fn record_synchronize(&self, stripe: usize) {
        self.synchronize_calls.incr(stripe);
    }

    /// Records one completed ordered read (`range_scan` / `successor` /
    /// `predecessor`).
    #[inline]
    pub(crate) fn record_scan_op(&self, stripe: usize) {
        self.scan_ops.incr(stripe);
    }

    /// Records an ordered read whose traversal failed validation and
    /// restarted (DESIGN.md §6i).
    #[inline]
    pub(crate) fn record_scan_restart(&self, stripe: usize) {
        self.scan_restarts.incr(stripe);
    }

    /// Total `insert` validation restarts across sessions
    /// (`0` with stats off).
    #[must_use]
    pub fn insert_retries(&self) -> u64 {
        self.insert_retries.get()
    }

    /// Total `remove` validation restarts across sessions
    /// (`0` with stats off).
    #[must_use]
    pub fn remove_retries(&self) -> u64 {
        self.remove_retries.get()
    }

    /// Total per-node lock acquisitions across sessions
    /// (`0` with stats off).
    #[must_use]
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.get()
    }

    /// Total `synchronize_rcu` calls issued by two-child deletes
    /// (`0` with stats off).
    #[must_use]
    pub fn synchronize_calls(&self) -> u64 {
        self.synchronize_calls.get()
    }

    /// Total completed ordered reads (`range_scan` / `successor` /
    /// `predecessor`) across sessions (`0` with stats off).
    #[must_use]
    pub fn scan_ops(&self) -> u64 {
        self.scan_ops.get()
    }

    /// Total ordered-read traversals that failed validation and restarted
    /// (`0` with stats off).
    #[must_use]
    pub fn scan_restarts(&self) -> u64 {
        self.scan_restarts.get()
    }

    /// Registers this tree's instruments under `component`.
    pub fn register_into(&self, registry: &MetricsRegistry, component: &str) {
        registry.register_counter(component, "insert_retries", &self.insert_retries);
        registry.register_counter(component, "remove_retries", &self.remove_retries);
        registry.register_counter(component, "lock_acquisitions", &self.lock_acquisitions);
        registry.register_counter(component, "synchronize_calls", &self.synchronize_calls);
        registry.register_counter(component, "scan_ops", &self.scan_ops);
        registry.register_counter(component, "scan_restarts", &self.scan_restarts);
    }
}
