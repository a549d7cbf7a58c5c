//! Per-domain RCU metrics: read-section volume and `synchronize_rcu`
//! count + latency, feeding a [`citrus_obs::MetricsRegistry`].
//!
//! All instruments come from `citrus-obs` and are no-ops unless this crate
//! is built with the `stats` feature; the only unconditional state is a
//! cold-path stripe allocator touched once per [`register`]
//! (`RcuFlavor::register`).
//!
//! [`register`]: crate::RcuFlavor::register

use citrus_obs::{Counter, Log2Histogram, MetricsRegistry};
use core::sync::atomic::{AtomicUsize, Ordering};

/// Stripe count for the per-domain event counters. Handles beyond this
/// many share stripes (harmless: striping is contention-avoidance only).
const STRIPES: usize = 32;

/// Metrics every RCU domain keeps (see [`RcuFlavor::metrics`]).
///
/// [`RcuFlavor::metrics`]: crate::RcuFlavor::metrics
///
/// # Example
///
/// ```
/// use citrus_obs::MetricsRegistry;
/// use citrus_rcu::{RcuFlavor, RcuHandle, ScalableRcu};
///
/// let rcu = ScalableRcu::new();
/// let registry = MetricsRegistry::new();
/// rcu.metrics().register_into(&registry, "rcu/scalable");
///
/// let h = rcu.register();
/// {
///     let _g = h.read_lock();
/// }
/// h.synchronize();
///
/// let snap = registry.snapshot();
/// #[cfg(feature = "stats")]
/// {
///     assert_eq!(snap.counter("rcu/scalable", "read_sections"), Some(1));
///     assert_eq!(snap.counter("rcu/scalable", "synchronize_calls"), Some(1));
///     assert_eq!(
///         snap.histogram("rcu/scalable", "synchronize_ns").unwrap().count,
///         1
///     );
/// }
/// #[cfg(not(feature = "stats"))]
/// assert!(snap.is_empty());
/// ```
#[derive(Debug)]
pub struct RcuMetrics {
    read_sections: Counter,
    synchronize_calls: Counter,
    synchronize_ns: Log2Histogram,
    synchronize_stalls: Counter,
    synchronize_scan_slots: Log2Histogram,
    /// Round-robin stripe allocator for handles (cold path: one
    /// `fetch_add` per `register`, never on read/synchronize).
    next_stripe: AtomicUsize,
}

impl RcuMetrics {
    pub(crate) fn new() -> Self {
        Self {
            read_sections: Counter::new(STRIPES),
            synchronize_calls: Counter::new(STRIPES),
            synchronize_ns: Log2Histogram::new(),
            synchronize_stalls: Counter::new(STRIPES),
            synchronize_scan_slots: Log2Histogram::new(),
            next_stripe: AtomicUsize::new(0),
        }
    }

    /// Assigns the next handle its counter stripe.
    pub(crate) fn assign_stripe(&self) -> usize {
        self.next_stripe.fetch_add(1, Ordering::Relaxed) % STRIPES
    }

    /// Records one outermost read-side critical-section entry.
    #[inline]
    pub(crate) fn record_read_section(&self, stripe: usize) {
        self.read_sections.incr(stripe);
    }

    /// Records one completed `synchronize_rcu` and its latency.
    #[inline]
    pub(crate) fn record_synchronize(&self, stripe: usize, elapsed_ns: u64) {
        self.synchronize_calls.incr(stripe);
        self.synchronize_ns.record(elapsed_ns);
    }

    /// Records one grace-period stall reported by the watchdog.
    #[inline]
    pub(crate) fn record_synchronize_stall(&self, stripe: usize) {
        self.synchronize_stalls.incr(stripe);
    }

    /// Records how many reader slots one `synchronize_rcu` examined.
    #[inline]
    pub(crate) fn record_scan_slots(&self, slots: u64) {
        self.synchronize_scan_slots.record(slots);
    }

    /// Total outermost read-side critical sections entered
    /// (`0` with stats off).
    #[must_use]
    pub fn read_sections(&self) -> u64 {
        self.read_sections.get()
    }

    /// Total `synchronize_rcu` calls completed (`0` with stats off).
    #[must_use]
    pub fn synchronize_calls(&self) -> u64 {
        self.synchronize_calls.get()
    }

    /// Total grace-period stalls reported by the watchdog (`0` with stats
    /// off; the flavor's `stall_events()` counts unconditionally).
    #[must_use]
    pub fn synchronize_stalls(&self) -> u64 {
        self.synchronize_stalls.get()
    }

    /// Snapshot of the `synchronize_rcu` latency distribution, in
    /// nanoseconds (empty with stats off).
    #[must_use]
    pub fn synchronize_latency(&self) -> citrus_obs::HistogramSnapshot {
        self.synchronize_ns.snapshot()
    }

    /// Snapshot of the scan-length distribution: reader slots examined per
    /// `synchronize_rcu` (empty with stats off).
    #[must_use]
    pub fn scan_length(&self) -> citrus_obs::HistogramSnapshot {
        self.synchronize_scan_slots.snapshot()
    }

    /// Registers this domain's instruments under `component` (shared
    /// handles: later events show up in registry snapshots).
    pub fn register_into(&self, registry: &MetricsRegistry, component: &str) {
        registry.register_counter(component, "read_sections", &self.read_sections);
        registry.register_counter(component, "synchronize_calls", &self.synchronize_calls);
        registry.register_histogram(component, "synchronize_ns", &self.synchronize_ns);
        registry.register_counter(component, "synchronize_stalls", &self.synchronize_stalls);
        registry.register_histogram(
            component,
            "synchronize_scan_slots",
            &self.synchronize_scan_slots,
        );
    }
}
