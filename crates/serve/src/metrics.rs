//! Server-side instruments: per-op-class latency histograms and the
//! in-flight high-water mark.
//!
//! Everything here is `citrus-obs`-backed and therefore zero-sized (and
//! free) unless the `stats` feature is on. Counters the *tests* assert on
//! (accepted/rejected/acked writes) live as plain atomics on the server
//! itself, so correctness checks never depend on a feature flag.

use citrus_obs::{HighWaterMark, HistogramSnapshot, Log2Histogram, MetricsRegistry};

use crate::server::OpClass;

/// The server's feature-gated instruments. Cloning shares state.
#[derive(Clone, Debug, Default)]
pub struct ServeMetrics {
    /// End-to-end latency (submit to response received) for point reads.
    pub read_ns: Log2Histogram,
    /// End-to-end latency for point writes.
    pub write_ns: Log2Histogram,
    /// End-to-end latency for ordered ops (scans, successor/predecessor).
    pub scan_ns: Log2Histogram,
    /// The most requests ever in flight on one shard, counted at
    /// admission.
    pub in_flight_hwm: HighWaterMark,
}

impl ServeMetrics {
    /// Fresh, empty instruments.
    #[must_use]
    pub fn new() -> Self {
        Self {
            read_ns: Log2Histogram::new(),
            write_ns: Log2Histogram::new(),
            scan_ns: Log2Histogram::new(),
            in_flight_hwm: HighWaterMark::new(),
        }
    }

    /// The latency histogram for one op class.
    #[must_use]
    pub fn latency(&self, class: OpClass) -> &Log2Histogram {
        match class {
            OpClass::Read => &self.read_ns,
            OpClass::Write => &self.write_ns,
            OpClass::Scan => &self.scan_ns,
        }
    }

    /// A point-in-time copy of one class's latency distribution.
    #[must_use]
    pub fn latency_snapshot(&self, class: OpClass) -> HistogramSnapshot {
        self.latency(class).snapshot()
    }

    /// Registers every instrument under `component` (e.g. `"serve"`).
    pub fn register(&self, registry: &MetricsRegistry, component: &str) {
        registry.register_histogram(component, "read_ns", &self.read_ns);
        registry.register_histogram(component, "write_ns", &self.write_ns);
        registry.register_histogram(component, "scan_ns", &self.scan_ns);
        registry.register_hwm(component, "in_flight_hwm", &self.in_flight_hwm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_routes_by_class() {
        let m = ServeMetrics::new();
        m.latency(OpClass::Read).record(10);
        m.latency(OpClass::Write).record(20);
        m.latency(OpClass::Write).record(30);
        m.latency(OpClass::Scan).record(40);
        #[cfg(feature = "stats")]
        {
            assert_eq!(m.latency_snapshot(OpClass::Read).count, 1);
            assert_eq!(m.latency_snapshot(OpClass::Write).count, 2);
            assert_eq!(m.latency_snapshot(OpClass::Scan).count, 1);
        }
        #[cfg(not(feature = "stats"))]
        assert_eq!(m.latency_snapshot(OpClass::Write).count, 0);
    }

    #[test]
    fn register_is_callable_in_both_modes() {
        let m = ServeMetrics::new();
        let reg = MetricsRegistry::new();
        m.register(&reg, "serve");
        let snap = reg.snapshot();
        #[cfg(feature = "stats")]
        assert!(snap.histogram("serve", "read_ns").is_some());
        #[cfg(not(feature = "stats"))]
        assert!(snap.is_empty());
    }
}
