//! Server tuning knobs: queue depth, combining bound, retry-after, and
//! the session-recycling churn knob.

use std::time::Duration;

/// Tuning for a [`Server`](crate::Server).
///
/// The defaults are sized for the test and smoke workloads. The library
/// reads no environment: binaries that take knobs from it (the
/// `serve_storm` load generator) build a config and pass it in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission high-water mark: a shard queue at or above this depth
    /// rejects new requests with [`SubmitError::Rejected`]
    /// (`retry-after`) instead of growing without bound.
    ///
    /// [`SubmitError::Rejected`]: crate::SubmitError::Rejected
    pub high_water: usize,
    /// The combining bound: the most queued requests from *other*
    /// callers that one executor pass serves before its caller's
    /// `submit` returns. The pass then releases the shard and wakes the
    /// oldest queued request whose holder is blocked in `wait` to take it
    /// over. Larger values amortize
    /// more hand-offs; smaller ones bound how long a combining caller
    /// works for others. The drains of `resume` and `shutdown` are not
    /// bounded.
    pub batch_max: usize,
    /// The back-off hint returned with a rejection. Honoring it is the
    /// client's job; the blocking session API sleeps this long before
    /// resubmitting.
    pub retry_after: Duration,
    /// Executor-session churn: after every `recycle_ops` executed
    /// requests a shard drops its executor's forest session
    /// (deregistering its RCU reader slots and reclamation bags) and
    /// opens a fresh one — mid-pass when this is smaller than the pass.
    /// `0` (the default) never recycles. The churn stress suite uses small values
    /// to hammer the registry paths; production-shaped configs leave it
    /// off.
    pub recycle_ops: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            high_water: 1024,
            batch_max: 64,
            retry_after: Duration::from_micros(100),
            recycle_ops: 0,
        }
    }
}

impl ServeConfig {
    /// The same configuration with a different high-water mark.
    #[must_use]
    pub fn with_high_water(mut self, high_water: usize) -> Self {
        assert!(high_water > 0, "high_water must be > 0");
        self.high_water = high_water;
        self
    }

    /// The same configuration with a different combining bound.
    #[must_use]
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        assert!(batch_max > 0, "batch_max must be > 0");
        self.batch_max = batch_max;
        self
    }

    /// The same configuration with a different retry-after hint.
    #[must_use]
    pub fn with_retry_after(mut self, retry_after: Duration) -> Self {
        self.retry_after = retry_after;
        self
    }

    /// The same configuration recycling executor sessions every
    /// `recycle_ops` executed requests (`0` disables).
    #[must_use]
    pub fn with_recycle_ops(mut self, recycle_ops: u64) -> Self {
        self.recycle_ops = recycle_ops;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.high_water > 0 && cfg.batch_max > 0);
        assert_eq!(cfg.recycle_ops, 0);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = ServeConfig::default()
            .with_high_water(7)
            .with_batch_max(3)
            .with_retry_after(Duration::from_millis(2))
            .with_recycle_ops(5);
        assert_eq!(cfg.high_water, 7);
        assert_eq!(cfg.batch_max, 3);
        assert_eq!(cfg.retry_after, Duration::from_millis(2));
        assert_eq!(cfg.recycle_ops, 5);
    }

    #[test]
    #[should_panic(expected = "high_water must be > 0")]
    fn zero_high_water_is_rejected() {
        let _ = ServeConfig::default().with_high_water(0);
    }
}
