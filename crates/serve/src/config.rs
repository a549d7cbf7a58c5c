//! Server tuning knobs: the admission bound and the retry-after hint.

use std::time::Duration;

/// Tuning for a [`Server`](crate::Server).
///
/// The defaults are sized for the test and smoke workloads. The library
/// reads no environment: a caller that takes knobs from it builds a
/// config and passes it in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission bound: a shard with this many requests in flight
    /// rejects new ones with [`SubmitError::Rejected`] (`retry-after`)
    /// instead of taking on more. Must be > 0; [`Server::with_config`]
    /// panics otherwise.
    ///
    /// [`SubmitError::Rejected`]: crate::SubmitError::Rejected
    /// [`Server::with_config`]: crate::Server::with_config
    pub high_water: usize,
    /// Unread. Requests once ran in combining passes of at most this many
    /// requests; each now runs on its own client's session. The field
    /// stays so that configs written for that server still build.
    pub batch_max: usize,
    /// The back-off hint returned with a rejection. Honoring it is the
    /// client's job; the blocking session API sleeps this long before
    /// resubmitting.
    pub retry_after: Duration,
    /// Unread. Shards once dropped and reopened their shared executor
    /// session every `recycle_ops` requests; sessions now belong to
    /// clients, which open and drop them. The field stays so that configs
    /// written for that server still build.
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

    /// The same configuration with a different retry-after hint.
    #[must_use]
    pub fn with_retry_after(mut self, retry_after: Duration) -> Self {
        self.retry_after = retry_after;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.high_water > 0);
        assert_eq!(cfg.recycle_ops, 0);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = ServeConfig::default()
            .with_high_water(7)
            .with_retry_after(Duration::from_millis(2));
        assert_eq!(cfg.high_water, 7);
        assert_eq!(cfg.retry_after, Duration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "high_water must be > 0")]
    fn zero_high_water_is_rejected() {
        let _ = ServeConfig::default().with_high_water(0);
    }
}
