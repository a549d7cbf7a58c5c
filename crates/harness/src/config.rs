//! Environment-driven scaling of the benchmark suite.

use crate::keydist::KeyDist;
use std::time::Duration;

/// Global benchmark parameters.
///
/// Defaults are scaled down so the whole suite completes in minutes on a
/// small machine; `CITRUS_PAPER=1` restores the paper's setup (5-second
/// runs, five repetitions, threads 1–64, key ranges 2·10⁵ and 2·10⁶).
///
/// | variable | meaning | default | paper |
/// |---|---|---|---|
/// | `CITRUS_PAPER` | use the paper's full parameters | unset | — |
/// | `CITRUS_DURATION_MS` | per-point run duration | 200 | 5000 |
/// | `CITRUS_REPS` | repetitions averaged per point | 1 | 5 |
/// | `CITRUS_THREADS` | comma-separated thread counts | `1,2,4,8` | `1,4,16,64` |
/// | `CITRUS_RANGE_SMALL` | small key range | 20000 | 200000 |
/// | `CITRUS_RANGE_LARGE` | large key range | 200000 | 2000000 |
/// | `CITRUS_SHARDS` | comma-separated forest shard counts | `1,2,4,8` | — |
/// | `CITRUS_METRICS` | attach internal-metrics sections to reports | unset | — |
/// | `CITRUS_KEY_DIST` | key distribution for timed workload draws (`uniform`/`zipf:<theta>`); prefill stays uniform | `uniform` | — |
///
/// Metric collection also requires the `stats` feature (on by default in
/// `citrus-bench`); without it the metrics sections are empty.
///
/// Malformed values are hard errors: `CITRUS_DURATION_MS=20O` aborts the
/// run instead of silently benchmarking the default and publishing
/// numbers for a configuration nobody asked for.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Per-point run duration.
    pub duration: Duration,
    /// Repetitions averaged per point.
    pub reps: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// The paper's `[0, 2·10⁵]` range (possibly scaled down).
    pub range_small: u64,
    /// The paper's `[0, 2·10⁶]` range (possibly scaled down).
    pub range_large: u64,
    /// Forest shard counts to sweep (`CitrusForest`); each is rounded up
    /// to a power of two by the forest constructor.
    pub shards: Vec<usize>,
    /// Collect internal metrics (RCU, reclamation, tree counters) during
    /// the highest-thread-count point of each figure panel.
    pub collect_metrics: bool,
    /// Key distribution for timed workload draws.
    pub key_dist: KeyDist,
}

/// Parses one numeric knob value, panicking with the variable name and
/// offending text on anything malformed. A typo like
/// `CITRUS_DURATION_MS=20O` must abort the run, not silently bench the
/// default and report numbers nobody asked for.
fn parse_u64_knob(name: &str, raw: &str) -> u64 {
    match raw.trim().parse() {
        Ok(v) => v,
        Err(e) => panic!("invalid {name}={raw:?}: {e} (expected an unsigned integer)"),
    }
}

/// Parses a comma-separated list of positive counts (thread or shard
/// sweeps). Empty segments from stray commas are ignored; malformed or
/// zero entries and an empty overall list are hard errors.
fn parse_count_list(name: &str, raw: &str) -> Vec<usize> {
    let counts: Vec<usize> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| match s.parse::<usize>() {
            Ok(0) => panic!("invalid {name}={raw:?}: counts must be positive"),
            Ok(n) => n,
            Err(e) => {
                panic!("invalid {name}={raw:?}: {e} (expected comma-separated positive integers)")
            }
        })
        .collect();
    if counts.is_empty() {
        panic!("invalid {name}={raw:?}: expected at least one positive integer");
    }
    counts
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(raw) => parse_u64_knob(name, &raw),
        Err(std::env::VarError::NotPresent) => default,
        Err(e) => panic!("invalid {name}: {e}"),
    }
}

fn env_counts(name: &str, default: &str) -> Vec<usize> {
    let raw = match std::env::var(name) {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => default.to_string(),
        Err(e) => panic!("invalid {name}: {e}"),
    };
    parse_count_list(name, &raw)
}

impl BenchConfig {
    /// Reads the configuration from the environment (see type docs).
    pub fn from_env() -> Self {
        let paper = std::env::var("CITRUS_PAPER").is_ok_and(|v| v != "0" && !v.is_empty());
        let (d_duration, d_reps, d_threads, d_small, d_large) = if paper {
            (5_000, 5, "1,4,16,64", 200_000, 2_000_000)
        } else {
            (200, 1, "1,2,4,8", 20_000, 200_000)
        };
        Self {
            duration: Duration::from_millis(env_u64("CITRUS_DURATION_MS", d_duration)),
            reps: env_u64("CITRUS_REPS", d_reps) as usize,
            threads: env_counts("CITRUS_THREADS", d_threads),
            range_small: env_u64("CITRUS_RANGE_SMALL", d_small),
            range_large: env_u64("CITRUS_RANGE_LARGE", d_large),
            shards: env_counts("CITRUS_SHARDS", "1,2,4,8"),
            collect_metrics: std::env::var("CITRUS_METRICS")
                .is_ok_and(|v| v != "0" && !v.is_empty()),
            key_dist: KeyDist::from_env(),
        }
    }

    /// A minimal configuration for smoke tests.
    pub fn smoke() -> Self {
        Self {
            duration: Duration::from_millis(30),
            reps: 1,
            threads: vec![1, 2],
            range_small: 512,
            range_large: 2_048,
            shards: vec![1, 2],
            collect_metrics: false,
            key_dist: KeyDist::Uniform,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        // NOTE: reads the real environment; only check invariants that
        // hold for any configuration.
        let c = BenchConfig::from_env();
        assert!(!c.threads.is_empty());
        assert!(c.duration > Duration::ZERO);
        assert!(c.range_small <= c.range_large);
    }

    #[test]
    fn smoke_is_small() {
        let c = BenchConfig::smoke();
        assert!(c.duration < Duration::from_millis(100));
        assert_eq!(c.reps, 1);
    }

    #[test]
    fn numeric_knobs_parse_with_whitespace() {
        assert_eq!(parse_u64_knob("CITRUS_REPS", " 5 "), 5);
        assert_eq!(parse_u64_knob("CITRUS_DURATION_MS", "200"), 200);
    }

    #[test]
    #[should_panic(expected = "invalid CITRUS_DURATION_MS=\"20O\"")]
    fn malformed_numeric_knob_is_a_hard_error() {
        parse_u64_knob("CITRUS_DURATION_MS", "20O");
    }

    #[test]
    fn count_lists_tolerate_spacing_and_stray_commas() {
        assert_eq!(
            parse_count_list("CITRUS_THREADS", "1, 2,4 ,8,"),
            [1, 2, 4, 8]
        );
        assert_eq!(parse_count_list("CITRUS_SHARDS", "16"), [16]);
    }

    #[test]
    #[should_panic(expected = "invalid CITRUS_THREADS=\"1,2,four\"")]
    fn malformed_count_entry_is_a_hard_error() {
        parse_count_list("CITRUS_THREADS", "1,2,four");
    }

    #[test]
    #[should_panic(expected = "counts must be positive")]
    fn zero_count_is_a_hard_error() {
        parse_count_list("CITRUS_SHARDS", "4,0");
    }

    #[test]
    #[should_panic(expected = "expected at least one positive integer")]
    fn empty_count_list_is_a_hard_error() {
        parse_count_list("CITRUS_THREADS", " , ,");
    }
}
