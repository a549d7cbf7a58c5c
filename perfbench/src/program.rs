//! The program under test in its one fixed configuration, the environment
//! guard that keeps it fixed, and the checks run on its results.

use citrus::{CitrusForest, ReclaimMode, ScalableRcu};
use citrus_serve::ServeConfig;

use crate::inputs::value_of;

/// The forest every workload measures: `u64 -> u64` over scalable RCU.
pub type Forest = CitrusForest<u64, u64, ScalableRcu>;

/// Shard count (the library default).
pub const SHARDS: usize = 8;
/// Hash-router seed (the library default).
pub const SHARDING_SEED: u64 = 0;

/// Builds the forest: 8 hash-routed shards, epoch-based reclamation, and
/// inline unlinking on two-child deletes. Every argument is explicit so no
/// environment variable can change what is measured.
#[must_use]
pub fn build_forest() -> Forest {
    CitrusForest::with_options(SHARDS, SHARDING_SEED, ReclaimMode::Epoch, false)
}

/// The server configuration: the library default.
#[must_use]
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
}

/// One line naming the configuration, printed by every run.
#[must_use]
pub fn describe() -> String {
    let c = serve_config();
    format!(
        "program: CitrusForest::<u64, u64, ScalableRcu>::with_options({SHARDS}, {SHARDING_SEED}, \
         ReclaimMode::Epoch, false) [hash router, EBR, inline unlink]; citrus-serve \
         ServeConfig::default() [high_water {}, batch_max {}, retry_after {:?}, recycle_ops {}]; \
         stats feature {}",
        c.high_water,
        c.batch_max,
        c.retry_after,
        c.recycle_ops,
        if cfg!(feature = "stats") { "on" } else { "off" },
    )
}

/// Environment variables the library crates read at construction time. A
/// stray one would silently benchmark a different program.
pub const LIBRARY_ENV: &[&str] = &[
    "CITRUS_DEFERRED_FREE",
    "CITRUS_ROUTER",
    "CITRUS_RCU_NO_SHARING",
    "CITRUS_DEFERRED_BATCH",
    "CITRUS_DEFERRED_INTERVAL_US",
];

/// Refuses to run while any `CITRUS_*` variable is set: the ones in
/// [`LIBRARY_ENV`] change the program, and the rest (stall watchdog,
/// chaos, serve knobs) have no business in a benchmark run either.
///
/// # Errors
///
/// Names every offending variable.
pub fn check_env(vars: impl IntoIterator<Item = String>) -> Result<(), String> {
    let mut set: Vec<String> = vars
        .into_iter()
        .filter(|k| k.starts_with("CITRUS_"))
        .collect();
    if set.is_empty() {
        return Ok(());
    }
    set.sort();
    Err(format!(
        "refusing to run with {} set: the benchmark measures one fixed configuration",
        set.join(", ")
    ))
}

/// Inserts `keys` (distinct) with `threads` threads; every insert must
/// succeed.
///
/// # Errors
///
/// Some insert reported the key as already present.
pub fn prefill(forest: &Forest, keys: &[u64], threads: usize) -> Result<(), String> {
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    let refused: usize = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut session = forest.session();
                    part.iter()
                        .filter(|&&k| !session.insert(k, value_of(k)))
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill thread panicked"))
            .sum()
    });
    if refused == 0 {
        Ok(())
    } else {
        Err(format!(
            "{refused} of {} distinct prefill inserts refused",
            keys.len()
        ))
    }
}

/// A `get` result is either absent or the key's fixed value.
#[must_use]
pub fn get_ok(key: u64, got: Option<u64>) -> bool {
    got.is_none_or(|v| v == value_of(key))
}

/// A scan result is strictly ascending, inside `[lo, hi]`, and carries
/// each key's fixed value.
#[must_use]
pub fn scan_ok(lo: u64, hi: u64, entries: &[(u64, u64)]) -> bool {
    entries
        .iter()
        .all(|&(k, v)| k >= lo && k <= hi && v == value_of(k))
        && entries.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Post-run audit of a quiescent forest: key conservation and the
/// structural invariants.
pub fn audit(
    forest: &mut Forest,
    prefilled: u64,
    inserted: u64,
    removed: u64,
    report: &mut crate::report::Report,
) {
    let len = forest.len_quiescent() as u64;
    report.check(
        "conservation",
        crate::report::check_conservation(prefilled, inserted, removed, len),
    );
    report.check(
        "validate_structure",
        forest
            .validate_structure()
            .map(|_| ())
            .map_err(|e| format!("{e:?}")),
    );
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// `(steal, total)` CPU time of the machine so far, in clock ticks, from
/// `/proc/stat`; `None` where that is unavailable.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// One progress line naming the share of CPU time the hypervisor took
/// between two [`cpu_ticks`] readings: host interference that no change to
/// the program can explain.
#[must_use]
pub fn describe_steal(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!(
            "  host steal during the run: {:.1}% of CPU time",
            (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64
        ),
        _ => "  host steal during the run: unknown".to_string(),
    }
}
