//! Shared plumbing for the figure-regeneration binaries and benches.
//!
//! Each figure of the paper's evaluation has both a binary
//! (`cargo run -p citrus-bench --release --bin fig8`) and a bench target
//! (`cargo bench -p citrus-bench --bench fig8`); both print the same
//! table and write a CSV under `target/experiments/`.
//!
//! Scaling is controlled by the `CITRUS_*` environment variables (see
//! [`citrus_harness::BenchConfig`]); set `CITRUS_PAPER=1` for the paper's
//! full parameters.

#![warn(missing_docs)]

use citrus_harness::{BenchConfig, Report};
use citrus_rcu::{RcuFlavor, RcuHandle};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

pub mod benchjson;

/// Prints a report, writes its CSV, and persists the machine-readable
/// `BENCH_<csv_name>.json` trajectory file, logging the paths.
///
/// If the report carries an internal-metrics snapshot it is printed as an
/// extra section and written alongside as `<csv_name>_metrics.csv`.
pub fn emit(report: &Report, csv_name: &str) {
    println!("{report}");
    match report.write_csv(csv_name) {
        Ok(path) => {
            println!("(csv: {})", path.display());
            if report.metrics.is_some() {
                println!(
                    "(metrics csv: {})",
                    path.with_file_name(format!("{csv_name}_metrics.csv"))
                        .display()
                );
            }
        }
        Err(e) => eprintln!("(csv write failed: {e})"),
    }
    match benchjson::write(csv_name, &report_bench_json(report, csv_name)) {
        Ok(path) => println!("(bench json: {})\n", path.display()),
        Err(e) => eprintln!("(bench json write failed: {e})\n"),
    }
}

/// Renders a [`Report`] as the `BENCH_<name>.json` document: bench name,
/// title, thread sweep, and one ops/s array per series.
pub fn report_bench_json(report: &Report, name: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"bench\": \"{}\",\n  \"title\": \"{}\",\n  \"threads\": [{}],\n  \"series\": [",
        benchjson::esc(name),
        benchjson::esc(&report.title),
        report
            .threads
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    for (i, series) in report.series.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"label\": \"{}\", \"ops_per_s\": [{}]}}",
            if i == 0 { "" } else { "," },
            benchjson::esc(&series.label),
            series
                .points
                .iter()
                .map(|&p| benchjson::num(p))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// One cell of the multi-synchronizer storm ([`synchronize_storm`]).
#[derive(Debug, Clone, Copy)]
pub struct StormCell {
    /// Concurrent synchronizing threads.
    pub syncers: usize,
    /// Aggregate `synchronize_rcu` completions per second.
    pub per_sec: f64,
    /// Piggybacked returns during the cell (grace-period sharing hits).
    pub piggybacks: u64,
    /// Full grace periods run during the cell.
    pub grace_periods: u64,
}

/// Runs `syncers` threads hammering `synchronize_rcu` on `rcu` for `dur`,
/// with `readers` background readers keeping scans honest; returns the
/// aggregate completion rate plus this cell's piggyback and grace-period
/// deltas. The workhorse behind `rcu_micro`'s storm mode and the D5
/// grace-period-sharing ablation.
pub fn synchronize_storm<F: RcuFlavor>(
    rcu: &F,
    syncers: usize,
    readers: usize,
    dur: Duration,
) -> StormCell {
    let piggybacks_before = rcu.synchronize_piggybacks();
    let grace_periods_before = rcu.grace_periods();
    let done = AtomicUsize::new(0);
    let total = AtomicU64::new(0);
    let barrier = Barrier::new(syncers + readers + 1);
    std::thread::scope(|s| {
        for _ in 0..readers {
            let (rcu, done, barrier) = (rcu, &done, &barrier);
            s.spawn(move || {
                let h = rcu.register();
                barrier.wait();
                while done.load(Ordering::Relaxed) < syncers {
                    let _g = h.read_lock();
                    std::hint::spin_loop();
                }
            });
        }
        for _ in 0..syncers {
            let (rcu, done, total, barrier) = (rcu, &done, &total, &barrier);
            s.spawn(move || {
                let h = rcu.register();
                let mut n = 0u64;
                barrier.wait();
                let start = std::time::Instant::now();
                while start.elapsed() < dur {
                    h.synchronize();
                    n += 1;
                }
                total.fetch_add(n, Ordering::Relaxed);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        barrier.wait();
    });
    StormCell {
        syncers,
        per_sec: total.load(Ordering::Relaxed) as f64 / dur.as_secs_f64(),
        piggybacks: rcu.synchronize_piggybacks() - piggybacks_before,
        grace_periods: rcu.grace_periods() - grace_periods_before,
    }
}

/// One cell of the range-scan storm ([`scan_storm`]).
#[derive(Debug, Clone, Copy)]
pub struct ScanCell {
    /// Concurrent scanning threads.
    pub scanners: usize,
    /// Concurrent insert/remove churn threads.
    pub updaters: usize,
    /// Width of each scanned key range.
    pub span: u64,
    /// Aggregate validated range scans completed per second.
    pub scans_per_s: f64,
    /// Mean entries returned per scan (sanity: scans saw real data).
    pub entries_per_scan: f64,
    /// Traversals thrown away by edge validation across the cell — the
    /// price of linearizable scans under churn.
    pub restarts: u64,
}

/// Runs `scanners` threads doing validated `range_scan`s of width `span`
/// over a Citrus tree of `key_range` keys for `dur`, with `updaters`
/// background threads churning inserts/removes to force validation
/// restarts. Leak mode, matching the paper's methodology, so the cell
/// isolates traversal + validation cost from reclamation.
pub fn scan_storm<F: RcuFlavor>(
    scanners: usize,
    updaters: usize,
    key_range: u64,
    span: u64,
    dur: Duration,
) -> ScanCell {
    use citrus::{CitrusTree, ReclaimMode};
    use citrus_api::testkit::SplitMix64;

    let tree: CitrusTree<u64, u64, F> = CitrusTree::with_reclaim(ReclaimMode::Leak);
    {
        let mut s = tree.session();
        let mut rng = SplitMix64::new(0x5CA4);
        for _ in 0..key_range / 2 {
            let k = rng.below(key_range);
            s.insert(k, k);
        }
    }
    let done = AtomicUsize::new(0);
    let scans = AtomicU64::new(0);
    let entries = AtomicU64::new(0);
    let restarts = AtomicU64::new(0);
    let barrier = Barrier::new(scanners + updaters + 1);
    std::thread::scope(|s| {
        for i in 0..updaters {
            let (tree, done, barrier) = (&tree, &done, &barrier);
            s.spawn(move || {
                let mut sess = tree.session();
                let mut rng = SplitMix64::new(0x0BD_0000 + i as u64);
                barrier.wait();
                while done.load(Ordering::Relaxed) < scanners {
                    let k = rng.below(key_range);
                    if rng.below(2) == 0 {
                        sess.insert(k, k);
                    } else {
                        sess.remove(&k);
                    }
                }
            });
        }
        for i in 0..scanners {
            let (tree, done, scans, entries, restarts, barrier) =
                (&tree, &done, &scans, &entries, &restarts, &barrier);
            s.spawn(move || {
                let mut sess = tree.session();
                let mut rng = SplitMix64::new(0xA5C_0000 + i as u64);
                let mut n = 0u64;
                let mut hits = 0u64;
                barrier.wait();
                let start = std::time::Instant::now();
                while start.elapsed() < dur {
                    let lo = rng.below(key_range.saturating_sub(span).max(1));
                    let found = sess.range_scan(&lo, &(lo + span));
                    hits += found.len() as u64;
                    std::hint::black_box(&found);
                    n += 1;
                }
                scans.fetch_add(n, Ordering::Relaxed);
                entries.fetch_add(hits, Ordering::Relaxed);
                restarts.fetch_add(sess.stats().scan_restarts(), Ordering::Relaxed);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        barrier.wait();
    });
    let total = scans.load(Ordering::Relaxed);
    ScanCell {
        scanners,
        updaters,
        span,
        scans_per_s: total as f64 / dur.as_secs_f64(),
        entries_per_scan: if total == 0 {
            0.0
        } else {
            entries.load(Ordering::Relaxed) as f64 / total as f64
        },
        restarts: restarts.load(Ordering::Relaxed),
    }
}

/// Parses a `--shards` value (comma-separated counts) into the config,
/// aborting with a usage message when empty or malformed.
fn apply_shards(cfg: &mut BenchConfig, value: &str) {
    let shards: Vec<usize> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| match s.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("invalid --shards value `{value}` (expected e.g. `4` or `1,2,4,8`)");
                std::process::exit(2);
            }
        })
        .collect();
    if shards.is_empty() {
        eprintln!("invalid --shards value `{value}` (expected e.g. `4` or `1,2,4,8`)");
        std::process::exit(2);
    }
    cfg.shards = shards;
}

/// Reads the environment configuration and applies CLI flags: `--metrics`
/// turns on internal-metric collection (same as `CITRUS_METRICS=1`), and
/// `--shards N[,M,...]` (or `--shards=N[,M,...]`) overrides the forest
/// shard sweep (same as `CITRUS_SHARDS`). Unknown arguments abort with a
/// usage message.
pub fn config_from_env_and_args() -> BenchConfig {
    let mut cfg = BenchConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" => cfg.collect_metrics = true,
            "--shards" => match args.next() {
                Some(value) => apply_shards(&mut cfg, &value),
                None => {
                    eprintln!("--shards requires a value (e.g. `--shards 4`)");
                    std::process::exit(2);
                }
            },
            other => {
                if let Some(value) = other.strip_prefix("--shards=") {
                    apply_shards(&mut cfg, value);
                } else {
                    eprintln!(
                        "unknown argument `{other}` (supported: --metrics, --shards N[,M,...])"
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    cfg
}

/// Prints the standard header for a figure run.
pub fn banner(what: &str) {
    let cfg = citrus_harness::BenchConfig::from_env();
    println!("=== {what} ===");
    println!(
        "config: duration {:?}/point, {} rep(s), threads {:?}, ranges [0,{}] and [0,{}] \
         (CITRUS_PAPER=1 for the paper's parameters)\n",
        cfg.duration, cfg.reps, cfg.threads, cfg.range_small, cfg.range_large
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchjson::Json;
    use citrus_harness::Series;

    /// The `BENCH_*.json` writer round-trips through the parser: every
    /// field of the report survives serialize → parse structurally intact,
    /// so the figure binaries can't silently emit malformed JSON.
    #[test]
    fn report_bench_json_round_trips_through_the_parser() {
        let report = Report {
            title: "fig\"8\": throughput, range [0,2\u{207b}]".into(),
            threads: vec![1, 2, 4, 8],
            series: vec![
                Series {
                    label: "Citrus (scalable)".into(),
                    points: vec![1.25e6, 2.5e6, 4.75e6, 9.0e6],
                },
                Series {
                    label: "lazy\\skip".into(),
                    points: vec![0.5e6, f64::NAN, 1.5e6, 2.0e6],
                },
            ],
            metrics: None,
        };
        let doc = benchjson::parse(&report_bench_json(&report, "fig8"))
            .expect("writer output must parse");

        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("fig8"));
        assert_eq!(
            doc.get("title").and_then(Json::as_str),
            Some(report.title.as_str()),
            "escaped title must decode back unchanged"
        );
        let threads: Vec<f64> = doc
            .get("threads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|t| t.as_f64().unwrap())
            .collect();
        assert_eq!(threads, vec![1.0, 2.0, 4.0, 8.0]);

        let series = doc.get("series").and_then(Json::as_arr).unwrap();
        assert_eq!(series.len(), report.series.len());
        for (got, want) in series.iter().zip(&report.series) {
            assert_eq!(
                got.get("label").and_then(Json::as_str),
                Some(want.label.as_str())
            );
            let points = got.get("ops_per_s").and_then(Json::as_arr).unwrap();
            assert_eq!(points.len(), want.points.len());
            for (p, &w) in points.iter().zip(&want.points) {
                if w.is_nan() {
                    assert_eq!(p, &Json::Null, "NaN points serialize as null");
                } else {
                    assert_eq!(p.as_f64(), Some(w));
                }
            }
        }
    }
}
