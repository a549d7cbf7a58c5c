//! The paper's three experimental figures, as runnable experiment
//! definitions. Each function sweeps the configured thread counts and
//! returns one [`Report`] per figure panel.

//! With [`BenchConfig::collect_metrics`] set (env `CITRUS_METRICS=1`, or
//! `--metrics` on the `citrus-bench` binaries), each panel additionally
//! snapshots the Citrus-internal metrics — RCU read sections and
//! `synchronize_rcu` latency, reclamation limbo depth, tree lock/retry
//! counters — of the highest-thread-count point, attached as
//! [`Report::metrics`].

use crate::config::BenchConfig;
use crate::report::Report;
use crate::runner::{run_algo_observed, run_forest_observed, ForestRun};
use crate::workload::{Algo, OpMix, WorkloadSpec};
use citrus::{GlobalLockRcu, RcuFlavor, ReclaimMode, ScalableRcu};
use citrus_obs::MetricsRegistry;

/// Builds the per-point observer: metrics are collected only at the
/// panel's maximum thread count (the most contended, most informative
/// point), each algorithm prefixed `"<label>@<t>t/"`.
fn observer_for(
    registry: Option<&MetricsRegistry>,
    algo: Algo,
    t: usize,
    observe_at: usize,
) -> Option<(&MetricsRegistry, String)> {
    registry
        .filter(|_| t == observe_at)
        .map(|r| (r, format!("{}@{t}t/", algo.label())))
}

/// Figure 8 — impact of concurrent updates on the RCU implementation:
/// Citrus over the standard (global-lock) RCU vs. over the paper's
/// scalable RCU; 50% contains, small key range.
///
/// Expected shape: the standard-RCU line collapses as threads (and thus
/// concurrent `synchronize_rcu` calls) grow; the scalable line does not.
pub fn fig8(cfg: &BenchConfig) -> Report {
    let mix = OpMix::with_contains(50);
    let mut report = Report::new(
        format!(
            "Fig. 8 — Citrus: standard vs scalable RCU (50% contains, range [0,{}])",
            cfg.range_small
        ),
        cfg.threads.clone(),
    );
    let registry = cfg.collect_metrics.then(MetricsRegistry::new);
    let observe_at = cfg.threads.iter().copied().max().unwrap_or(0);
    for algo in [Algo::CitrusStdRcu, Algo::Citrus] {
        let points = cfg
            .threads
            .iter()
            .map(|&t| {
                let spec = WorkloadSpec::new(cfg.range_small, mix, t, cfg.duration);
                let observer = observer_for(registry.as_ref(), algo, t, observe_at);
                run_algo_observed(
                    algo,
                    &spec,
                    cfg.reps,
                    0x816,
                    observer.as_ref().map(|(r, p)| (*r, p.as_str())),
                )
            })
            .collect();
        report.push(algo.label(), points);
    }
    // Third series: the sharded forest over the scalable flavor at the
    // configured maximum shard count, same workload — shows what breaking
    // grace-period serialization buys on top of the scalable RCU.
    let forest_shards = cfg
        .shards
        .iter()
        .copied()
        .max()
        .unwrap_or(1)
        .next_power_of_two();
    let forest_points = cfg
        .threads
        .iter()
        .map(|&t| {
            let spec = WorkloadSpec::new(cfg.range_small, mix, t, cfg.duration)
                .with_key_dist(cfg.key_dist);
            run_forest_observed::<ScalableRcu>(
                forest_shards,
                ReclaimMode::Leak,
                &spec,
                cfg.reps,
                0x816,
                None,
            )
            .ops_per_s
        })
        .collect();
    report.push(
        format!("Citrus forest ({forest_shards} shards)"),
        forest_points,
    );
    report.metrics = registry.map(|r| r.snapshot());
    report
}

/// One cell of the [`forest_sweep`] grid: one `(flavor, shard count,
/// operation mix, reclamation mode)` combination at the configured
/// maximum thread count.
#[derive(Debug, Clone)]
pub struct ForestCell {
    /// RCU flavor name (`RcuFlavor::NAME`).
    pub flavor: &'static str,
    /// Shard count (power of two).
    pub shards: usize,
    /// Percentage of `contains` operations (the rest split insert/delete).
    pub contains_pct: u32,
    /// Worker thread count.
    pub threads: usize,
    /// Key distribution label for the timed draws (`KeyDist::label`).
    pub key_dist: String,
    /// The timed run's result, including per-shard counters.
    pub run: ForestRun,
}

/// The forest shard sweep: `shards ∈ cfg.shards × update ratio
/// {50%, 100%} × RCU flavor {scalable, global-lock}`, all at the
/// configured maximum thread count — the experiment behind
/// `BENCH_forest.json`, quantifying the speedup from per-shard
/// grace-period domains.
pub fn forest_sweep(cfg: &BenchConfig) -> Vec<ForestCell> {
    let threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let mut cells = Vec::new();
    for contains_pct in [50u32, 0] {
        let mix = OpMix::with_contains(contains_pct);
        for &shards in &cfg.shards {
            let shards = shards.next_power_of_two();
            let spec = WorkloadSpec::new(cfg.range_small, mix, threads, cfg.duration)
                .with_key_dist(cfg.key_dist);
            for flavor in [ScalableRcu::NAME, GlobalLockRcu::NAME] {
                // Leak mode, matching the paper's no-reclamation
                // methodology (and the fig8 tree series), so the sweep
                // isolates grace-period effects from reclamation cost.
                let run = if flavor == ScalableRcu::NAME {
                    run_forest_observed::<ScalableRcu>(
                        shards,
                        ReclaimMode::Leak,
                        &spec,
                        cfg.reps,
                        0xF04E,
                        None,
                    )
                } else {
                    run_forest_observed::<GlobalLockRcu>(
                        shards,
                        ReclaimMode::Leak,
                        &spec,
                        cfg.reps,
                        0xF04E,
                        None,
                    )
                };
                cells.push(ForestCell {
                    flavor,
                    shards,
                    contains_pct,
                    threads,
                    key_dist: cfg.key_dist.label(),
                    run,
                });
            }
        }
    }
    cells
}

/// One cell of the [`forest_scan_sweep`] grid: full-forest validated
/// range scans racing per-shard update churn at one shard count.
#[derive(Debug, Clone)]
pub struct ForestScanCell {
    /// RCU flavor name (`RcuFlavor::NAME`).
    pub flavor: &'static str,
    /// Shard count (power of two).
    pub shards: usize,
    /// Scanning threads.
    pub scanners: usize,
    /// Churning threads.
    pub updaters: usize,
    /// Width of each scanned key range.
    pub span: u64,
    /// Aggregate whole-forest scans per second.
    pub scans_per_s: f64,
    /// Fan-out restarts (any entered shard's validation failing restarts
    /// the entire fan-out) — `stats` feature only, else 0.
    pub restarts: u64,
}

/// The forest scan sweep: validated `range_scan` throughput over
/// `shards ∈ cfg.shards × span {narrow, full} × flavor {scalable,
/// global-lock}` with half the configured maximum threads scanning and
/// half churning.
///
/// This is the cost model for sharded ordered reads (DESIGN.md §6i):
/// hash routing scatters every span over every shard, so scans/s *falls*
/// as the shard count grows no matter how narrow the span.
pub fn forest_scan_sweep(cfg: &BenchConfig) -> Vec<ForestScanCell> {
    let threads = cfg.threads.iter().copied().max().unwrap_or(2).max(2);
    let scanners = threads / 2;
    let updaters = threads - scanners;
    // A narrow span matches few keys, so its cells show the fan-out's
    // per-shard cost rather than the cost of copying hits.
    let narrow = (cfg.range_small / 64).max(16);
    let mut cells = Vec::new();
    for &shards in &cfg.shards {
        let shards = shards.next_power_of_two();
        for span in [narrow, cfg.range_small] {
            for flavor in [ScalableRcu::NAME, GlobalLockRcu::NAME] {
                let (scans_per_s, restarts) = if flavor == ScalableRcu::NAME {
                    run_forest_scans::<ScalableRcu>(shards, scanners, updaters, span, cfg)
                } else {
                    run_forest_scans::<GlobalLockRcu>(shards, scanners, updaters, span, cfg)
                };
                cells.push(ForestScanCell {
                    flavor,
                    shards,
                    scanners,
                    updaters,
                    span,
                    scans_per_s,
                    restarts,
                });
            }
        }
    }
    cells
}

/// One timed cell of [`forest_scan_sweep`]: returns (scans/s, restarts).
fn run_forest_scans<F: RcuFlavor>(
    shards: usize,
    scanners: usize,
    updaters: usize,
    span: u64,
    cfg: &BenchConfig,
) -> (f64, u64) {
    use citrus::CitrusForest;
    use citrus_api::testkit::SplitMix64;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Barrier;

    let key_range = cfg.range_small;
    let forest: CitrusForest<u64, u64, F> =
        CitrusForest::with_config(shards, 0xF04E, ReclaimMode::Leak);
    {
        let mut s = forest.session();
        let mut rng = SplitMix64::new(0x5CA4);
        for _ in 0..key_range / 2 {
            let k = rng.below(key_range);
            s.insert(k, k);
        }
    }
    let done = AtomicUsize::new(0);
    let scans = AtomicU64::new(0);
    let barrier = Barrier::new(scanners + updaters + 1);
    let dur = cfg.duration;
    std::thread::scope(|s| {
        for i in 0..updaters {
            let (forest, done, barrier) = (&forest, &done, &barrier);
            s.spawn(move || {
                let mut sess = forest.session();
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
            let (forest, done, scans, barrier) = (&forest, &done, &scans, &barrier);
            s.spawn(move || {
                let mut sess = forest.session();
                let mut rng = SplitMix64::new(0xA5C_0000 + i as u64);
                let mut n = 0u64;
                barrier.wait();
                let start = std::time::Instant::now();
                while start.elapsed() < dur {
                    let lo = rng.below(key_range.saturating_sub(span).max(1));
                    let found = sess.range_scan(&lo, &(lo + span));
                    std::hint::black_box(&found);
                    n += 1;
                }
                scans.fetch_add(n, Ordering::Relaxed);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        barrier.wait();
    });
    (
        scans.load(Ordering::Relaxed) as f64 / dur.as_secs_f64(),
        forest.metrics().scan_restarts(),
    )
}

/// Figure 9 — single-writer workload (designed to favor the RCU trees):
/// one thread runs 50% insert / 50% delete, all others 100% contains.
/// Two panels: key ranges small and large.
pub fn fig9(cfg: &BenchConfig) -> Vec<Report> {
    [cfg.range_small, cfg.range_large]
        .into_iter()
        .map(|range| {
            let mut report = Report::new(
                format!("Fig. 9 — single writer, key range [0,{range}]"),
                cfg.threads.clone(),
            );
            let registry = cfg.collect_metrics.then(MetricsRegistry::new);
            let observe_at = cfg.threads.iter().copied().max().unwrap_or(0);
            for algo in Algo::FIGURE_SET {
                let points = cfg
                    .threads
                    .iter()
                    .map(|&t| {
                        let spec = WorkloadSpec::single_writer(range, t, cfg.duration);
                        let observer = observer_for(registry.as_ref(), algo, t, observe_at);
                        run_algo_observed(
                            algo,
                            &spec,
                            cfg.reps,
                            0x916,
                            observer.as_ref().map(|(r, p)| (*r, p.as_str())),
                        )
                    })
                    .collect();
                report.push(algo.label(), points);
            }
            report.metrics = registry.map(|r| r.snapshot());
            report
        })
        .collect()
}

/// Figure 10 — the 2×3 grid: key range {small, large} × contains
/// {100%, 98%, 50%}, all six algorithms.
///
/// Expected shapes: at 100% contains the coarse-grained RCU trees
/// (Red-Black, Bonsai) are competitive; with any update share they stop
/// scaling (global update lock) while Citrus stays with the
/// fine-grained/lock-free dictionaries.
pub fn fig10(cfg: &BenchConfig) -> Vec<Report> {
    let mut reports = Vec::new();
    for range in [cfg.range_small, cfg.range_large] {
        for contains_pct in [100u32, 98, 50] {
            let mix = OpMix::with_contains(contains_pct);
            let mut report = Report::new(
                format!("Fig. 10 — {contains_pct}% contains, key range [0,{range}]"),
                cfg.threads.clone(),
            );
            let registry = cfg.collect_metrics.then(MetricsRegistry::new);
            let observe_at = cfg.threads.iter().copied().max().unwrap_or(0);
            for algo in Algo::FIGURE_SET {
                let points = cfg
                    .threads
                    .iter()
                    .map(|&t| {
                        let spec = WorkloadSpec::new(range, mix, t, cfg.duration);
                        let observer = observer_for(registry.as_ref(), algo, t, observe_at);
                        run_algo_observed(
                            algo,
                            &spec,
                            cfg.reps,
                            0x1016,
                            observer.as_ref().map(|(r, p)| (*r, p.as_str())),
                        )
                    })
                    .collect();
                report.push(algo.label(), points);
            }
            report.metrics = registry.map(|r| r.snapshot());
            reports.push(report);
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_smoke() {
        let cfg = BenchConfig::smoke();
        let r = fig8(&cfg);
        assert_eq!(r.series.len(), 3, "two tree flavors plus the forest");
        assert!(r.series.iter().all(|s| s.points.iter().all(|&p| p > 0.0)));
        assert!(r.series[2].label.contains("forest"));
    }

    #[test]
    fn forest_sweep_smoke() {
        let mut cfg = BenchConfig::smoke();
        cfg.shards = vec![1, 2];
        let cells = forest_sweep(&cfg);
        assert_eq!(cells.len(), 8, "2 mixes × 2 shard counts × 2 flavors");
        for cell in &cells {
            assert!(cell.run.ops_per_s > 0.0);
            assert_eq!(cell.run.grace_periods_per_shard.len(), cell.shards);
            assert_eq!(cell.threads, 2);
            assert_eq!(cell.key_dist, "uniform");
        }
    }

    #[test]
    fn forest_scan_sweep_smoke() {
        let mut cfg = BenchConfig::smoke();
        cfg.shards = vec![1, 2];
        let cells = forest_scan_sweep(&cfg);
        assert_eq!(cells.len(), 8, "2 shard counts × 2 spans × 2 flavors");
        for cell in &cells {
            assert!(
                cell.scans_per_s > 0.0,
                "every cell must complete scans: {cell:?}"
            );
            assert!(cell.scanners >= 1 && cell.updaters >= 1);
            assert!(cell.span >= 16);
        }
        assert_eq!(
            cells.iter().filter(|c| c.span == cfg.range_small).count(),
            4,
            "half the cells scan the full range"
        );
    }

    #[test]
    fn fig9_smoke() {
        let cfg = BenchConfig::smoke();
        let rs = fig9(&cfg);
        assert_eq!(rs.len(), 2);
        for r in rs {
            assert_eq!(r.series.len(), 6);
            assert!(r.series.iter().all(|s| s.points.iter().all(|&p| p > 0.0)));
        }
    }

    #[test]
    fn fig10_smoke() {
        let cfg = BenchConfig::smoke();
        let rs = fig10(&cfg);
        assert_eq!(rs.len(), 6, "2 ranges × 3 mixes");
        for r in rs {
            assert_eq!(r.series.len(), 6);
        }
    }
}
