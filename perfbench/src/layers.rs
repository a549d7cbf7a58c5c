//! Per-layer measurement from outside the program: timed calls into each
//! layer's public functions, and the counters the layers already export.
//!
//! Calls are timed in the benchmark's own code around
//! `ForestSession` (forest layer), `CitrusSession` on
//! `forest.shard(i).session()` (tree layer), `CitrusForest::shard_for`
//! (routing), and `RcuHandle::synchronize` on a shard's RCU domain (RCU
//! layer). Counters come from `TreeMetrics`, `ForestMetrics`, the RCU
//! domains and the reclamation domains; the stats-gated ones read 0 unless
//! the benchmark is built with `--features stats`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use citrus::{CitrusSession, RcuFlavor, ScalableRcu};
use citrus_obs::MetricsRegistry;
use citrus_rcu::RcuHandle;

use crate::inputs::{value_of, Op, OpKind};
use crate::program::{get_ok, scan_ok, Forest};
use crate::report::Report;
use crate::stats::Summary;

/// Routing is timed over this many consecutive `shard_for` calls (one
/// call is below the clock's useful resolution).
pub const ROUTE_BATCH: usize = 64;
/// A traced thread probes `synchronize` once per this many operations.
pub const SYNC_PROBE_EVERY: u64 = 4096;

/// Cumulative layer counters of one forest.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    sync_calls: u64,
    grace_periods: u64,
    piggybacks: u64,
    freed: u64,
    retired: u64,
    insert_retries: u64,
    remove_retries: u64,
    locks: u64,
    deferred_unlinks: u64,
    routed: Vec<u64>,
    scans: u64,
    scan_restarts: u64,
    fanout_shards: u64,
}

impl Counters {
    /// Reads every counter of `forest` now.
    #[must_use]
    pub fn read(forest: &Forest) -> Self {
        let registry = MetricsRegistry::new();
        forest.register_metrics(&registry);
        let snap = registry.snapshot();
        let n = forest.shard_count();
        let shards = || (0..n).map(|i| forest.shard(i));
        let fm = forest.metrics();
        Self {
            sync_calls: forest.synchronize_calls_per_shard().iter().sum(),
            grace_periods: forest.grace_periods_per_shard().iter().sum(),
            piggybacks: shards().map(|t| t.rcu().synchronize_piggybacks()).sum(),
            freed: forest.reclaimed_count().unwrap_or(0),
            retired: (0..n)
                .filter_map(|i| snap.counter(&format!("shard{i}/reclaim"), "retired"))
                .sum(),
            insert_retries: shards().map(|t| t.metrics().insert_retries()).sum(),
            remove_retries: shards().map(|t| t.metrics().remove_retries()).sum(),
            locks: shards().map(|t| t.metrics().lock_acquisitions()).sum(),
            deferred_unlinks: forest.deferred_unlinks_per_shard().iter().sum(),
            routed: (0..n).map(|i| fm.routed_to(i)).collect(),
            scans: fm.scans(),
            scan_restarts: fm.scan_restarts(),
            fanout_shards: fm.fanout_shards(),
        }
    }
}

/// Operation counts a counter delta is normalized by.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// All operations.
    pub ops: u64,
    /// Insert attempts.
    pub inserts: u64,
    /// Remove attempts.
    pub removes: u64,
    /// `synchronize` probes issued by the benchmark itself.
    pub sync_probes: u64,
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Records the counter-derived per-layer metrics of the interval
/// `before..after` into `report`.
///
/// # Errors
///
/// A metric name was rejected.
pub fn record_counters(
    before: &Counters,
    after: &Counters,
    counts: OpCounts,
    report: &mut Report,
) -> Result<(), String> {
    let d = |f: fn(&Counters) -> u64| f(after).saturating_sub(f(before));
    let kops = counts.ops as f64 / 1000.0;
    let per_kop = |x: u64| if kops > 0.0 { x as f64 / kops } else { 0.0 };
    let sync_calls = d(|c| c.sync_calls);
    report.set("rcu.sync_per_kop", per_kop(sync_calls))?;
    report.set("rcu.gp_per_kop", per_kop(d(|c| c.grace_periods)))?;
    report.set(
        "rcu.piggyback_ratio",
        ratio(d(|c| c.piggybacks), sync_calls + counts.sync_probes),
    )?;
    report.set("reclaim.freed_per_kop", per_kop(d(|c| c.freed)))?;
    report.set(
        "reclaim.unfreed_at_end",
        after.retired.saturating_sub(after.freed) as f64,
    )?;
    report.set("reclaim.deferred_unlinks", d(|c| c.deferred_unlinks) as f64)?;
    report.set(
        "tree.insert_retry_ratio",
        ratio(d(|c| c.insert_retries), counts.inserts),
    )?;
    report.set(
        "tree.remove_retry_ratio",
        ratio(d(|c| c.remove_retries), counts.removes),
    )?;
    report.set(
        "tree.locks_per_update",
        ratio(d(|c| c.locks), counts.inserts + counts.removes),
    )?;
    let scans = d(|c| c.scans);
    report.set("forest.fanout_mean", ratio(d(|c| c.fanout_shards), scans))?;
    report.set(
        "forest.scan_restart_ratio",
        ratio(d(|c| c.scan_restarts), scans),
    )?;
    let routed: Vec<u64> = after
        .routed
        .iter()
        .zip(before.routed.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = routed.iter().sum();
    let max = routed.iter().copied().max().unwrap_or(0);
    let imbalance = if total == 0 {
        0.0
    } else {
        max as f64 * routed.len() as f64 / total as f64
    };
    report.set("forest.shard_imbalance", imbalance)?;
    Ok(())
}

/// Timed samples from one traced load thread.
#[derive(Debug, Default)]
pub struct CallSamples {
    /// Per-kind `ForestSession` call times, ns.
    pub forest: [Vec<u64>; 4],
    /// Per-kind `CitrusSession` call times on the key's shard, ns (scan:
    /// all shards one after another).
    pub tree: [Vec<u64>; 4],
    /// Time of [`ROUTE_BATCH`] `shard_for` calls, ns.
    pub route: Vec<u64>,
    /// `synchronize` probe times, ns.
    pub sync: Vec<u64>,
    /// Operation counts.
    pub counts: OpCounts,
    /// Successful inserts.
    pub inserted: u64,
    /// Successful removes.
    pub removed: u64,
    /// Results that failed their check.
    pub bad: u64,
}

impl CallSamples {
    /// Appends `other`'s samples and counts.
    pub fn merge(&mut self, other: CallSamples) {
        for (a, b) in self.forest.iter_mut().zip(other.forest) {
            a.extend(b);
        }
        for (a, b) in self.tree.iter_mut().zip(other.tree) {
            a.extend(b);
        }
        self.route.extend(other.route);
        self.sync.extend(other.sync);
        self.counts.ops += other.counts.ops;
        self.counts.inserts += other.counts.inserts;
        self.counts.removes += other.counts.removes;
        self.counts.sync_probes += other.counts.sync_probes;
        self.inserted += other.inserted;
        self.removed += other.removed;
        self.bad += other.bad;
    }

    /// Records the call-timing per-layer metrics into `report` and prints
    /// each distribution with its sample count.
    ///
    /// # Errors
    ///
    /// A metric name was rejected.
    pub fn record(&mut self, report: &mut Report) -> Result<(), String> {
        let mut p50 = |v: &mut Vec<u64>, name: &str| -> Result<Option<u64>, String> {
            let s = Summary::of(v);
            if let Some(s) = &s {
                println!("  {name}: {}", s.describe(1.0, "ns"));
            }
            report.set(&format!("{name}.p50"), s.map_or(0.0, |s| s.p50 as f64))?;
            report.set(&format!("{name}.p99"), s.map_or(0.0, |s| s.p99 as f64))?;
            Ok(s.map(|s| s.p50))
        };
        let mut self_ns = Vec::new();
        for kind in OpKind::ALL {
            let i = kind.index();
            let f = p50(&mut self.forest[i], &format!("forest.{}_ns", kind.label()))?;
            let t = p50(&mut self.tree[i], &format!("tree.{}_ns", kind.label()))?;
            let own = match (f, t) {
                (Some(f), Some(t)) => f as f64 - t as f64,
                _ => 0.0,
            };
            self_ns.push((kind, own));
        }
        for (kind, own) in self_ns {
            report.set(&format!("forest.self_ns.{}", kind.label()), own)?;
        }
        let route = Summary::of(&mut self.route);
        report.set(
            "forest.route_ns",
            route.map_or(0.0, |s| s.p50 as f64 / ROUTE_BATCH as f64),
        )?;
        let sync = Summary::of(&mut self.sync);
        if let Some(s) = &sync {
            println!("  rcu.synchronize probe: {}", s.describe(1000.0, "us"));
        }
        report.set(
            "rcu.synchronize_us.p50",
            sync.map_or(0.0, |s| s.p50 as f64 / 1000.0),
        )?;
        report.set(
            "rcu.synchronize_us.p99",
            sync.map_or(0.0, |s| s.p99 as f64 / 1000.0),
        )?;
        Ok(())
    }

    /// Percentile `p` of the forest-path call times over all kinds, ns.
    #[must_use]
    pub fn forest_all(&self, p: f64) -> Option<u64> {
        let mut all: Vec<u64> = self.forest.iter().flatten().copied().collect();
        all.sort_unstable();
        (!all.is_empty()).then(|| crate::stats::percentile(&all, p))
    }
}

/// Runs `stream` (cycled) until `stop` is set or `limit` operations are
/// done, timing every call. Even-indexed operations go through a
/// `ForestSession`, odd-indexed ones through a `CitrusSession` on the
/// key's shard, so the two layers see the same mix and their difference
/// is the forest's own time.
#[must_use]
pub fn traced_worker(
    forest: &Forest,
    stream: &[Op],
    span: u64,
    stop: &AtomicBool,
    limit: Option<u64>,
) -> CallSamples {
    let n = forest.shard_count();
    let mut fs = forest.session();
    let mut trees: Vec<CitrusSession<'_, u64, u64, ScalableRcu>> =
        (0..n).map(|i| forest.shard(i).session()).collect();
    let probes: Vec<_> = (0..n).map(|i| forest.shard(i).rcu().register()).collect();
    let mut out = CallSamples::default();
    let mut i: u64 = 0;
    loop {
        if limit.is_some_and(|l| i >= l) || (i.is_multiple_of(256) && stop.load(Ordering::Relaxed))
        {
            break;
        }
        let op = stream[i as usize % stream.len()];
        let (k, hi) = (op.key, op.key + span.saturating_sub(1));
        let kind = op.kind.index();
        let ok = if i.is_multiple_of(2) {
            let t = Instant::now();
            let ok = match op.kind {
                OpKind::Get => get_ok(k, fs.get(&k)),
                OpKind::Insert => tally(&mut out.inserted, fs.insert(k, value_of(k))),
                OpKind::Remove => tally(&mut out.removed, fs.remove(&k)),
                OpKind::Scan => {
                    let v = fs.range_scan(&k, &hi);
                    let dt = t.elapsed().as_nanos() as u64;
                    out.forest[kind].push(dt);
                    scan_ok(k, hi, &v)
                }
            };
            if op.kind != OpKind::Scan {
                out.forest[kind].push(t.elapsed().as_nanos() as u64);
            }
            ok
        } else {
            let shard = forest.shard_for(&k);
            let s = &mut trees[shard];
            let t = Instant::now();
            let ok = match op.kind {
                OpKind::Get => get_ok(k, s.get(&k)),
                OpKind::Insert => tally(&mut out.inserted, s.insert(k, value_of(k))),
                OpKind::Remove => tally(&mut out.removed, s.remove(&k)),
                OpKind::Scan => {
                    let parts: Vec<Vec<(u64, u64)>> =
                        trees.iter_mut().map(|s| s.range_scan(&k, &hi)).collect();
                    let dt = t.elapsed().as_nanos() as u64;
                    out.tree[kind].push(dt);
                    parts.iter().all(|p| scan_ok(k, hi, p))
                }
            };
            if op.kind != OpKind::Scan {
                out.tree[kind].push(t.elapsed().as_nanos() as u64);
            }
            ok
        };
        out.bad += u64::from(!ok);
        match op.kind {
            OpKind::Insert => out.counts.inserts += 1,
            OpKind::Remove => out.counts.removes += 1,
            _ => {}
        }
        if i.is_multiple_of(ROUTE_BATCH as u64) {
            let t = Instant::now();
            let mut acc = 0usize;
            for j in 0..ROUTE_BATCH {
                acc += forest.shard_for(&black_box(stream[(i as usize + j) % stream.len()].key));
            }
            black_box(acc);
            out.route.push(t.elapsed().as_nanos() as u64);
        }
        if i % SYNC_PROBE_EVERY == SYNC_PROBE_EVERY - 1 {
            let probe = &probes[(i / SYNC_PROBE_EVERY) as usize % n];
            let t = Instant::now();
            probe.synchronize();
            out.sync.push(t.elapsed().as_nanos() as u64);
            out.counts.sync_probes += 1;
        }
        i += 1;
    }
    out.counts.ops = i;
    out
}

/// Adds a successful update to `count`; every outcome is a valid result.
fn tally(count: &mut u64, success: bool) -> bool {
    *count += u64::from(success);
    true
}
