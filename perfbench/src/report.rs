//! The metrics a run may print, the result line, and the correctness
//! checks whose failure makes a run fail.
//!
//! The metric lists here are the benchmark's contract: `BENCHMARK.json`
//! at the repository root lists the same names (a self-test keeps the two
//! equal), a run prints exactly one of the two lists, and a name outside
//! them is rejected.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which metric list a run prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the end-to-end metrics, tracing off.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics from the traced run.
    Traced,
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher as H, Lower as L};

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s", H),
    m("p50_us", "us", L),
    m("setup_s", "s", L),
    m("peak_rss_mb", "MB", L),
];

/// Per-layer metrics, printed by every workload's traced run. A metric of
/// a layer the workload does not exercise reads 0 (see the README).
pub const PER_LAYER: &[MetricDef] = &[
    m("p99_us", "us", L),
    m("gen.late_p50_us", "us", L),
    m("gen.late_max_us", "us", L),
    m("gen.poll_gap_p99_us", "us", L),
    m("serve.submit_ns.p50", "ns", L),
    m("serve.reject_ratio", "ratio", L),
    m("serve.batch_mean", "count", H),
    m("serve.hot_queue_depth.p50", "count", L),
    m("serve.hot_queue_depth.max", "count", L),
    m("serve.hot_shard_share", "ratio", L),
    m("serve.self_us.p50", "us", L),
    m("serve.backlog_growth_per_s", "count/s", L),
    m("forest.route_ns", "ns", L),
    m("forest.get_ns.p50", "ns", L),
    m("forest.get_ns.p99", "ns", L),
    m("forest.insert_ns.p50", "ns", L),
    m("forest.insert_ns.p99", "ns", L),
    m("forest.remove_ns.p50", "ns", L),
    m("forest.remove_ns.p99", "ns", L),
    m("forest.scan_ns.p50", "ns", L),
    m("forest.scan_ns.p99", "ns", L),
    m("forest.self_ns.get", "ns", L),
    m("forest.self_ns.insert", "ns", L),
    m("forest.self_ns.remove", "ns", L),
    m("forest.self_ns.scan", "ns", L),
    m("forest.fanout_mean", "count", L),
    m("forest.scan_restart_ratio", "ratio", L),
    m("forest.shard_imbalance", "ratio", L),
    m("tree.get_ns.p50", "ns", L),
    m("tree.get_ns.p99", "ns", L),
    m("tree.insert_ns.p50", "ns", L),
    m("tree.insert_ns.p99", "ns", L),
    m("tree.remove_ns.p50", "ns", L),
    m("tree.remove_ns.p99", "ns", L),
    m("tree.scan_ns.p50", "ns", L),
    m("tree.scan_ns.p99", "ns", L),
    m("tree.insert_retry_ratio", "ratio", L),
    m("tree.remove_retry_ratio", "ratio", L),
    m("tree.locks_per_update", "count", L),
    m("rcu.sync_per_kop", "count/kop", L),
    m("rcu.gp_per_kop", "count/kop", L),
    m("rcu.piggyback_ratio", "ratio", H),
    m("rcu.synchronize_us.p50", "us", L),
    m("rcu.synchronize_us.p99", "us", L),
    m("reclaim.freed_per_kop", "count/kop", H),
    m("reclaim.unfreed_at_end", "count", L),
    m("reclaim.deferred_unlinks", "count", L),
    m("trace.ops_per_s", "1/s", H),
    m("trace.overhead_ratio", "ratio", H),
];

impl Mode {
    /// The metrics this mode prints.
    #[must_use]
    pub fn metrics(self) -> &'static [MetricDef] {
        match self {
            Mode::EndToEnd => END_TO_END,
            Mode::Traced => PER_LAYER,
        }
    }
}

/// A run's outcome: metric values, operation counts, and the correctness
/// checks that failed.
#[derive(Debug)]
pub struct Report {
    mode: Mode,
    values: BTreeMap<&'static str, f64>,
    /// Operations (or requests) the run attempted.
    pub attempted: u64,
    /// Attempted operations that failed: rejected, unanswered, or refused.
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// An empty report for `mode`.
    #[must_use]
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Errors
    ///
    /// A name this mode does not declare, or a value that is not finite.
    pub fn set(&mut self, name: &str, value: f64) -> Result<(), String> {
        let def = self
            .mode
            .metrics()
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("unknown metric {name:?} for {:?}", self.mode))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        self.values.insert(def.name, value);
        Ok(())
    }

    /// The value recorded under `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records the outcome of one correctness check.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.problems.push(format!("{what}: {e}"));
        }
    }

    /// Correctness failures so far.
    #[must_use]
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// `true` when no correctness check failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line.
    ///
    /// # Errors
    ///
    /// A declared metric was never recorded, or nothing was attempted.
    pub fn to_json(&self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("the run attempted no operations".into());
        }
        let mut metrics = String::new();
        for (i, def) in self.mode.metrics().iter().enumerate() {
            let v = self
                .values
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
            .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

/// Conservation of keys: a map prefilled with `prefilled` keys that saw
/// `inserted` successful inserts and `removed` successful removes must
/// hold exactly `prefilled + inserted - removed` keys.
///
/// # Errors
///
/// The counts do not balance.
pub fn check_conservation(
    prefilled: u64,
    inserted: u64,
    removed: u64,
    len: u64,
) -> Result<(), String> {
    let expected = (prefilled + inserted).checked_sub(removed);
    if expected == Some(len) {
        Ok(())
    } else {
        Err(format!(
            "prefill {prefilled} + inserted {inserted} - removed {removed} != len {len}"
        ))
    }
}
