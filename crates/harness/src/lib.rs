//! Benchmark harness reproducing the Citrus paper's evaluation
//! methodology (§5 "Setup"):
//!
//! * Key ranges `[0, 2·10⁵]` and `[0, 2·10⁶]`, tree **pre-filled to half
//!   the key range**.
//! * Each thread continuously executes randomly chosen operations on
//!   randomly chosen keys for a fixed duration; the metric is overall
//!   throughput (operations / second).
//! * Each configuration is run several times; the arithmetic average is
//!   reported.
//! * No memory reclamation during timed runs (structures use graveyard /
//!   leak-mode reclamation).
//!
//! The [`experiments`] module defines the paper's three experimental
//! figures; the `citrus-bench` crate's binaries print them.
//!
//! Scaling knobs (environment variables) let the full suite run on small
//! machines; `CITRUS_PAPER=1` restores the paper's parameters
//! (5 s × 5 repetitions, threads 1–64, full key ranges).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod experiments;
pub mod keydist;
pub mod report;
pub mod runner;
pub mod workload;

pub use config::BenchConfig;
pub use experiments::{ForestCell, ForestScanCell};
pub use keydist::{KeyDist, KeySampler};
pub use report::{Report, Series};
pub use runner::{
    run_algo, run_algo_observed, run_forest_observed, run_recorded, run_throughput, ForestRun,
    RunResult,
};
pub use workload::{Algo, OpMix, WorkloadSpec};
