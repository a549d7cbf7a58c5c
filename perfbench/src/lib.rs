//! Benchmark of record for the Citrus workspace.
//!
//! Three workloads, each loading some layers heavily and leaving others
//! almost idle (see `README.md` in this directory for the layer → metric →
//! workload map):
//!
//! * `point-update-20k` and `read-scan-2m`: closed-loop load on a
//!   `CitrusForest` used directly ([`forest`]);
//! * `serve-session-zipf.r25k`: open-loop load on `citrus-serve` at a
//!   fixed offered rate ([`serve`]).
//!
//! A run prints progress lines and, last, one JSON result line holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the traced
//! run (`--trace 1`).

pub mod forest;
pub mod inputs;
pub mod layers;
pub mod program;
pub mod report;
pub mod serve;
pub mod stats;

use forest::ForestSpec;
use report::{Mode, Report};
use serve::ServeSpec;

/// A workload the benchmark knows.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// Closed-loop forest load.
    Forest(ForestSpec),
    /// Open-loop server load.
    Serve(ServeSpec),
}

/// Every workload, by name.
pub const WORKLOADS: [Workload; 3] = [
    Workload::Forest(forest::POINT_UPDATE),
    Workload::Forest(forest::READ_SCAN),
    Workload::Serve(serve::R25K),
];

impl Workload {
    /// The workload's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Forest(f) => f.name,
            Workload::Serve(s) => s.name,
        }
    }

    /// Looks a workload up by name.
    ///
    /// # Errors
    ///
    /// The name is not one of [`WORKLOADS`].
    pub fn by_name(name: &str) -> Result<Self, String> {
        WORKLOADS
            .iter()
            .copied()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<_> = WORKLOADS.iter().map(Workload::name).collect();
                format!("unknown workload {name:?} (known: {})", known.join(", "))
            })
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// End-to-end or traced.
    pub mode: Mode,
    /// Set-ups per run (`None`: the workload's default).
    pub setups: Option<usize>,
    /// Untraced throughput to compare a traced run against.
    pub untraced_ops_per_s: f64,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--setups N]
/// [--untraced-ops-per-s X]`.
///
/// # Errors
///
/// A flag is unknown, missing, repeated without a value, or malformed.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut setups, mut untraced) = (None, 0.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Traced,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            "--setups" => {
                let n: usize = value.parse().map_err(|e| bad(&e))?;
                if n == 0 || n > 100 {
                    return Err(bad(&"expected 1..=100"));
                }
                setups = Some(n);
            }
            "--untraced-ops-per-s" => untraced = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode: trace.ok_or("--trace is required")?,
        setups,
        untraced_ops_per_s: untraced,
    })
}

/// Load threads: at most two, and no more than the machine has CPUs.
#[must_use]
pub fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failed or a metric could not be recorded.
pub fn run(args: &Args) -> Result<Report, String> {
    let threads = load_threads();
    match &args.workload {
        Workload::Forest(spec) => match args.mode {
            Mode::EndToEnd => forest::run_plain(
                spec,
                args.seed,
                args.seconds,
                threads,
                args.setups.unwrap_or(spec.setups),
            ),
            Mode::Traced => forest::run_traced(
                spec,
                args.seed,
                args.seconds,
                threads,
                args.untraced_ops_per_s,
            ),
        },
        Workload::Serve(spec) => serve::run(
            spec,
            args.seed,
            args.seconds,
            threads,
            args.mode,
            args.setups,
            args.untraced_ops_per_s,
        ),
    }
}
