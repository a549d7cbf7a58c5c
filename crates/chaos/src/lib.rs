//! Deterministic schedule perturbation and fault injection for the Citrus
//! reproduction.
//!
//! The paper's correctness argument rests on razor-thin interleavings —
//! validate-after-lock, tag checks on ⊥ children, the `synchronize_rcu` in
//! the delete path. Plain stress tests only probe the schedules the OS
//! happens to produce; this crate widens the race windows on purpose.
//!
//! Instrumented crates call [`point!`] at linearization-sensitive sites
//! and [`should_fail!`] where a forced (correctness-preserving) restart is
//! possible. With the `chaos` cargo feature **off** — the default — every
//! failpoint is an empty `#[inline]` function and [`ChaosGuard`] and
//! [`ChaosHandle`] are zero-sized, mirroring the zero-cost pattern of
//! `citrus-obs`. With it **on**, an installed [`ChaosPlan`] makes each
//! firing roll (from a SplitMix64 stream seeded by the plan seed and the
//! thread's stream id) whether to yield, spin-delay, or force a restart, so
//! any interleaving a sweep finds is replayable from its seed.
//!
//! Only the failpoint [registry](all_points) of site names is
//! process-wide: a plan perturbs only the threads armed with it (see
//! [`ChaosHandle`]), so tests with plans of their own run side by side.
//!
//! Failpoint names follow `component/operation/site`, e.g.
//! `citrus/insert/after-validate` or `rcu-scalable/synchronize/scan-step`.
//!
//! # Example
//!
//! ```
//! use citrus_chaos as chaos;
//!
//! let guard = chaos::install(chaos::ChaosPlan::from_seed(0xC17).traced(true));
//! chaos::set_thread_stream(0);
//! chaos::point("example/op/site");
//! if chaos::should_fail("example/op/force-restart") {
//!     // retry the operation (never taken unless built with `chaos`)
//! }
//! let trace = chaos::take_trace(); // decisions, in firing order
//! assert_eq!(trace.is_empty(), !chaos::chaos_enabled());
//!
//! // A worker rolls against the plan only once armed from its handle.
//! let plan = guard.handle();
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let _armed = plan.arm();
//!         chaos::point("example/worker/site");
//!     });
//! });
//! assert_eq!(guard.worker_rolls() > 0, chaos::chaos_enabled());
//! ```

//! # Deterministic schedules
//!
//! Random plans *sample* interleavings; a [`SchedulePlan`] *enumerates*
//! them. Under [`run_schedule`] every failpoint becomes a cooperative
//! yield point and exactly one of the run's threads runs at a time,
//! driven by an explicit decision sequence whose compact encoding
//! (`CITRUS_SCHEDULE=<string>`) replays one interleaving exactly. Each
//! run has a scheduler of its own, known only to the threads it spawns.
//! The [`Explorer`] DFS-enumerates all schedules of a bounded scenario
//! with memoized prefix pruning and iteratively deepened preemption bounds
//! (context-bounded search). See `DESIGN.md` §6h for the model and its
//! soundness caveats.
//!
//! Sites register themselves via the [`point!`], [`should_fail!`], and
//! [`blocked!`] macros; [`all_points`] lists everything reached so far so
//! sweeps can assert coverage. [`mutant_enabled`]-guarded test-only
//! mutations, named per run on the [`SchedulePlan`], let the suite prove
//! the explorer actually catches bugs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod explore;
mod mutant;
mod plan;
mod point;
mod registry;
mod sched;

pub use explore::{ExploreConfig, ExploreReport, ExploredRun, Explorer, ScheduleFailure};
pub use mutant::mutant_enabled;
pub use plan::ChaosPlan;
pub use point::{
    active_plan_seed, chaos_active, chaos_enabled, install, point, set_thread_stream, should_fail,
    take_trace, ChaosAction, ChaosGuard, ChaosHandle, TraceEntry,
};
pub use registry::{
    all_points, fire_blocked, fire_point, fire_should_fail, PointKind, PointSite, RegisteredPoint,
};
pub use sched::{
    active_schedule, run_schedule, wake_hint, BranchPoint, ScheduleOutcome, SchedulePlan,
    DEFAULT_MAX_STEPS, MAX_SCHED_THREADS,
};

/// One copy-pasteable line reproducing the calling thread's perturbation
/// context: the schedule it runs in if it is scheduled, else the seed of
/// the plan armed on it. `None` when neither applies (or the `chaos`
/// feature is off). Failure reports print this so the schedule context is
/// never lost on an oracle failure.
#[must_use]
pub fn replay_recipe() -> Option<String> {
    if let Some(s) = active_schedule() {
        return Some(format!("CITRUS_SCHEDULE={s}"));
    }
    active_plan_seed().map(|seed| format!("ChaosPlan::from_seed({seed:#x})"))
}
