//! Exhaustive bounded-schedule exploration for [`ConcurrentMap`]s.
//!
//! [`testkit`](crate::testkit)'s chaos sweeps *sample* interleavings from
//! seeds; this module *enumerates* them. A [`ScheduleScenario`] scripts a
//! tiny concurrent run (2–3 threads, a handful of operations each, over a
//! sequential prefill), and [`explore_schedules`] drives
//! [`citrus_chaos::Explorer`] over every distinct interleaving of the
//! scenario's named failpoints within a preemption bound, running two
//! oracles against each completed schedule:
//!
//! 1. **Linearizability** — every operation (prefill included, on its own
//!    sequential lane) is recorded through the
//!    [`lincheck`](crate::lincheck) history recorder and the merged
//!    history must pass the WGL checker. For single-key scenarios this is
//!    exactly the "single cell" sequential specification.
//! 2. **Structure validation** — an optional caller-supplied check over
//!    the quiesced map (e.g. `CitrusTree::validate_structure`), via
//!    [`explore_schedules_with`].
//!
//! Any failing schedule is reported with its compact encoding; rerunning
//! the same test with `CITRUS_SCHEDULE=<encoding>` in the environment
//! replays exactly that interleaving (with a step-by-step trace on
//! stderr) instead of sweeping, and a schedule dump is written under
//! `CITRUS_LIN_DUMP_DIR` (default: the OS temp dir), named with the
//! process id and a sequence number so no rerun overwrites it, for CI to
//! archive. Pinned regression tests replay one known-bad-adjacent
//! schedule forever via [`replay_schedule`].
//!
//! A scenario can plant [mutants](citrus_chaos::mutant_enabled)
//! ([`ScheduleScenario::mutant`]) to prove the oracles catch a broken
//! step. They are armed on the scenario's scheduled threads for each run
//! only, so a mutant sweep and a clean sweep can run side by side.
//!
//! Everything here is meaningful only when the `chaos` cargo feature is
//! enabled; without it `run_schedule` degrades to sequential execution
//! and the sweep sees exactly one schedule.
//!
//! ```ignore
//! use citrus_api::testkit::{explore_schedules, ScenarioOp, ScheduleScenario};
//!
//! let scenario = ScheduleScenario::new("delete-two-child-vs-get")
//!     .prefill(&[(20, 1), (10, 2), (30, 3), (25, 4)])
//!     .thread(&[ScenarioOp::Remove(20)])
//!     .thread(&[ScenarioOp::Get(25), ScenarioOp::Get(30)]);
//! let report = explore_schedules(CitrusTree::new, &scenario);
//! report.assert_clean("delete-two-child-vs-get");
//! ```

use crate::lincheck::{check_history, dump_dir, write_dump, History, HistoryRecorder, RecordedOp};
use crate::testkit::{env_knob, note};
use crate::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos::{
    run_schedule, ExploreConfig, ExploreReport, ExploredRun, Explorer, ScheduleFailure,
    SchedulePlan,
};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// The explore tests' bounds: [`ExploreConfig::default`] at
/// `max_preemptions`, with the wall-clock budget in milliseconds that
/// `CITRUS_EXPLORE_BUDGET_MS` sets (unset: unbounded; an exceeded budget
/// marks the report incomplete).
///
/// # Panics
///
/// Panics if the variable is set but malformed.
#[must_use]
pub fn explore_config(max_preemptions: usize) -> ExploreConfig {
    ExploreConfig {
        max_preemptions,
        budget: env_knob("CITRUS_EXPLORE_BUDGET_MS").map(Duration::from_millis),
        ..ExploreConfig::default()
    }
}

/// Notes `plan` as the calling thread's replay recipe for its
/// [`stress_watchdog`](crate::testkit::stress_watchdog).
fn note_schedule(plan: &SchedulePlan) {
    note(|n| n.replay = Some(format!("CITRUS_SCHEDULE={}", plan.encode())));
}

/// One scripted operation of a scenario thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioOp {
    /// `insert(key, value)`.
    Insert(u64, u64),
    /// `remove(key)`.
    Remove(u64),
    /// `get(key)`.
    Get(u64),
    /// `contains(key)`.
    Contains(u64),
    /// `range_scan(lo, hi)` (inclusive bounds).
    Scan(u64, u64),
    /// `successor(key)`.
    Successor(u64),
    /// `predecessor(key)`.
    Predecessor(u64),
}

/// A bounded concurrent scenario: a sequential prefill plus a short
/// scripted operation list per scheduled thread.
///
/// Keep scenarios tiny — 2–3 threads and ≤ 6 operations total. The
/// schedule space grows exponentially with the number of yield points
/// executed, and exhaustiveness (the point of this module) only survives
/// when the explorer can actually reach the bound.
#[derive(Debug, Clone)]
pub struct ScheduleScenario {
    /// Name used in reports, replay recipes, and dump file names.
    pub name: &'static str,
    /// Key/value pairs inserted sequentially before the concurrent part.
    /// Recorded on an extra history lane so the linearizability checker
    /// (which assumes an initially empty map) accounts for them.
    pub prefill: Vec<(u64, u64)>,
    /// Scripted operations, one list per scheduled thread.
    pub threads: Vec<Vec<ScenarioOp>>,
    /// [Mutants](citrus_chaos::mutant_enabled) armed on the scheduled
    /// threads of every run of this scenario: sweeps, replays, the
    /// failure dump's rerun and `CITRUS_SCHEDULE` replays alike.
    pub mutants: Vec<&'static str>,
}

impl ScheduleScenario {
    /// An empty scenario with the given report name.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            prefill: Vec::new(),
            threads: Vec::new(),
            mutants: Vec::new(),
        }
    }

    /// Appends prefill pairs (inserted in order, before the threads run).
    #[must_use]
    pub fn prefill(mut self, pairs: &[(u64, u64)]) -> Self {
        self.prefill.extend_from_slice(pairs);
        self
    }

    /// Appends one scheduled thread running `ops` in order.
    #[must_use]
    pub fn thread(mut self, ops: &[ScenarioOp]) -> Self {
        self.threads.push(ops.to_vec());
        self
    }

    /// Plants the named mutant in every run of the scenario.
    #[must_use]
    pub fn mutant(mut self, name: &'static str) -> Self {
        self.mutants.push(name);
        self
    }
}

/// Runs the scenario once under `plan`, with both oracles.
fn run_one<M, F, V>(
    make: &F,
    scenario: &ScheduleScenario,
    plan: &SchedulePlan,
    validate: &V,
) -> ExploredRun
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
    F: Fn() -> M,
    V: Fn(&mut M) -> Result<(), String>,
{
    note_schedule(plan);
    let mut map = make();
    let nthreads = scenario.threads.len();
    let recorder = HistoryRecorder::new();
    // Prefill before the schedule starts, recorded on lane `nthreads`:
    // its tickets all precede the concurrent ones, so the checker sees a
    // sequential prefix and the "map starts empty" precondition holds.
    let prefill_log = {
        let mut s = recorder.wrap(nthreads, map.session());
        for &(k, v) in &scenario.prefill {
            assert!(
                s.insert(k, v),
                "scenario {}: prefill key {k} already present",
                scenario.name
            );
        }
        s.finish()
    };
    let logs: Mutex<Vec<Vec<RecordedOp>>> = Mutex::new(Vec::new());
    let outcome = {
        let closures: Vec<Box<dyn FnOnce() + Send + '_>> = scenario
            .threads
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let (map, recorder, logs) = (&map, &recorder, &logs);
                Box::new(move || {
                    let mut s = recorder.wrap(t, map.session());
                    for op in ops {
                        match *op {
                            ScenarioOp::Insert(k, v) => {
                                s.insert(k, v);
                            }
                            ScenarioOp::Remove(k) => {
                                s.remove(&k);
                            }
                            ScenarioOp::Get(k) => {
                                s.get(&k);
                            }
                            ScenarioOp::Contains(k) => {
                                s.contains(&k);
                            }
                            ScenarioOp::Scan(lo, hi) => {
                                s.range_scan(&lo, &hi);
                            }
                            ScenarioOp::Successor(k) => {
                                s.successor(&k);
                            }
                            ScenarioOp::Predecessor(k) => {
                                s.predecessor(&k);
                            }
                        }
                    }
                    logs.lock().unwrap().push(s.finish());
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_schedule(&plan.clone().with_mutants(&scenario.mutants), closures)
    };
    let verdict = if outcome.clean() {
        let mut thread_logs = logs
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        thread_logs.push(prefill_log);
        check_history(&History::from_thread_logs(thread_logs))
            .map_err(|cx| format!("non-linearizable history:\n{cx}"))
            .and_then(|()| validate(&mut map))
    } else {
        // The scheduler-level failure (deadlock, panic, step budget) is
        // the finding; logs may be incomplete, so the oracles do not run.
        Ok(())
    };
    ExploredRun { outcome, verdict }
}

/// Exhaustively explores `scenario`'s schedules with the default bounds
/// and the linearizability oracle only.
///
/// Honors `CITRUS_SCHEDULE` (replay one interleaving instead of
/// sweeping) and, through [`explore_config`], `CITRUS_EXPLORE_BUDGET_MS`.
/// Assert on the returned [`ExploreReport`] — at minimum
/// [`ExploreReport::assert_clean`]; coverage-sensitive tests also pin
/// `report.schedules` and check `report.points_hit`.
pub fn explore_schedules<M, F>(make: F, scenario: &ScheduleScenario) -> ExploreReport
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
    F: Fn() -> M,
{
    explore_schedules_with(make, scenario, explore_config(2), |_| Ok(()))
}

/// [`explore_schedules`] with explicit bounds and a structure-validation
/// oracle run against the quiesced map after every clean schedule. A
/// failing sweep writes a schedule dump and names it in
/// [`ExploreReport::dump`].
pub fn explore_schedules_with<M, F, V>(
    make: F,
    scenario: &ScheduleScenario,
    config: ExploreConfig,
    validate: V,
) -> ExploreReport
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
    F: Fn() -> M,
    V: Fn(&mut M) -> Result<(), String>,
{
    assert!(
        !scenario.threads.is_empty(),
        "scenario {} has no threads",
        scenario.name
    );
    let run = |plan: &SchedulePlan| run_one(&make, scenario, plan, &validate);
    if let Ok(encoded) = std::env::var("CITRUS_SCHEDULE") {
        return replay_env(scenario.name, &encoded, config.max_steps, run);
    }
    let mut report = Explorer::new(config).explore(run);
    if let Some(failure) = &report.failure {
        eprintln!(
            "[citrus-explore] scenario {}: {failure}\n  replay: rerun this test with \
             CITRUS_SCHEDULE={}",
            scenario.name, failure.schedule
        );
        report.dump = dump_failure(&make, scenario, failure, &validate);
        if let Some(path) = &report.dump {
            eprintln!("[citrus-explore] schedule dump: {}", path.display());
        }
    }
    report
}

/// Replays one encoded schedule (see [`SchedulePlan::encode`]) and
/// returns the run for the caller to assert on — the building block of
/// pinned schedule regression tests.
///
/// # Panics
///
/// Panics if `encoded` is not a valid schedule encoding.
pub fn replay_schedule<M, F>(make: F, scenario: &ScheduleScenario, encoded: &str) -> ExploredRun
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
    F: Fn() -> M,
{
    replay_schedule_with(make, scenario, encoded, |_| Ok(()))
}

/// [`replay_schedule`] with a structure-validation oracle.
///
/// # Panics
///
/// Panics if `encoded` is not a valid schedule encoding.
pub fn replay_schedule_with<M, F, V>(
    make: F,
    scenario: &ScheduleScenario,
    encoded: &str,
    validate: V,
) -> ExploredRun
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
    F: Fn() -> M,
    V: Fn(&mut M) -> Result<(), String>,
{
    let plan =
        SchedulePlan::decode(encoded).unwrap_or_else(|e| panic!("scenario {}: {e}", scenario.name));
    run_one(&make, scenario, &plan, &validate)
}

/// Explores every schedule of a hand-driven scenario within `config`'s
/// bounds, or, when `CITRUS_SCHEDULE` is set, replays that one schedule
/// with a step trace on stderr. For scenarios the
/// [`ScheduleScenario`] runner cannot express (a structure without
/// ordered reads, say): `run` executes the scenario once under
/// [`run_schedule`] with the given plan and
/// returns its outcome and oracle verdict, as for [`Explorer::explore`].
pub fn explore_or_replay<R>(name: &str, config: ExploreConfig, mut run: R) -> ExploreReport
where
    R: FnMut(&SchedulePlan) -> ExploredRun,
{
    let run = |plan: &SchedulePlan| {
        note_schedule(plan);
        run(plan)
    };
    match std::env::var("CITRUS_SCHEDULE") {
        Ok(encoded) => replay_env(name, &encoded, config.max_steps, run),
        Err(_) => Explorer::new(config).explore(run),
    }
}

/// `CITRUS_SCHEDULE` handling: replay exactly one interleaving with a
/// step trace on stderr, reported as a single-schedule sweep.
fn replay_env(
    name: &str,
    encoded: &str,
    max_steps: usize,
    mut execute: impl FnMut(&SchedulePlan) -> ExploredRun,
) -> ExploreReport {
    let plan = SchedulePlan::decode(encoded)
        .unwrap_or_else(|e| panic!("CITRUS_SCHEDULE: {e}"))
        .with_max_steps(max_steps);
    eprintln!(
        "[citrus-explore] scenario {name}: replaying CITRUS_SCHEDULE={}",
        plan.encode()
    );
    let run = execute(&plan);
    for (step, (thread, point)) in run.outcome.trace.iter().enumerate() {
        eprintln!("  step {step:>3}: thread {thread} @ {point}");
    }
    let mut report = ExploreReport {
        schedules: 1,
        completed: false,
        ..ExploreReport::default()
    };
    report
        .points_hit
        .extend(run.outcome.trace.iter().map(|&(_, p)| p));
    report.deadlocks = usize::from(run.outcome.deadlocked);
    if let Some(reason) = run.outcome.failure_reason().or_else(|| run.verdict.err()) {
        report.failures_seen = 1;
        report.failure = Some(ScheduleFailure {
            schedule: plan.encode(),
            preemptions: run.outcome.preemptions,
            reason,
        });
    }
    report
}

/// Writes a replayable description of a failing schedule (reason, replay
/// recipe, full step trace from a deterministic rerun) as
/// `explore_<scenario>_<schedule>_<pid>_<n>.schedule.txt` under the
/// lincheck dump directory (`CITRUS_LIN_DUMP_DIR`, default the OS temp
/// dir), so a rerun never overwrites earlier evidence and CI can attach
/// it as an artifact. Dump failure never masks the sweep verdict.
fn dump_failure<M, F, V>(
    make: &F,
    scenario: &ScheduleScenario,
    failure: &ScheduleFailure,
    validate: &V,
) -> Option<PathBuf>
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
    F: Fn() -> M,
    V: Fn(&mut M) -> Result<(), String>,
{
    let plan = SchedulePlan::decode(&failure.schedule).ok()?;
    // Schedules are deterministic: rerun the failing one to recover its
    // step-by-step trace for the artifact.
    let rerun = run_one(make, scenario, &plan, validate);
    let mut body = format!(
        "# explore failure: scenario {}, schedule {}, {} preemption(s)\n\
         # reason: {}\n\
         # replay: CITRUS_SCHEDULE={}\n",
        scenario.name, failure.schedule, failure.preemptions, failure.reason, failure.schedule
    );
    for (step, (thread, point)) in rerun.outcome.trace.iter().enumerate() {
        body.push_str(&format!("step {step:>3}: thread {thread} @ {point}\n"));
    }
    let dir = dump_dir();
    let stem = format!(
        "explore_{}_{}",
        scenario.name.replace(['/', ' '], "-"),
        failure.schedule
    );
    match write_dump(&dir, &stem, ".schedule.txt", &body) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!(
                "[citrus-explore] schedule dump under {} failed: {e}",
                dir.display()
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::CoarseMap;

    fn scenario() -> ScheduleScenario {
        ScheduleScenario::new("coarse-smoke")
            .prefill(&[(5, 50)])
            .thread(&[ScenarioOp::Remove(5), ScenarioOp::Get(5)])
            .thread(&[ScenarioOp::Insert(5, 51), ScenarioOp::Contains(5)])
    }

    #[test]
    fn scan_ops_explore_clean_on_the_coarse_map() {
        let s = ScheduleScenario::new("coarse-scan-smoke")
            .prefill(&[(5, 50), (9, 90)])
            .thread(&[ScenarioOp::Remove(5), ScenarioOp::Insert(7, 70)])
            .thread(&[ScenarioOp::Scan(0, 10), ScenarioOp::Successor(5)]);
        let report = explore_schedules(CoarseMap::default, &s);
        report.assert_clean("coarse-scan-smoke");
    }

    #[test]
    fn coarse_map_explores_clean() {
        let report = explore_schedules(CoarseMap::default, &scenario());
        report.assert_clean("coarse-smoke");
        assert!(report.schedules >= 1);
        // Without the chaos feature the sweep degrades to one sequential
        // schedule; with it the coarse map has no failpoints, so the
        // sweep still sees exactly the default schedule.
        assert!(report.completed);
    }

    #[test]
    fn replay_of_default_schedule_is_clean() {
        let run = replay_schedule(CoarseMap::default, &scenario(), "-");
        assert!(run.outcome.clean());
        assert!(run.verdict.is_ok());
    }

    fn reject_all(_: &mut CoarseMap) -> Result<(), String> {
        Err("structure oracle rejects everything".to_string())
    }

    /// Sweeps `scenario` with a structure oracle that rejects every
    /// schedule, deletes the sweep's schedule dump, and returns the
    /// reported failure.
    fn rejected_sweep(scenario: &ScheduleScenario) -> ScheduleFailure {
        let report =
            explore_schedules_with(CoarseMap::default, scenario, explore_config(2), reject_all);
        let dump = report.dump.expect("a failing sweep names its dump");
        std::fs::remove_file(&dump).expect("the named dump exists");
        report.failure.expect("oracle failure must be reported")
    }

    #[test]
    fn structure_oracle_failures_are_findings() {
        let failure = rejected_sweep(&scenario());
        assert!(failure.reason.contains("structure oracle"));
    }

    #[test]
    fn a_failing_sweep_names_its_dump() {
        let s = ScheduleScenario {
            name: "coarse-named-dump",
            ..scenario()
        };
        let report = explore_schedules_with(CoarseMap::default, &s, explore_config(2), reject_all);
        let failure = report.failure.expect("oracle failure must be reported");
        let dump = report.dump.expect("a failing sweep names its dump");
        let body = std::fs::read_to_string(&dump).expect("the named dump exists");
        assert!(body.contains(&format!("CITRUS_SCHEDULE={}", failure.schedule)));
        std::fs::remove_file(dump).unwrap();
    }

    #[test]
    fn a_repeated_failure_dump_does_not_overwrite_the_first() {
        let s = ScheduleScenario {
            name: "coarse-dump",
            ..scenario()
        };
        let failure = rejected_sweep(&s);
        let first =
            dump_failure(&CoarseMap::default, &s, &failure, &reject_all).expect("first dump");
        let second =
            dump_failure(&CoarseMap::default, &s, &failure, &reject_all).expect("second dump");
        assert_ne!(first, second, "a rerun's dump must get a fresh name");
        for path in [first, second] {
            let body = std::fs::read_to_string(&path).expect("dump exists");
            assert!(body.contains(&format!("CITRUS_SCHEDULE={}", failure.schedule)));
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn budget_parses_milliseconds() {
        let parse = |raw| crate::testkit::parse_knob::<u64>("CITRUS_EXPLORE_BUDGET_MS", raw);
        assert_eq!(parse(" 60000 "), 60_000);
        assert_eq!(parse("0"), 0);
    }

    #[test]
    #[should_panic(expected = "invalid CITRUS_EXPLORE_BUDGET_MS=\"60s\"")]
    fn malformed_budget_is_a_hard_error() {
        crate::testkit::parse_knob::<u64>("CITRUS_EXPLORE_BUDGET_MS", "60s");
    }

    #[test]
    #[should_panic(expected = "prefill key 7 already present")]
    fn duplicate_prefill_is_rejected() {
        let s = ScheduleScenario::new("dup")
            .prefill(&[(7, 1), (7, 2)])
            .thread(&[ScenarioOp::Get(7)]);
        explore_schedules(CoarseMap::default, &s);
    }
}
