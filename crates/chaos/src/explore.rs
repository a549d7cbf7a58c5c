//! DFS enumeration of all bounded schedules of a scenario.
//!
//! [`Explorer`] repeatedly invokes a caller-provided runner (which wraps
//! [`run_schedule`](crate::run_schedule) around the scenario plus an
//! oracle) and expands every branch point it observes into the
//! alternative decisions not yet taken, depth-first. Because forced moves
//! consume no decisions, decision sequences are canonical per schedule
//! and a `HashMap` memo gives exact prefix pruning: no interleaving runs
//! twice, within or across preemption bounds.
//!
//! Bounds are iteratively deepened (0, 1, 2, … preemptions up to
//! [`ExploreConfig::max_preemptions`]), the classic context-bounded
//! search order: most concurrency bugs need few preemptions, and the
//! first failure found is automatically among the minimal-preemption
//! schedules — DFS inside a bound then makes it lexicographically small,
//! which is what the "minimal replayable schedule" in failure reports
//! means.

use crate::sched::{ScheduleOutcome, SchedulePlan};
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Bounds and budgets for one exploration sweep.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Context bound: maximum preemptions per schedule (iteratively
    /// deepened from 0). 2 reaches most known RCU/locking windows.
    pub max_preemptions: usize,
    /// Hard cap on distinct schedules executed; exceeding it marks the
    /// report incomplete rather than running forever.
    pub max_schedules: usize,
    /// Per-run yield-point budget (forwarded to [`SchedulePlan`]).
    pub max_steps: usize,
    /// Wall-clock budget; `None` means unbounded. See
    /// [`budget_from_env`] for the `CITRUS_EXPLORE_BUDGET_MS` knob.
    pub budget: Option<Duration>,
    /// Stop at the first failing schedule (default) instead of
    /// continuing the sweep to count all failures.
    pub stop_on_failure: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            max_preemptions: 2,
            max_schedules: 100_000,
            max_steps: crate::sched::DEFAULT_MAX_STEPS,
            budget: budget_from_env(),
            stop_on_failure: true,
        }
    }
}

/// Reads the exploration wall-clock budget from `CITRUS_EXPLORE_BUDGET_MS`
/// (unset means unbounded; a malformed value is a hard error so CI never
/// silently runs an unbounded sweep because of a typo).
#[must_use]
pub fn budget_from_env() -> Option<Duration> {
    match std::env::var("CITRUS_EXPLORE_BUDGET_MS") {
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(e) => panic!(
                "invalid CITRUS_EXPLORE_BUDGET_MS={raw:?}: {e} (expected milliseconds as an unsigned integer)"
            ),
        },
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("invalid CITRUS_EXPLORE_BUDGET_MS: {e}"),
    }
}

/// The result of running one schedule: what the scheduler saw plus the
/// oracle's verdict on the completed run.
#[derive(Debug)]
pub struct ExploredRun {
    /// The scheduler-level outcome (branches, deadlock, panics, …).
    pub outcome: ScheduleOutcome,
    /// The oracle's verdict (linearizability, structure validation, …)
    /// for runs that completed. `Err` is a finding.
    pub verdict: Result<(), String>,
}

/// A schedule the oracle (or the scheduler itself) rejected.
#[derive(Debug, Clone)]
pub struct ScheduleFailure {
    /// Compact replayable encoding — paste into `CITRUS_SCHEDULE=`.
    pub schedule: String,
    /// Preemptions the failing schedule used.
    pub preemptions: usize,
    /// Why it failed (oracle message, deadlock, panic, …).
    pub reason: String,
}

impl std::fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule {} ({} preemption(s)): {}",
            self.schedule, self.preemptions, self.reason
        )
    }
}

/// What an exploration sweep covered and found.
#[derive(Debug, Default)]
pub struct ExploreReport {
    /// Distinct schedules executed. For a fixed scenario and bound this
    /// is deterministic — tests pin it to detect silently lost coverage.
    pub schedules: usize,
    /// DFS nodes answered from the memo instead of re-running.
    pub memo_hits: usize,
    /// Highest preemption bound reached by iterative deepening.
    pub preemption_bound_reached: usize,
    /// The sweep enumerated every schedule within the bounds (no budget
    /// or cap cut it short, and no stop-on-failure early exit).
    pub completed: bool,
    /// The first failure found (minimal preemptions, then DFS order).
    pub failure: Option<ScheduleFailure>,
    /// Total failing schedules seen (1 with `stop_on_failure`).
    pub failures_seen: usize,
    /// Schedules that ended in a cooperative deadlock.
    pub deadlocks: usize,
    /// Every failpoint name observed across all runs — assert against
    /// [`all_points`](crate::all_points) to catch dead yield points.
    pub points_hit: BTreeSet<&'static str>,
    /// The file describing [`failure`](Self::failure), if the sweep's
    /// caller wrote one (`citrus-api`'s sweeps do). A test that expects
    /// the failure deletes it.
    pub dump: Option<PathBuf>,
}

impl ExploreReport {
    /// Panics with a replay recipe if the sweep found a failure.
    pub fn assert_clean(&self, scenario: &str) {
        if let Some(f) = &self.failure {
            panic!(
                "[{scenario}] exploration failed: {f}\n  replay: CITRUS_SCHEDULE={}",
                f.schedule
            );
        }
    }
}

struct RunRecord {
    branches: Vec<crate::sched::BranchPoint>,
    preemptions: usize,
    failure: Option<String>,
}

/// Bounded exhaustive schedule explorer. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    /// Bounds and budgets for the sweep.
    pub config: ExploreConfig,
}

impl Explorer {
    /// An explorer with the given bounds.
    #[must_use]
    pub fn new(config: ExploreConfig) -> Self {
        Self { config }
    }

    /// An explorer with the default config at the given context bound.
    #[must_use]
    pub fn with_bound(max_preemptions: usize) -> Self {
        Self {
            config: ExploreConfig {
                max_preemptions,
                ..ExploreConfig::default()
            },
        }
    }

    /// Enumerates schedules depth-first with iterative deepening over
    /// the preemption bound, calling `run` once per distinct schedule.
    ///
    /// `run` must execute the scenario under
    /// [`run_schedule`](crate::run_schedule) with the given plan and
    /// return the outcome plus the oracle verdict. Determinism contract:
    /// the same plan must reproduce the same branch points.
    pub fn explore<R>(&self, mut run: R) -> ExploreReport
    where
        R: FnMut(&SchedulePlan) -> ExploredRun,
    {
        let start = Instant::now();
        let mut memo: HashMap<Vec<usize>, RunRecord> = HashMap::new();
        let mut report = ExploreReport {
            completed: true,
            ..ExploreReport::default()
        };
        'deepening: for bound in 0..=self.config.max_preemptions {
            report.preemption_bound_reached = bound;
            // DFS stack of canonical decision sequences still to expand.
            let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
            while let Some(decisions) = stack.pop() {
                if let Some(budget) = self.config.budget {
                    if start.elapsed() > budget {
                        report.completed = false;
                        break 'deepening;
                    }
                }
                let mut fresh = false;
                if memo.contains_key(&decisions) {
                    report.memo_hits += 1;
                } else {
                    fresh = true;
                    if report.schedules >= self.config.max_schedules {
                        report.completed = false;
                        break 'deepening;
                    }
                    let plan =
                        SchedulePlan::new(decisions.clone()).with_max_steps(self.config.max_steps);
                    let run_result = run(&plan);
                    report.schedules += 1;
                    for &(_, name) in &run_result.outcome.trace {
                        report.points_hit.insert(name);
                    }
                    if run_result.outcome.deadlocked {
                        report.deadlocks += 1;
                    }
                    let failure = run_result
                        .outcome
                        .failure_reason()
                        .or_else(|| run_result.verdict.err());
                    memo.insert(
                        decisions.clone(),
                        RunRecord {
                            branches: run_result.outcome.branches,
                            preemptions: run_result.outcome.preemptions,
                            failure,
                        },
                    );
                }
                let rec = &memo[&decisions];
                // Failures are counted on first (fresh) visit only —
                // iterative deepening revisits every node at each bound.
                if fresh {
                    if let Some(reason) = &rec.failure {
                        report.failures_seen += 1;
                        if report.failure.is_none() {
                            report.failure = Some(ScheduleFailure {
                                schedule: SchedulePlan::new(decisions.clone()).encode(),
                                preemptions: rec.preemptions,
                                reason: reason.clone(),
                            });
                        }
                        if self.config.stop_on_failure {
                            report.completed = false;
                            break 'deepening;
                        }
                    }
                }
                // An aborted (deadlocked) run's branch list stops at the
                // abort; expanding it is still sound — the alternatives
                // are genuine branch points observed before the abort.
                // Cumulative preemptions up to (not including) branch i.
                let branches = &rec.branches;
                let mut preempt_before = Vec::with_capacity(branches.len() + 1);
                preempt_before.push(0usize);
                for b in branches {
                    let p = usize::from(b.is_preemption(b.chosen));
                    preempt_before.push(preempt_before.last().unwrap() + p);
                }
                // Expand alternatives only at positions at or past this
                // sequence's own length: earlier positions were already
                // expanded when the shorter prefix was visited.
                let mut children = Vec::new();
                for (i, b) in branches.iter().enumerate().skip(decisions.len()) {
                    for &alt in &b.eligible {
                        if alt == b.chosen {
                            continue;
                        }
                        let extra = usize::from(b.is_preemption(alt));
                        if preempt_before[i] + extra > bound {
                            continue;
                        }
                        let mut child: Vec<usize> =
                            branches[..i].iter().map(|bb| bb.chosen).collect();
                        child.push(alt);
                        children.push(child);
                    }
                }
                // Reverse so the stack pops them in discovery order.
                for child in children.into_iter().rev() {
                    stack.push(child);
                }
            }
        }
        report
    }
}
