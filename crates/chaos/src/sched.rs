//! Deterministic cooperative scheduling over the failpoint graph.
//!
//! A [`SchedulePlan`] replaces `ChaosPlan`'s random perturbation with an
//! *enumerable* one: within a run, exactly one of its scheduled threads
//! runs at a time, and every named failpoint becomes a cooperative
//! yield point where the scheduler decides who runs next. Decisions are an
//! explicit sequence of thread ids, consumed only at *branch points* —
//! yield points where two or more threads are eligible. Forced moves
//! (single eligible thread) consume nothing, which is what makes decision
//! prefixes canonical and lets the explorer prune by memoized prefix.
//!
//! Once the decision sequence is exhausted the scheduler falls back to a
//! deterministic default: keep running the current thread while it stays
//! eligible, else pick the lowest-numbered eligible thread. The default
//! adds zero preemptions, so a decision sequence's preemption count is a
//! property of the sequence itself — the context bound of CBMC-style
//! context-bounded search.
//!
//! Blocking sites ([`blocked!`](crate::blocked!)) deschedule the calling
//! thread until some other thread calls [`wake_hint`] (placed at lock
//! releases, reader exits, grace-period completions). If every unfinished
//! thread is blocked the run is reported as a deadlock. A run that
//! deadlocks, exceeds its step budget, or receives an infeasible decision
//! is *aborted*: threads unwind via a private panic payload that
//! [`run_schedule`] filters out, so structure-level RAII (lock guards,
//! read sessions) cleans up normally.
//!
//! Soundness caveat (see DESIGN.md §6h): this explores the failpoint
//! graph under sequentially-consistent execution of the instrumented
//! program — it enumerates *interleavings between named yield points*,
//! not weak-memory behaviors, and code between two yield points is one
//! atomic step from the scheduler's point of view.

/// Maximum number of scheduled threads (one base-36 digit per decision).
pub const MAX_SCHED_THREADS: usize = 36;

const DIGITS: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";

/// Default per-run step budget: generous for ≤3-thread/≤6-op scenarios,
/// small enough that a genuine livelock aborts quickly.
pub const DEFAULT_MAX_STEPS: usize = 20_000;

/// An explicit interleaving: a per-branch-point decision sequence.
///
/// `decisions[i]` is the thread id chosen at the i-th *branch point* of
/// the run (a yield point with ≥ 2 eligible threads). After the sequence
/// is exhausted the scheduler continues with the deterministic
/// zero-preemption default, so short sequences are complete schedules.
///
/// A plan may also name [mutants](crate::mutant_enabled) to arm on the
/// run's scheduled threads. They are not part of the
/// [encoding](Self::encode): a replay names them again.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedulePlan {
    decisions: Vec<usize>,
    max_steps: usize,
    mutants: Vec<&'static str>,
}

impl SchedulePlan {
    /// A plan from an explicit decision sequence.
    #[must_use]
    pub fn new(decisions: Vec<usize>) -> Self {
        Self {
            decisions,
            max_steps: DEFAULT_MAX_STEPS,
            mutants: Vec::new(),
        }
    }

    /// Overrides the per-run yield-point budget (abort + report if hit).
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Arms `mutants` on this run's scheduled threads, and on no other
    /// thread (see [`mutant_enabled`](crate::mutant_enabled)).
    #[must_use]
    pub fn with_mutants(mut self, mutants: &[&'static str]) -> Self {
        self.mutants = mutants.to_vec();
        self
    }

    /// The decision sequence.
    #[must_use]
    pub fn decisions(&self) -> &[usize] {
        &self.decisions
    }

    /// The per-run yield-point budget.
    #[must_use]
    pub fn max_steps(&self) -> usize {
        self.max_steps
    }

    /// Compact replayable encoding: one base-36 digit per decision, `-`
    /// for the empty (pure-default) schedule. Paste into
    /// `CITRUS_SCHEDULE=<string>` to rerun one interleaving.
    #[must_use]
    pub fn encode(&self) -> String {
        if self.decisions.is_empty() {
            return "-".to_string();
        }
        self.decisions.iter().map(|&d| DIGITS[d] as char).collect()
    }

    /// Parses the [`encode`](Self::encode) format.
    ///
    /// # Errors
    /// Returns a message naming the offending character if the string
    /// contains anything but base-36 digits (or the lone `-`).
    pub fn decode(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() || s == "-" {
            return Ok(Self::new(Vec::new()));
        }
        let mut decisions = Vec::with_capacity(s.len());
        for c in s.chars() {
            let d = match c {
                '0'..='9' => c as usize - '0' as usize,
                'a'..='z' => c as usize - 'a' as usize + 10,
                _ => return Err(format!("invalid schedule digit {c:?} in {s:?}")),
            };
            decisions.push(d);
        }
        Ok(Self::new(decisions))
    }
}

/// One branch point observed during a run: where the schedule could have
/// gone differently. The explorer expands alternatives from these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPoint {
    /// Thread ids that were eligible to run (always ≥ 2 entries).
    pub eligible: Vec<usize>,
    /// The thread that was running when the branch was reached (`None` at
    /// the initial dispatch or right after a thread finished).
    pub running: Option<usize>,
    /// The thread the scheduler picked (by decision or default policy).
    pub chosen: usize,
}

impl BranchPoint {
    /// Whether choosing `alt` here would preempt a still-eligible running
    /// thread (i.e. consume one unit of the preemption bound).
    #[must_use]
    pub fn is_preemption(&self, alt: usize) -> bool {
        matches!(self.running, Some(r) if r != alt && self.eligible.contains(&r))
    }
}

/// What happened during one [`run_schedule`] run.
#[derive(Debug, Default)]
pub struct ScheduleOutcome {
    /// Every branch point, in order, with the choice taken.
    pub branches: Vec<BranchPoint>,
    /// Total yield points executed.
    pub steps: usize,
    /// Preemptions taken (switches away from a still-eligible thread).
    pub preemptions: usize,
    /// How many of the plan's decisions were consumed.
    pub decisions_used: usize,
    /// All unfinished threads were blocked: a deadlock under the
    /// cooperative semantics. The run was aborted.
    pub deadlocked: bool,
    /// The step budget was exhausted (livelock suspect). Aborted.
    pub step_limit_hit: bool,
    /// A decision named a thread that was not eligible at its branch
    /// point — the plan does not correspond to a real schedule of this
    /// scenario (stale after a code change, or hand-written). Aborted.
    pub stale: bool,
    /// `(thread id, failpoint name)` per yield point, in execution order.
    pub trace: Vec<(usize, &'static str)>,
    /// Panic messages from scenario threads (scheduler aborts filtered
    /// out). Non-empty means the scenario itself panicked — a finding.
    pub panics: Vec<String>,
}

impl ScheduleOutcome {
    /// True if the run completed normally: no deadlock, no budget abort,
    /// no stale decision, no scenario panic.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.deadlocked && !self.step_limit_hit && !self.stale && self.panics.is_empty()
    }

    /// A one-line description of why the run was not clean, if it wasn't.
    #[must_use]
    pub fn failure_reason(&self) -> Option<String> {
        if let Some(p) = self.panics.first() {
            return Some(format!("panic: {p}"));
        }
        if self.deadlocked {
            return Some("deadlock: every unfinished thread blocked".to_string());
        }
        if self.step_limit_hit {
            return Some("step budget exhausted (livelock suspect)".to_string());
        }
        if self.stale {
            return Some("stale schedule: decision named an ineligible thread".to_string());
        }
        None
    }
}

/// A scenario thread's panic message.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(feature = "chaos")]
pub(crate) mod imp {
    use super::{panic_text, BranchPoint, ScheduleOutcome, SchedulePlan, MAX_SCHED_THREADS};
    use std::cell::RefCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// Private abort payload: unwinds scenario threads out of an aborted
    /// run. Filtered (not reported) by `run_schedule`.
    struct SchedAbort;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TState {
        NotArrived,
        /// Parked at a yield point, eligible to be granted the CPU.
        Runnable,
        /// Currently holds the (single) virtual CPU.
        Running,
        /// Parked at a `blocked!` site; eligible again once `wake_seq`
        /// advances past `since`.
        Blocked {
            since: u64,
        },
        Finished,
    }

    #[derive(Default)]
    struct Inner {
        threads: Vec<TState>,
        arrived: usize,
        /// The thread currently granted the virtual CPU.
        current: Option<usize>,
        /// The thread that was running when the last yield began (for
        /// preemption accounting and the continue-current default).
        last_running: Option<usize>,
        decisions: Vec<usize>,
        next_decision: usize,
        branches: Vec<BranchPoint>,
        steps: usize,
        max_steps: usize,
        preemptions: usize,
        wake_seq: u64,
        deadlocked: bool,
        step_limit_hit: bool,
        stale: bool,
        aborting: bool,
        trace: Vec<(usize, &'static str)>,
    }

    /// One run's scheduler, shared by that run's scheduled threads only.
    struct Sched {
        inner: Mutex<Inner>,
        cv: Condvar,
        /// The run's schedule encoding, for replay-recipe reporting.
        encoding: String,
    }

    thread_local! {
        /// The run this thread is scheduled in, and its id there. `None`
        /// on every thread outside a run: its failpoints take the fast
        /// path.
        static RUN: RefCell<Option<(Arc<Sched>, usize)>> = const { RefCell::new(None) };
    }

    fn abort_unwind() -> ! {
        std::panic::panic_any(SchedAbort);
    }

    /// Picks the next thread to run and stores it in `inner.current`.
    /// Never blocks and never panics; on no-eligible-threads it either
    /// records a deadlock (someone unfinished) or leaves `current` empty
    /// (everyone finished).
    fn pick_next(inner: &mut Inner, cv: &Condvar) {
        if inner.aborting {
            cv.notify_all();
            return;
        }
        let mut eligible: Vec<usize> = Vec::new();
        let mut all_finished = true;
        for (i, t) in inner.threads.iter().enumerate() {
            match *t {
                TState::Runnable => {
                    eligible.push(i);
                    all_finished = false;
                }
                TState::Blocked { since } => {
                    all_finished = false;
                    if inner.wake_seq > since {
                        eligible.push(i);
                    }
                }
                TState::NotArrived | TState::Running => all_finished = false,
                TState::Finished => {}
            }
        }
        if eligible.is_empty() {
            inner.current = None;
            if !all_finished {
                inner.deadlocked = true;
                inner.aborting = true;
            }
            cv.notify_all();
            return;
        }
        let running = inner.last_running;
        let chosen = if eligible.len() == 1 {
            // Forced move: no decision consumed, no branch recorded.
            eligible[0]
        } else {
            let chosen = if inner.next_decision < inner.decisions.len() {
                let d = inner.decisions[inner.next_decision];
                inner.next_decision += 1;
                if !eligible.contains(&d) {
                    inner.stale = true;
                    inner.aborting = true;
                    cv.notify_all();
                    return;
                }
                d
            } else if let Some(r) = running.filter(|r| eligible.contains(r)) {
                // Default policy: keep running (zero preemptions)...
                r
            } else {
                // ...else lowest id.
                eligible[0]
            };
            inner.branches.push(BranchPoint {
                eligible: eligible.clone(),
                running,
                chosen,
            });
            chosen
        };
        if let Some(r) = running {
            if r != chosen && eligible.contains(&r) {
                inner.preemptions += 1;
            }
        }
        inner.current = Some(chosen);
        cv.notify_all();
    }

    impl Sched {
        fn lock(&self) -> MutexGuard<'_, Inner> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Parks until thread `me` is granted the CPU (or the run aborts).
        fn wait_granted(&self, mut inner: MutexGuard<'_, Inner>, me: usize) {
            loop {
                if inner.aborting {
                    drop(inner);
                    abort_unwind();
                }
                if inner.current == Some(me) {
                    inner.threads[me] = TState::Running;
                    return;
                }
                inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
            }
        }

        fn enter(&self, me: usize) {
            let mut inner = self.lock();
            inner.threads[me] = TState::Runnable;
            inner.arrived += 1;
            if inner.arrived == inner.threads.len() {
                // All threads at the start barrier: first dispatch. With
                // >1 thread this is the run's first branch point.
                pick_next(&mut inner, &self.cv);
            }
            self.wait_granted(inner, me);
        }

        fn leave(&self, me: usize) {
            let mut inner = self.lock();
            inner.threads[me] = TState::Finished;
            if inner.aborting {
                self.cv.notify_all();
                return;
            }
            if inner.current == Some(me) {
                inner.current = None;
                inner.last_running = None;
                pick_next(&mut inner, &self.cv);
            }
        }

        /// Thread `me` reached the yield point `name`: records the step,
        /// parks it (runnable, or blocked until the next wake hint), and
        /// returns once it is granted the CPU again.
        fn step(&self, me: usize, name: &'static str, blocked: bool) {
            // During unwind (a scenario panic or a scheduler abort), pass
            // through without scheduling: parking here could double-panic.
            if std::thread::panicking() {
                return;
            }
            let mut inner = self.lock();
            if inner.aborting {
                drop(inner);
                abort_unwind();
            }
            inner.steps += 1;
            if inner.trace.len() < 4096 {
                inner.trace.push((me, name));
            }
            if inner.steps > inner.max_steps {
                inner.step_limit_hit = true;
                inner.aborting = true;
                self.cv.notify_all();
                drop(inner);
                abort_unwind();
            }
            inner.threads[me] = if blocked {
                TState::Blocked {
                    since: inner.wake_seq,
                }
            } else {
                TState::Runnable
            };
            inner.last_running = Some(me);
            pick_next(&mut inner, &self.cv);
            self.wait_granted(inner, me);
        }
    }

    /// Runs `f` with the calling thread's run and id, if it is scheduled.
    fn with_run<T>(f: impl FnOnce(&Sched, usize) -> T) -> Option<T> {
        RUN.with_borrow(|run| run.as_ref().map(|(sched, me)| f(sched, *me)))
    }

    /// A cooperative yield point, blocking (until the next wake hint) or
    /// not. Returns true if the calling thread is scheduled in a run; false
    /// means it rolls its plan instead (and a blocking caller spin-waits).
    pub(crate) fn yield_point(name: &'static str, blocked: bool) -> bool {
        with_run(|sched, me| sched.step(me, name, blocked)).is_some()
    }

    /// Signals that shared state changed in a way that may unblock a
    /// `blocked!` waiter (lock released, reader exited, grace period
    /// completed). Cheap no-op on a thread outside a run; a wake advances
    /// only its own run's wake clock.
    pub fn wake_hint() {
        if crate::chaos_active() {
            with_run(|sched, _| sched.lock().wake_seq += 1);
        }
    }

    /// The compact encoding of the schedule the calling thread runs in,
    /// if it is scheduled.
    #[must_use]
    pub fn active_schedule() -> Option<String> {
        with_run(|sched, _| sched.encoding.clone())
    }

    /// Runs `threads` under the deterministic cooperative scheduler,
    /// driven by `plan`. Blocks until every thread finishes or the run
    /// aborts (deadlock / step budget / stale decision).
    ///
    /// Each call builds its own scheduler and hands it to the threads it
    /// spawns, so runs on different threads proceed side by side and
    /// never see each other's yield points, wakes or mutants.
    pub fn run_schedule(
        plan: &SchedulePlan,
        threads: Vec<Box<dyn FnOnce() + Send + '_>>,
    ) -> ScheduleOutcome {
        let n = threads.len();
        assert!(
            (1..=MAX_SCHED_THREADS).contains(&n),
            "run_schedule supports 1..={MAX_SCHED_THREADS} threads, got {n}"
        );
        let sched = Arc::new(Sched {
            inner: Mutex::new(Inner {
                threads: vec![TState::NotArrived; n],
                max_steps: plan.max_steps(),
                decisions: plan.decisions().to_vec(),
                ..Inner::default()
            }),
            cv: Condvar::new(),
            encoding: plan.encode(),
        });

        let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for (i, f) in threads.into_iter().enumerate() {
                let (panics, sched) = (&panics, Arc::clone(&sched));
                std::thread::Builder::new()
                    .name(format!("sched-{i}"))
                    .spawn_scoped(s, move || {
                        crate::mutant::arm(&plan.mutants);
                        RUN.set(Some((Arc::clone(&sched), i)));
                        crate::point::engage(true);
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            sched.enter(i);
                            f();
                        }));
                        sched.leave(i);
                        if let Err(payload) = result {
                            if payload.downcast_ref::<SchedAbort>().is_none() {
                                panics
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push((i, panic_text(&*payload)));
                            }
                        }
                    })
                    .expect("spawn scheduled thread");
            }
        });

        let mut inner = sched.lock();
        let mut thread_panics = panics.into_inner().unwrap_or_else(PoisonError::into_inner);
        thread_panics.sort_by_key(|&(i, _)| i);
        ScheduleOutcome {
            branches: std::mem::take(&mut inner.branches),
            steps: inner.steps,
            preemptions: inner.preemptions,
            decisions_used: inner.next_decision,
            deadlocked: inner.deadlocked,
            step_limit_hit: inner.step_limit_hit,
            stale: inner.stale,
            trace: std::mem::take(&mut inner.trace),
            panics: thread_panics
                .into_iter()
                .map(|(i, p)| format!("thread {i}: {p}"))
                .collect(),
        }
    }
}

#[cfg(not(feature = "chaos"))]
pub(crate) mod imp {
    use super::{panic_text, ScheduleOutcome, SchedulePlan, MAX_SCHED_THREADS};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// No-op in this build (failpoints are compiled out).
    #[inline(always)]
    pub fn wake_hint() {}

    /// Always `None` in this build.
    #[inline(always)]
    #[must_use]
    pub fn active_schedule() -> Option<String> {
        None
    }

    /// Without the `chaos` feature there are no yield points, so the only
    /// schedule is the sequential one: each thread runs to completion in
    /// id order on the calling thread. This keeps explorer-driven tests
    /// compiling and (degenerately) passing as sequential smoke tests.
    pub fn run_schedule(
        _plan: &SchedulePlan,
        threads: Vec<Box<dyn FnOnce() + Send + '_>>,
    ) -> ScheduleOutcome {
        let n = threads.len();
        assert!(
            (1..=MAX_SCHED_THREADS).contains(&n),
            "run_schedule supports 1..={MAX_SCHED_THREADS} threads, got {n}"
        );
        let mut outcome = ScheduleOutcome::default();
        for (i, f) in threads.into_iter().enumerate() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                outcome
                    .panics
                    .push(format!("thread {i}: {}", panic_text(&*payload)));
            }
        }
        outcome
    }
}

#[cfg(feature = "chaos")]
pub(crate) use imp::yield_point;
pub use imp::{active_schedule, run_schedule, wake_hint};
