//! Failpoints: [`point`], [`should_fail`], plan installation and arming,
//! and the per-thread decision trace.

/// What a failpoint decided to do when it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// No perturbation.
    Pass,
    /// Yielded the OS scheduler (`std::thread::yield_now`).
    Yield,
    /// Spin-delayed for this many `spin_loop` hints.
    Spin(u32),
    /// A [`should_fail`] site forced the operation to restart.
    Fail,
}

/// One recorded failpoint firing (with
/// [`ChaosPlan::traced`](crate::ChaosPlan::traced) plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// The failpoint name (`component/operation/site`).
    pub point: &'static str,
    /// The decision taken.
    pub action: ChaosAction,
}

/// Returns `true` iff this build has real failpoints (the `chaos` cargo
/// feature). With it off every failpoint is an empty `#[inline]` function.
#[must_use]
pub const fn chaos_enabled() -> bool {
    cfg!(feature = "chaos")
}

#[cfg(feature = "chaos")]
mod imp {
    use super::{ChaosAction, TraceEntry};
    use crate::plan::{mix64, ChaosPlan, SplitMix64};
    use core::cell::{Cell, RefCell};
    use core::marker::PhantomData;
    use core::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Trace entries kept per thread; both runs of a replay pair truncate
    /// identically, so capping preserves trace-equality checks.
    const TRACE_CAP: usize = 1 << 16;

    /// One installed plan, shared by the threads armed with it.
    #[derive(Debug)]
    struct Installed {
        plan: ChaosPlan,
        /// Stream ids for armed threads that pin none, in first-roll order.
        next_stream: AtomicU64,
        /// Rolls made by threads armed from a [`ChaosHandle`].
        worker_rolls: AtomicU64,
    }

    struct ThreadState {
        /// The plan this thread rolls against; `true` on a worker thread.
        armed: Option<(Arc<Installed>, bool)>,
        /// The decision stream, seeded at the first roll after arming.
        rng: Option<SplitMix64>,
        pinned_stream: Option<u64>,
        trace: Vec<TraceEntry>,
    }

    thread_local! {
        /// Runs and plans engaging this thread; 0 is the fast path.
        static ENGAGED: Cell<u32> = const { Cell::new(0) };
        static STATE: RefCell<ThreadState> = const {
            RefCell::new(ThreadState {
                armed: None,
                rng: None,
                pinned_stream: None,
                trace: Vec::new(),
            })
        };
    }

    /// A plan armed on the calling thread. Its failpoints stop rolling
    /// when the guard drops, which restores the thread's previous arming.
    #[derive(Debug)]
    pub struct ChaosGuard {
        plan: ChaosHandle,
        previous: Option<(Arc<Installed>, bool)>,
        /// Disarms the thread that armed it, so it stays on that thread.
        _thread: PhantomData<*const ()>,
    }

    impl ChaosGuard {
        fn arm(installed: Option<Arc<Installed>>, worker: bool) -> Self {
            let previous = installed.as_ref().and_then(|i| {
                engage(true);
                STATE.with_borrow_mut(|s| {
                    s.rng = None;
                    s.armed.replace((Arc::clone(i), worker))
                })
            });
            Self {
                plan: ChaosHandle { installed },
                previous,
                _thread: PhantomData,
            }
        }

        /// A handle to this guard's plan, for arming the threads that
        /// should be perturbed with it.
        #[must_use]
        pub fn handle(&self) -> ChaosHandle {
            self.plan.clone()
        }

        /// Failpoint rolls so far by threads armed from a handle to this
        /// plan; 0 after a sweep means its spawner forgot to arm them.
        #[must_use]
        pub fn worker_rolls(&self) -> u64 {
            let rolls = self.plan.installed.as_ref().map(|i| &i.worker_rolls);
            rolls.map_or(0, |n| n.load(Ordering::Relaxed))
        }
    }

    impl Drop for ChaosGuard {
        fn drop(&mut self) {
            if self.plan.installed.is_some() {
                engage(false);
                STATE.with_borrow_mut(|s| {
                    s.rng = None;
                    s.armed = self.previous.take();
                });
            }
        }
    }

    /// A plan to arm other threads with: a spawner takes one from its
    /// guard (or from its own thread) and each worker it spawns calls
    /// [`arm`](Self::arm) first. Empty when no plan is armed.
    #[derive(Debug, Clone)]
    pub struct ChaosHandle {
        installed: Option<Arc<Installed>>,
    }

    impl ChaosHandle {
        /// The plan armed on the calling thread, if any.
        #[must_use]
        pub fn current() -> Self {
            STATE.with_borrow(|s| Self {
                installed: s.armed.as_ref().map(|(i, _)| Arc::clone(i)),
            })
        }

        /// Arms the calling thread with this plan until the returned guard
        /// drops; its rolls count as [worker
        /// rolls](ChaosGuard::worker_rolls). An empty handle arms nothing.
        #[must_use]
        pub fn arm(&self) -> ChaosGuard {
            ChaosGuard::arm(self.installed.clone(), true)
        }
    }

    /// Installs `plan` and arms the calling thread with it until the
    /// returned guard drops. Other threads roll against it only once armed
    /// from its [`handle`](ChaosGuard::handle).
    #[must_use]
    pub fn install(plan: ChaosPlan) -> ChaosGuard {
        let installed = Installed {
            plan,
            next_stream: AtomicU64::new(0),
            worker_rolls: AtomicU64::new(0),
        };
        ChaosGuard::arm(Some(Arc::new(installed)), false)
    }

    /// Pins the calling thread's decision-stream id for the current and
    /// all future plans. Replay tests pin explicit ids so two runs use
    /// identical streams regardless of what ran on the thread before;
    /// unpinned threads draw ids from their plan in first-failpoint order.
    pub fn set_thread_stream(id: u64) {
        STATE.with_borrow_mut(|s| {
            s.pinned_stream = Some(id);
            // Reseed at the next failpoint.
            s.rng = None;
        });
    }

    /// Takes the calling thread's recorded trace (empty unless its plan
    /// was built with [`ChaosPlan::traced`]).
    #[must_use]
    pub fn take_trace() -> Vec<TraceEntry> {
        STATE.with_borrow_mut(|s| core::mem::take(&mut s.trace))
    }

    /// FNV-1a over the point name, so co-located points in one decision
    /// stream take name-dependent actions.
    fn hash_name(name: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in name.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Rolls the action for one firing; `None` if the thread is not armed.
    fn roll(name: &'static str, fail_site: bool) -> Option<ChaosAction> {
        STATE.with_borrow_mut(|s| {
            let ThreadState {
                armed,
                rng,
                pinned_stream,
                trace,
            } = s;
            let (installed, worker) = armed.as_ref()?;
            let plan = installed.plan;
            if *worker {
                installed.worker_rolls.fetch_add(1, Ordering::Relaxed);
            }
            let rng = rng.get_or_insert_with(|| {
                let stream = pinned_stream
                    .unwrap_or_else(|| installed.next_stream.fetch_add(1, Ordering::Relaxed));
                trace.clear();
                SplitMix64::new(mix64(
                    plan.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ))
            });
            let z = mix64(rng.next_u64() ^ hash_name(name));
            let permille = (z % 1000) as u16;
            let action = if fail_site {
                if permille < plan.fail_permille {
                    ChaosAction::Fail
                } else {
                    ChaosAction::Pass
                }
            } else if permille < plan.yield_permille {
                ChaosAction::Yield
            } else if permille < plan.yield_permille.saturating_add(plan.spin_permille) {
                ChaosAction::Spin(1 + ((z >> 32) as u32) % plan.max_spin.max(1))
            } else {
                ChaosAction::Pass
            };
            if plan.trace && trace.len() < TRACE_CAP {
                trace.push(TraceEntry {
                    point: name,
                    action,
                });
            }
            Some(action)
        })
    }

    /// A run (`true`) or plan starts or stops (`false`) engaging the
    /// calling thread's failpoints.
    pub(crate) fn engage(on: bool) {
        let engaged = ENGAGED.get();
        ENGAGED.set(if on { engaged + 1 } else { engaged - 1 });
    }

    /// A named schedule-perturbation failpoint.
    #[inline]
    pub fn point(name: &'static str) {
        // A scheduled run turns the point into a cooperative yield and
        // suppresses random rolls entirely.
        if ENGAGED.get() == 0 || crate::sched::yield_point(name, false) {
            return;
        }
        match roll(name, false) {
            Some(ChaosAction::Yield) => std::thread::yield_now(),
            Some(ChaosAction::Spin(n)) => {
                for _ in 0..n {
                    core::hint::spin_loop();
                }
            }
            _ => {}
        }
    }

    /// A named forced-restart failpoint: `true` means the caller must act
    /// as if its (correctness-preserving) retry condition fired.
    #[inline]
    pub fn should_fail(name: &'static str) -> bool {
        // Under a deterministic schedule a fail site is a plain yield
        // point: restarts are never forced (DESIGN.md §6h caveat).
        ENGAGED.get() > 0
            && !crate::sched::yield_point(name, false)
            && roll(name, true) == Some(ChaosAction::Fail)
    }

    /// `true` while a plan is armed on, or a run schedules, the calling
    /// thread.
    #[must_use]
    pub fn chaos_active() -> bool {
        ENGAGED.get() > 0
    }

    /// The seed of the plan armed on the calling thread, for
    /// replay-recipe reporting.
    #[must_use]
    pub fn active_plan_seed() -> Option<u64> {
        STATE.with_borrow(|s| s.armed.as_ref().map(|(i, _)| i.plan.seed))
    }
}

#[cfg(not(feature = "chaos"))]
mod imp {
    use super::TraceEntry;
    use crate::plan::ChaosPlan;

    /// An armed chaos plan (zero-sized no-op in this build).
    #[derive(Debug)]
    pub struct ChaosGuard {}

    impl ChaosGuard {
        /// An empty handle in this build.
        #[inline(always)]
        #[must_use]
        pub fn handle(&self) -> ChaosHandle {
            ChaosHandle {}
        }

        /// Always 0 in this build.
        #[inline(always)]
        #[must_use]
        pub fn worker_rolls(&self) -> u64 {
            0
        }
    }

    /// A plan to arm other threads with (zero-sized no-op in this build).
    #[derive(Debug, Clone)]
    pub struct ChaosHandle {}

    impl ChaosHandle {
        /// An empty handle in this build.
        #[inline(always)]
        #[must_use]
        pub fn current() -> Self {
            Self {}
        }

        /// Arms nothing in this build.
        #[inline(always)]
        #[must_use]
        pub fn arm(&self) -> ChaosGuard {
            ChaosGuard {}
        }
    }

    /// Accepts and ignores `plan`; failpoints stay compiled out.
    #[inline]
    #[must_use]
    pub fn install(plan: ChaosPlan) -> ChaosGuard {
        let _ = plan;
        ChaosGuard {}
    }

    /// No-op in this build.
    #[inline(always)]
    pub fn set_thread_stream(id: u64) {
        let _ = id;
    }

    /// Always empty in this build.
    #[inline]
    #[must_use]
    pub fn take_trace() -> Vec<TraceEntry> {
        Vec::new()
    }

    /// No-op in this build.
    #[inline(always)]
    pub fn point(name: &'static str) {
        let _ = name;
    }

    /// Always `false` in this build.
    #[inline(always)]
    #[must_use]
    pub fn should_fail(name: &'static str) -> bool {
        let _ = name;
        false
    }

    /// Always `false` in this build.
    #[inline(always)]
    #[must_use]
    pub fn chaos_active() -> bool {
        false
    }

    /// Always `None` in this build.
    #[inline(always)]
    #[must_use]
    pub fn active_plan_seed() -> Option<u64> {
        None
    }
}

#[cfg(feature = "chaos")]
pub(crate) use imp::engage;
pub use imp::{
    active_plan_seed, chaos_active, install, point, set_thread_stream, should_fail, take_trace,
    ChaosGuard, ChaosHandle,
};

#[cfg(test)]
mod tests {
    #[cfg(not(feature = "chaos"))]
    use super::*;

    #[cfg(not(feature = "chaos"))]
    #[test]
    fn noop_failpoints_are_zero_cost() {
        assert_eq!(core::mem::size_of::<ChaosGuard>(), 0);
        assert_eq!(core::mem::size_of::<ChaosHandle>(), 0);
        let guard = install(crate::ChaosPlan::from_seed(1).traced(true));
        let _worker = guard.handle().arm();
        let _current = ChaosHandle::current().arm();
        assert_eq!(guard.worker_rolls(), 0);
        point("x/y/z");
        assert!(!should_fail("x/y/z"));
        assert!(!chaos_active());
        assert!(take_trace().is_empty());
    }

    #[cfg(feature = "chaos")]
    mod chaos_on {
        use super::super::*;
        use crate::ChaosPlan;

        fn traced_run(seed: u64, fires: usize) -> Vec<TraceEntry> {
            let _guard = install(ChaosPlan::from_seed(seed).traced(true));
            set_thread_stream(0);
            for i in 0..fires {
                point(if i % 2 == 0 { "a/b/even" } else { "a/b/odd" });
                let _ = should_fail("a/b/fail");
            }
            take_trace()
        }

        #[test]
        fn same_seed_same_trace() {
            let t1 = traced_run(0xC17, 200);
            let t2 = traced_run(0xC17, 200);
            assert_eq!(t1.len(), 400);
            assert_eq!(t1, t2, "same seed must replay the same decisions");
        }

        #[test]
        fn different_seeds_diverge() {
            assert_ne!(traced_run(1, 200), traced_run(2, 200));
        }

        #[test]
        fn fail_rate_extremes() {
            let _guard = install(ChaosPlan::from_seed(3).fails(1000));
            set_thread_stream(0);
            assert!(should_fail("always"));
            drop(_guard);
            let _guard = install(ChaosPlan::from_seed(3).fails(0));
            set_thread_stream(0);
            for _ in 0..100 {
                assert!(!should_fail("never"));
            }
        }

        #[test]
        fn uninstall_deactivates() {
            let guard = install(ChaosPlan::from_seed(4).traced(true));
            assert!(chaos_active());
            set_thread_stream(0);
            point("p");
            drop(guard);
            assert!(!chaos_active());
            // Firing after uninstall records nothing new; the old trace
            // remains until taken.
            point("q");
            let trace = take_trace();
            assert_eq!(trace.len(), 1);
            assert_eq!(trace[0].point, "p");
        }

        #[test]
        fn only_armed_workers_roll_against_a_plan() {
            let guard = install(ChaosPlan::from_seed(6).traced(true));
            let plan = guard.handle();
            std::thread::scope(|s| {
                s.spawn(|| {
                    point("unarmed");
                    assert!(!chaos_active() && take_trace().is_empty());
                });
            });
            assert_eq!(guard.worker_rolls(), 0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _armed = plan.arm();
                    point("armed");
                    assert_eq!(take_trace().len(), 1);
                });
            });
            assert_eq!(guard.worker_rolls(), 1);
        }

        #[test]
        fn untraced_plan_records_nothing() {
            let _guard = install(ChaosPlan::from_seed(5));
            set_thread_stream(0);
            point("p");
            assert!(take_trace().is_empty());
        }
    }
}
