//! Failpoints: [`point`], [`should_fail`], plan installation, and the
//! per-thread decision trace.

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
    use core::cell::RefCell;
    use core::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Trace entries kept per thread; both runs of a replay pair truncate
    /// identically, so capping preserves trace-equality checks.
    const TRACE_CAP: usize = 1 << 16;

    /// `0` = no plan installed; failpoints are single-load no-ops.
    static ACTIVE_GENERATION: AtomicU64 = AtomicU64::new(0);
    static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);
    static PLAN: Mutex<Option<ChaosPlan>> = Mutex::new(None);
    /// Serializes chaos runs: concurrent tests in one binary would
    /// otherwise perturb (and be perturbed by) each other's plans.
    static SERIAL: Mutex<()> = Mutex::new(());
    /// Stream ids handed to threads that did not pin one; reset per
    /// install so spawn order alone determines streams.
    static NEXT_STREAM: AtomicU64 = AtomicU64::new(0);

    struct ThreadState {
        generation: u64,
        plan: ChaosPlan,
        rng: SplitMix64,
        pinned_stream: Option<u64>,
        trace: Vec<TraceEntry>,
    }

    thread_local! {
        static STATE: RefCell<ThreadState> = const {
            RefCell::new(ThreadState {
                generation: 0,
                plan: ChaosPlan::from_seed(0),
                rng: SplitMix64::new(0),
                pinned_stream: None,
                trace: Vec::new(),
            })
        };
    }

    fn unpoisoned<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An installed chaos plan. Failpoints stop firing when it drops; it
    /// also holds the global serialization lock, so at most one plan is
    /// active per process.
    pub struct ChaosGuard {
        _serial: MutexGuard<'static, ()>,
    }

    impl core::fmt::Debug for ChaosGuard {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("ChaosGuard").finish_non_exhaustive()
        }
    }

    impl Drop for ChaosGuard {
        fn drop(&mut self) {
            ACTIVE_GENERATION.store(0, Ordering::Release);
            *unpoisoned(&PLAN) = None;
        }
    }

    /// Installs `plan`, activating every failpoint in the process until
    /// the returned guard drops. Blocks while another plan is installed.
    #[must_use]
    pub fn install(plan: ChaosPlan) -> ChaosGuard {
        let serial = unpoisoned(&SERIAL);
        *unpoisoned(&PLAN) = Some(plan);
        NEXT_STREAM.store(0, Ordering::Relaxed);
        let generation = NEXT_GENERATION.fetch_add(1, Ordering::Relaxed);
        ACTIVE_GENERATION.store(generation, Ordering::Release);
        ChaosGuard { _serial: serial }
    }

    /// Pins the calling thread's decision-stream id for the current and
    /// all future plans. Replay tests pin explicit ids so two runs use
    /// identical streams regardless of what ran on the thread before;
    /// unpinned threads draw ids in first-failpoint order.
    pub fn set_thread_stream(id: u64) {
        STATE.with(|cell| {
            let mut s = cell.borrow_mut();
            s.pinned_stream = Some(id);
            // Force a refresh (and reseed) at the next failpoint.
            s.generation = 0;
        });
    }

    /// Takes the calling thread's recorded trace (empty unless the active
    /// plan was built with [`ChaosPlan::traced`]).
    #[must_use]
    pub fn take_trace() -> Vec<TraceEntry> {
        STATE.with(|cell| core::mem::take(&mut cell.borrow_mut().trace))
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

    /// Rolls the action for one firing; `None` if the plan vanished
    /// between the generation load and here.
    fn roll(name: &'static str, generation: u64, fail_site: bool) -> Option<ChaosAction> {
        STATE.with(|cell| {
            let mut s = cell.borrow_mut();
            if s.generation != generation {
                let plan = (*unpoisoned(&PLAN))?;
                let stream = s
                    .pinned_stream
                    .unwrap_or_else(|| NEXT_STREAM.fetch_add(1, Ordering::Relaxed));
                s.generation = generation;
                s.plan = plan;
                s.rng = SplitMix64::new(mix64(
                    plan.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ));
                s.trace.clear();
            }
            let z = mix64(s.rng.next_u64() ^ hash_name(name));
            let permille = (z % 1000) as u16;
            let action = if fail_site {
                if permille < s.plan.fail_permille {
                    ChaosAction::Fail
                } else {
                    ChaosAction::Pass
                }
            } else if permille < s.plan.yield_permille {
                ChaosAction::Yield
            } else if permille < s.plan.yield_permille.saturating_add(s.plan.spin_permille) {
                ChaosAction::Spin(1 + ((z >> 32) as u32) % s.plan.max_spin.max(1))
            } else {
                ChaosAction::Pass
            };
            if s.plan.trace && s.trace.len() < TRACE_CAP {
                s.trace.push(TraceEntry {
                    point: name,
                    action,
                });
            }
            Some(action)
        })
    }

    /// A named schedule-perturbation failpoint.
    #[inline]
    pub fn point(name: &'static str) {
        // An active deterministic schedule turns the point into a
        // cooperative yield and suppresses random rolls entirely.
        if crate::sched::maybe_yield(name) {
            return;
        }
        let generation = ACTIVE_GENERATION.load(Ordering::Acquire);
        if generation == 0 {
            return;
        }
        point_slow(name, generation);
    }

    #[cold]
    fn point_slow(name: &'static str, generation: u64) {
        match roll(name, generation, false) {
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
        if crate::sched::maybe_yield(name) {
            return false;
        }
        let generation = ACTIVE_GENERATION.load(Ordering::Acquire);
        if generation == 0 {
            return false;
        }
        should_fail_slow(name, generation)
    }

    #[cold]
    fn should_fail_slow(name: &'static str, generation: u64) -> bool {
        matches!(roll(name, generation, true), Some(ChaosAction::Fail))
    }

    /// `true` while a plan is installed.
    #[must_use]
    pub fn chaos_active() -> bool {
        ACTIVE_GENERATION.load(Ordering::Acquire) != 0
    }

    /// The installed plan's seed, for replay-recipe reporting.
    #[must_use]
    pub fn active_plan_seed() -> Option<u64> {
        if !chaos_active() {
            return None;
        }
        (*unpoisoned(&PLAN)).map(|p| p.seed)
    }

    /// The global chaos serialization lock, shared with schedule runs so
    /// deterministic schedules never overlap random chaos plans.
    pub(crate) fn serial_lock() -> MutexGuard<'static, ()> {
        unpoisoned(&SERIAL)
    }
}

#[cfg(not(feature = "chaos"))]
mod imp {
    use super::TraceEntry;
    use crate::plan::ChaosPlan;

    /// An installed chaos plan (zero-sized no-op in this build).
    #[derive(Debug)]
    pub struct ChaosGuard {}

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
pub(crate) use imp::serial_lock;
pub use imp::{
    active_plan_seed, chaos_active, install, point, set_thread_stream, should_fail, take_trace,
    ChaosGuard,
};

#[cfg(test)]
mod tests {
    #[cfg(not(feature = "chaos"))]
    use super::*;

    #[cfg(not(feature = "chaos"))]
    #[test]
    fn noop_failpoints_are_zero_cost() {
        assert_eq!(core::mem::size_of::<ChaosGuard>(), 0);
        let _guard = install(crate::ChaosPlan::from_seed(1).traced(true));
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
        fn untraced_plan_records_nothing() {
            let _guard = install(ChaosPlan::from_seed(5));
            set_thread_stream(0);
            point("p");
            assert!(take_trace().is_empty());
        }
    }
}
