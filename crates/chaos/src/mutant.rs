//! Test-only mutation hooks: named switches that make instrumented code
//! *deliberately wrong*, so the exploration suites can prove they detect
//! real bugs (and CI can self-test the detector).
//!
//! Instrumented code guards a correctness-critical step with
//! [`mutant_enabled`]:
//!
//! ```ignore
//! if !citrus_chaos::mutant_enabled("citrus/remove/skip-synchronize") {
//!     self.rcu.synchronize();
//! }
//! ```
//!
//! With the `chaos` feature off the check is `const false` and the
//! branch folds away entirely — mutants cannot be enabled in production
//! builds. With it on, a mutant is part of one scheduled run: a test
//! names it on the [`SchedulePlan`](crate::SchedulePlan) (the explore
//! kit's `ScheduleScenario::mutant` does this for every run of a
//! scenario), and [`run_schedule`](crate::run_schedule) arms it on that
//! run's scheduled threads only, next to the run's own scheduler. Any
//! other thread — a parallel test's, or one a scenario closure spawns
//! itself — never sees it, and nothing outlives the run.

#[cfg(feature = "chaos")]
mod imp {
    use std::cell::RefCell;

    thread_local! {
        /// The mutants of the scheduled run this thread belongs to.
        static ARMED: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// Arms `mutants` on the calling thread, a freshly spawned scheduled
    /// thread that exits when its run ends.
    pub(crate) fn arm(mutants: &[&'static str]) {
        ARMED.with_borrow_mut(|armed| armed.extend_from_slice(mutants));
    }

    /// Whether the named mutation is armed on this thread's scheduled run.
    #[inline]
    #[must_use]
    pub fn mutant_enabled(name: &str) -> bool {
        ARMED.with_borrow(|armed| armed.contains(&name))
    }
}

#[cfg(not(feature = "chaos"))]
mod imp {
    /// Always `false` in this build: mutations are compiled out.
    #[inline(always)]
    #[must_use]
    pub fn mutant_enabled(name: &str) -> bool {
        let _ = name;
        false
    }
}

#[cfg(feature = "chaos")]
pub(crate) use imp::arm;
pub use imp::mutant_enabled;
