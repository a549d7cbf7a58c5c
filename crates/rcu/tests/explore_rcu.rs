//! Exhaustive schedule exploration of the RCU grace-period protocol
//! itself: a reader that exits and immediately re-enters a read-side
//! critical section racing one writer's `synchronize_rcu`, or two
//! writers' concurrent ones.
//!
//! This is the window where a buggy flavor returns early — the reader's
//! exit makes it look quiescent, but its re-entry happened before the
//! writer's scan observed the exit, and a broken implementation credits
//! the *new* critical section as the old one having ended. The scenario
//! publishes a value, synchronizes, then marks the old value freed; the
//! reader asserts (on entry and before exit) that whatever it observed
//! was never freed. Assertion failures surface as scenario panics, which
//! the explorer reports with a replayable schedule.
//!
//! The two-writer scenario checks the property the paper's scalable
//! flavor rests on: synchronizers that do not coordinate with each other
//! still each wait for their own pre-existing readers.
//!
//! Both flavors sweep every interleaving of their instrumented yield
//! points at preemption bound 2 — the deterministic counterpart of the
//! statistical `check_grace_period_property` stress test.

#![cfg(feature = "chaos")]

use citrus_api::testkit::explore_config;
use citrus_chaos::{run_schedule, ExploreReport, ExploredRun, Explorer};
use citrus_rcu::{GlobalLockRcu, RcuFlavor, RcuHandle, ScalableRcu};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One deterministic run: a reader exits and re-enters; each of `writers`
/// writers swaps a value of its own into the published cell, waits a
/// grace period, then frees the value it swapped out. Value 0 starts
/// published; writer `w` publishes value `w + 1`.
fn grace_period_run<F: RcuFlavor>(rcu: &F, writers: usize) -> Vec<Box<dyn FnOnce() + Send + '_>> {
    // Leaked per-run state keeps the closures free of lifetimes other
    // than the domain's; each run leaks a few words.
    let published: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(0)));
    let freed: &'static [AtomicBool; 3] = Box::leak(Box::default());
    let reader = move || {
        let h = rcu.register();
        for pass in 0..2 {
            let g = h.read_lock();
            let v = published.load(Ordering::Acquire);
            assert!(
                !freed[v].load(Ordering::SeqCst),
                "pass {pass}: value {v} was freed while still published"
            );
            // Named dwell point: gives the scheduler somewhere to run
            // the writer *inside* the reader's critical section — the
            // only place a premature grace period is observable.
            citrus_chaos::point!("rcu-test/reader/dwell");
            assert!(
                !freed[v].load(Ordering::SeqCst),
                "pass {pass}: grace period ended while the reader that \
                 observed value {v} was still inside its critical section"
            );
            drop(g);
        }
    };
    let mut threads: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(reader)];
    for w in 0..writers {
        threads.push(Box::new(move || {
            let h = rcu.register();
            let old = published.swap(w + 1, Ordering::AcqRel);
            h.synchronize();
            freed[old].store(true, Ordering::SeqCst);
        }));
    }
    threads
}

fn sweep<F: RcuFlavor>(bound: usize, writers: usize) -> ExploreReport {
    Explorer::new(explore_config(bound)).explore(|plan| {
        let rcu = F::new();
        let outcome = run_schedule(plan, grace_period_run(&rcu, writers));
        ExploredRun {
            outcome,
            verdict: Ok(()),
        }
    })
}

/// Fails on a violation or a wedged schedule, or if the sweep never
/// reached one of `points`.
fn assert_clean_sweep(flavor: &str, report: &ExploreReport, points: &[&str]) {
    if let Some(f) = &report.failure {
        panic!(
            "{flavor} grace-period violation: {f}\n  replay: CITRUS_SCHEDULE={}",
            f.schedule
        );
    }
    assert_eq!(report.deadlocks, 0, "no schedule may wedge the protocol");
    eprintln!(
        "[explore-rcu] {flavor}: {} schedules, completed: {}",
        report.schedules, report.completed
    );
    for point in points {
        assert!(
            report.points_hit.contains(*point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

const SCALABLE_POINTS: [&str; 3] = [
    "rcu-scalable/read-lock/between-store-and-fence",
    "rcu-scalable/synchronize/scan-step",
    "rcu-scalable/synchronize/reader-wait",
];

const GLOBAL_LOCK_POINTS: [&str; 3] = [
    "rcu-global-lock/read-lock/between-store-and-fence",
    "rcu-global-lock/synchronize/phase-flip",
    "rcu-global-lock/synchronize/reader-wait",
];

#[test]
fn scalable_reader_reenter_vs_synchronize_is_clean() {
    assert_clean_sweep("scalable", &sweep::<ScalableRcu>(2, 1), &SCALABLE_POINTS);
}

#[test]
fn global_lock_reader_reenter_vs_synchronize_is_clean() {
    assert_clean_sweep(
        "global-lock",
        &sweep::<GlobalLockRcu>(2, 1),
        &GLOBAL_LOCK_POINTS,
    );
}

#[test]
fn scalable_reader_reenter_vs_two_synchronizers_is_clean() {
    assert_clean_sweep(
        "scalable, two synchronizers",
        &sweep::<ScalableRcu>(2, 2),
        &SCALABLE_POINTS,
    );
}

#[test]
fn global_lock_reader_reenter_vs_two_synchronizers_is_clean() {
    assert_clean_sweep(
        "global-lock, two synchronizers",
        &sweep::<GlobalLockRcu>(2, 2),
        &GLOBAL_LOCK_POINTS,
    );
}

/// The sweep's coverage is deterministic: same flavor, same bound, same
/// schedule count. Pins the bound-1 count for the cheapest flavor so a
/// silently vanished yield point fails loudly (budget-limited lanes
/// skip the pin — an incomplete sweep has no stable count).
#[test]
fn global_lock_schedule_count_is_stable() {
    let first = sweep::<GlobalLockRcu>(1, 1);
    let second = sweep::<GlobalLockRcu>(1, 1);
    assert!(first.failure.is_none(), "bound-1 sweep must be clean");
    assert_eq!(first.schedules, second.schedules);
    if first.completed && second.completed {
        assert_eq!(
            first.schedules, 10,
            "bound-1 schedule count drifted — a grace-period yield point \
             appeared or vanished; re-harvest if deliberate"
        );
    }
}
