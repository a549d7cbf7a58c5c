//! Exhaustive small-schedule exploration of the lock-free baseline's
//! delete window: the gap between a remover's injection (flag) CAS and
//! its `cleanup` splice, during which the flagged leaf stays reachable.
//! Driven directly like `explore_avl.rs`: the baseline has no ordered
//! reads, so the scenario runner does not apply. Each run's history is
//! recorded and checked for linearizability.
//!
//! Replay one interleaving, with a step trace on stderr, with
//! `CITRUS_SCHEDULE=<schedule> cargo test -p citrus-baselines --features
//! chaos --test explore_lockfree -- --nocapture`.

#![cfg(feature = "chaos")]

use citrus_api::lincheck::{check_history, History, HistoryRecorder, RecordedOp};
use citrus_api::testkit::{
    explore_or_replay, run_schedule, stress_watchdog, ExploreConfig, ExploredRun, SchedulePlan,
};
use citrus_api::{ConcurrentMap, MapSession};
use citrus_baselines::LockFreeBst;
use std::sync::Mutex;

type Bst = LockFreeBst<u64, u64>;

const KEY: u64 = 14;

/// One schedule: `KEY` is prefilled. Thread 0 removes it; thread 1
/// removes it, re-inserts it and reads it. If thread 0 stops between its
/// flag CAS and its `cleanup`, the key is already deleted (the flag CAS
/// is the delete's linearization point) yet its leaf is still reachable.
/// Thread 1's `remove` must then help finish that delete before it
/// answers, or its `insert` finds the stale leaf and reports the key as
/// present right after its own `remove` reported it absent.
fn run(plan: &SchedulePlan) -> ExploredRun {
    let map = Bst::new();
    let recorder = HistoryRecorder::new();
    // The prefill is recorded on its own lane (2), ahead of every
    // concurrent ticket, so the checker's empty-map start holds.
    let prefill = {
        let mut s = recorder.wrap(2, map.session());
        assert!(s.insert(KEY, 1));
        s.finish()
    };
    let logs: Mutex<Vec<Vec<RecordedOp>>> = Mutex::new(vec![prefill]);
    let outcome = run_schedule(
        plan,
        vec![
            Box::new(|| {
                let mut s = recorder.wrap(0, map.session());
                s.remove(&KEY);
                logs.lock().unwrap().push(s.finish());
            }),
            Box::new(|| {
                let mut s = recorder.wrap(1, map.session());
                s.remove(&KEY);
                s.insert(KEY, 2);
                s.get(&KEY);
                logs.lock().unwrap().push(s.finish());
            }),
        ],
    );
    let verdict = if outcome.clean() {
        let logs = logs.into_inner().unwrap();
        check_history(&History::from_thread_logs(logs))
            .map_err(|cx| format!("non-linearizable history:\n{cx}"))
    } else {
        // A scheduler-level failure (panic, step budget) is the finding.
        Ok(())
    };
    ExploredRun { outcome, verdict }
}

#[test]
fn remove_racing_a_flagged_delete_of_the_same_leaf_is_clean() {
    let _wd = stress_watchdog("remove_racing_a_flagged_delete_of_the_same_leaf_is_clean");
    let config = ExploreConfig {
        max_preemptions: 2,
        ..ExploreConfig::default()
    };
    let report = explore_or_replay("lockfree-remove-vs-flagged-remove", config, run);
    report.assert_clean("lockfree-remove-vs-flagged-remove");
    eprintln!(
        "[explore-lockfree] {} schedules, completed: {}",
        report.schedules, report.completed
    );
    // A budget-limited sweep or a replay has no stable count or coverage.
    if !report.completed {
        return;
    }
    for point in [
        "baseline-lockfree/remove/before-cas",
        "baseline-lockfree/remove/after-flag",
        "baseline-lockfree/insert/before-cas",
    ] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
    assert_eq!(
        report.schedules, 15,
        "bound-2 schedule count drifted: a yield point appeared or vanished \
         in the lock-free delete window"
    );
}
