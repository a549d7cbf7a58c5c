//! Exhaustive small-schedule exploration of the AVL baseline's unlink
//! path (the schedule explorer of DESIGN.md §6h, driven directly: the
//! baseline has no ordered reads, so the scenario runner does not apply).
//!
//! Replay a failure with `CITRUS_SCHEDULE=<schedule> cargo test -p
//! citrus-baselines --features chaos --test explore_avl`.

#![cfg(feature = "chaos")]

use citrus_api::testkit::{
    explore_config, explore_or_replay, run_schedule, stress_watchdog, ExploredRun, SchedulePlan,
};
use citrus_api::{ConcurrentMap, MapSession};
use citrus_baselines::OptimisticAvlTree;
use std::sync::Mutex;

type Avl = OptimisticAvlTree<u64, u64>;

/// One schedule: 20 is the root with children 10 and 30, and 10's only
/// child is 5. Thread 0 removes 10 (a one-child unlink that re-parents 5
/// under 20) while thread 1 removes 5 and then looks it up. If thread 1
/// read 10 as 5's parent before the unlink, locking the dead 10 must
/// send it back to find 5's live parent: unlinking 5 from 10 instead
/// would leave 5 marked unlinked yet reachable from 20, and the lookup
/// would retry its descent forever (the run hits its step budget).
fn run(plan: &SchedulePlan) -> ExploredRun {
    let map = Avl::new();
    {
        let mut s = map.session();
        for k in [20, 10, 30, 5] {
            assert!(s.insert(k, k * 10));
        }
    }
    let seen = Mutex::new(None);
    let outcome = run_schedule(
        plan,
        vec![
            Box::new(|| {
                assert!(map.session().remove(&10));
            }),
            Box::new(|| {
                let mut s = map.session();
                let removed = s.remove(&5);
                *seen.lock().unwrap() = Some((removed, s.get(&5)));
            }),
        ],
    );
    let verdict = if outcome.clean() {
        let mut s = map.session();
        let after: Vec<Option<u64>> = [5, 10, 20, 30].iter().map(|k| s.get(k)).collect();
        match *seen.lock().unwrap() {
            Some((true, None)) if after == [None, None, Some(200), Some(300)] => Ok(()),
            other => Err(format!(
                "remove(5)/get(5) saw {other:?}; final gets of 5/10/20/30: {after:?}"
            )),
        }
    } else {
        Ok(())
    };
    ExploredRun { outcome, verdict }
}

#[test]
fn remove_under_a_concurrently_unlinked_parent_is_clean() {
    let _wd = stress_watchdog("remove_under_a_concurrently_unlinked_parent_is_clean");
    let config = explore_config(2);
    let report = explore_or_replay("avl-remove-under-unlinked-parent", config, run);
    report.assert_clean("avl-remove-under-unlinked-parent");
    if !report.completed {
        return;
    }
    assert!(report.schedules > 1, "sweep must enumerate real schedules");
    assert!(
        report
            .points_hit
            .contains("baseline-avl/remove/before-parent-lock"),
        "sweep never reached the parent-read→lock window; hit: {:?}",
        report.points_hit
    );
}
