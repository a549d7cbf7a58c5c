//! Exhaustive small-schedule exploration of the Citrus tree's
//! linearization-sensitive windows (DESIGN.md §6h).
//!
//! Each scenario scripts 2 threads over a 4-node tree so that a
//! `remove` takes the two-child path — the paper's central race: mark the
//! victim, splice a copy of the successor, wait one grace period
//! (`synchronize_rcu`), then unlink the old successor. The sweeps
//! enumerate *every* interleaving of the instrumented yield points within
//! a preemption bound and check each against the linearizability oracle
//! plus full structural validation.
//!
//! The mutant tests prove the harness has teeth: with the grace period
//! deliberately skipped (`citrus/remove/skip-synchronize`), the explorer
//! must find a reader that misses a key that was never absent — and the
//! failing schedule it reports, replayed verbatim, must fail again (and
//! pass once the mutant is disabled).
//!
//! Replay any failure here with `CITRUS_SCHEDULE=<schedule> cargo test
//! --features chaos -p citrus <test>`.

#![cfg(feature = "chaos")]

use citrus::{CitrusForest, CitrusTree, GlobalLockRcu, ReclaimMode};
use citrus_api::testkit::{
    enable_mutant, explore_schedules_with, replay_schedule_with, stress_watchdog, ExploreConfig,
    Explorer, ScenarioOp, ScheduleScenario, StressWatchdog,
};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes every test in this binary. Mutants are process-global: a
/// test that enables one would leak it into sibling sweeps running in
/// parallel (a clean sweep would then fail on a bug it never planted),
/// and two tests enabling the same mutant at once trip its enabled-twice
/// assertion. The stress watchdog starts only once the lock is held, so
/// queueing behind siblings does not count against a test's timeout.
fn exclusive(test: &str) -> (MutexGuard<'static, ()>, StressWatchdog) {
    static SERIAL: Mutex<()> = Mutex::new(());
    let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    (serial, stress_watchdog(test))
}

type Tree = CitrusTree<u64, u64, GlobalLockRcu>;
type Forest = CitrusForest<u64, u64, GlobalLockRcu>;

/// Pinned minimal schedule (harvested from the mutant sweep) driving the
/// reader past the victim before the splice and back through the
/// successor's parent after the unlink — the exact window the inline
/// `synchronize_rcu` exists to close.
const PINNED_INLINE_DELETE_SCHEDULE: &str = "1110";

fn make_inline() -> Tree {
    Tree::with_reclaim(ReclaimMode::Leak)
}

fn validate(tree: &mut Tree) -> Result<(), String> {
    tree.validate_structure()
        .map(|_| ())
        .map_err(|v| format!("structure invariant violated: {v}"))
}

/// remove(20) takes the two-child path (children 10 and 30); its
/// successor is 25, which the concurrent reader looks up. 25 is never
/// removed, so any `get(25) → None` is a linearizability violation.
fn delete_window_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (10, 100), (30, 300), (25, 250)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Get(25)])
}

/// Deletes the schedule dump of a sweep whose failure the test expects,
/// so a green run leaves no dump behind.
fn remove_expected_dump(dump: Option<PathBuf>) {
    let dump = dump.expect("a failing sweep names its schedule dump");
    std::fs::remove_file(&dump)
        .unwrap_or_else(|e| panic!("named dump {} not removable: {e}", dump.display()));
}

fn bounded(max_preemptions: usize) -> ExploreConfig {
    ExploreConfig {
        max_preemptions,
        ..ExploreConfig::default()
    }
}

#[test]
fn inline_delete_window_sweep_is_clean() {
    let _serial = exclusive("inline_delete_window_sweep_is_clean");
    let scenario = delete_window_scenario("inline-two-child-delete");
    let report = explore_schedules_with(make_inline, &scenario, bounded(2), validate);
    report.assert_clean(scenario.name);
    // Coverage claims only hold for a full enumeration: a budget-limited
    // lane or a CITRUS_SCHEDULE single-run replay skips them.
    if !report.completed {
        return;
    }
    assert!(report.schedules > 1, "sweep must enumerate real schedules");
    // The sweep must actually drive through the delete window.
    for point in [
        "citrus/remove/before-synchronize",
        "citrus/remove/after-synchronize",
        "citrus/search/step",
        // The reader-wait block only fires in interleavings where the
        // grace period really overlaps the reader's critical section —
        // exactly the window the sweep exists to cover.
        "rcu-global-lock/synchronize/reader-wait",
    ] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

/// The acceptance gate for "exhaustive": for a fixed scenario and bound
/// the number of distinct schedules is a deterministic property of the
/// failpoint graph. A drift means yield points appeared or vanished —
/// deliberate (update the constant) or a silently lost window (a bug).
/// Budget-limited lanes (`CITRUS_EXPLORE_BUDGET_MS`) skip the pin: an
/// incomplete sweep has no stable count.
#[test]
fn explored_schedule_count_is_stable() {
    let _serial = exclusive("explored_schedule_count_is_stable");
    let scenario = delete_window_scenario("inline-two-child-delete-count");
    let first = explore_schedules_with(make_inline, &scenario, bounded(1), validate);
    first.assert_clean(scenario.name);
    let second = explore_schedules_with(make_inline, &scenario, bounded(1), validate);
    assert_eq!(
        first.schedules, second.schedules,
        "same scenario and bound must enumerate the same schedule set"
    );
    if first.completed && second.completed {
        assert_eq!(
            first.schedules, 20,
            "bound-1 schedule count drifted — a yield point appeared or vanished \
             in the delete window; re-harvest if deliberate"
        );
    }
}

#[test]
fn inline_delete_skip_synchronize_mutant_is_caught() {
    let _serial = exclusive("inline_delete_skip_synchronize_mutant_is_caught");
    let scenario = delete_window_scenario("inline-two-child-delete-mutant");
    let guard = enable_mutant("citrus/remove/skip-synchronize");
    let report = explore_schedules_with(make_inline, &scenario, bounded(2), validate);
    let failure = report
        .failure
        .expect("skipping the delete-path synchronize_rcu must be caught");
    remove_expected_dump(report.dump);
    eprintln!("[mutant] inline delete minimal schedule: {failure}");
    assert_eq!(
        failure.preemptions, 1,
        "iterative deepening must find a 1-preemption witness first"
    );
    assert!(
        failure.reason.contains("non-linearizable"),
        "the witness must be a linearizability violation, got: {}",
        failure.reason
    );
    // The reported schedule is a replayable witness...
    let rerun = replay_schedule_with(make_inline, &scenario, &failure.schedule, validate);
    assert!(
        rerun.verdict.is_err() || !rerun.outcome.clean(),
        "replaying the failing schedule must reproduce the failure"
    );
    // ...and the failure is the mutant's: the same schedule passes with
    // the real synchronize_rcu back in place.
    drop(guard);
    let fixed = replay_schedule_with(make_inline, &scenario, &failure.schedule, validate);
    assert!(
        fixed.outcome.clean() && fixed.verdict.is_ok(),
        "the minimal schedule must pass once the grace period is restored: {:?}",
        fixed.verdict
    );
}

/// Satellite pinned regression: the minimal inline-delete schedule the
/// mutant sweep discovered, replayed forever against the real code. The
/// mutant leg keeps the pin honest — if instrumentation drift makes the
/// schedule stop exercising the window (stale decisions, or a pass even
/// with the grace period skipped), this fails and the constant must be
/// re-harvested from `inline_delete_skip_synchronize_mutant_is_caught`.
#[test]
fn pinned_inline_delete_schedule_regression() {
    let _serial = exclusive("pinned_inline_delete_schedule_regression");
    let scenario = delete_window_scenario("inline-two-child-delete-pinned");
    let run = replay_schedule_with(
        make_inline,
        &scenario,
        PINNED_INLINE_DELETE_SCHEDULE,
        validate,
    );
    assert!(
        run.outcome.clean() && run.verdict.is_ok(),
        "pinned schedule regressed: {:?} / {:?}",
        run.outcome.failure_reason(),
        run.verdict
    );
    let guard = enable_mutant("citrus/remove/skip-synchronize");
    let mutant = replay_schedule_with(
        make_inline,
        &scenario,
        PINNED_INLINE_DELETE_SCHEDULE,
        validate,
    );
    drop(guard);
    assert!(
        mutant.verdict.is_err() || !mutant.outcome.clean(),
        "pinned schedule no longer exercises the delete window — re-harvest it"
    );
}

/// A search hits `citrus/search/step` once per node it visits: for ∞,
/// then 20, 30 and 25 on the way to 25. The descent starts below ∞, so
/// without ∞'s own point every search would lose a yield point and the
/// schedule counts of scenarios with no pinned count would shrink
/// silently.
#[test]
fn search_yields_once_per_visited_node() {
    let _serial = exclusive("search_yields_once_per_visited_node");
    let scenario = ScheduleScenario::new("search-steps")
        .prefill(&delete_window_scenario("search-steps").prefill)
        .thread(&[ScenarioOp::Get(25)]);
    let run = replay_schedule_with(make_inline, &scenario, "-", validate);
    assert!(
        run.outcome.clean() && run.verdict.is_ok(),
        "a lone get failed: {:?} / {:?}",
        run.outcome.failure_reason(),
        run.verdict
    );
    let steps = run
        .outcome
        .trace
        .iter()
        .filter(|&&(_, point)| point == "citrus/search/step")
        .count();
    assert_eq!(steps, 4, "trace: {:?}", run.outcome.trace);
}

/// remove(20) takes the two-child path with its successor 25 deep in the
/// right subtree (`prev_succ` is 30, not `curr`). A second thread removes
/// 10, which leaves the successor copy with one child, then removes 25,
/// which bypasses that copy; a reader looks 25 up. The paper holds the
/// copy's lock from line 71 through line 83, so the second thread's
/// removes wait until the old 25 is unlinked. A delete that released the
/// copy's lock before that unlink would let the old, unmarked 25 show up
/// again after `remove(25)` returned.
fn successor_resurrection_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (10, 100), (30, 300), (25, 250)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Remove(10), ScenarioOp::Remove(25)])
        .thread(&[ScenarioOp::Get(25)])
}

#[test]
fn successor_resurrection_window_sweep_is_clean() {
    let _serial = exclusive("successor_resurrection_window_sweep_is_clean");
    let scenario = successor_resurrection_scenario("successor-copy-vs-remove-successor");
    let report = explore_schedules_with(make_inline, &scenario, bounded(2), validate);
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    for point in [
        "citrus/remove/before-synchronize",
        "citrus/remove/after-synchronize",
        "citrus/search/step",
    ] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

// ---- Ordered reads: validated traversal windows (DESIGN.md §6i) -------

/// remove(20) takes the two-child path while a full-range scan runs: the
/// weak-BST window where the spliced successor copy and the not-yet
/// unlinked original are both reachable with key 25. The scan must
/// either restart (validation catches the splice) or dedup the adjacent
/// duplicate — never return 20 and 25's states torn across the window.
fn scan_window_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (10, 100), (30, 300), (25, 250)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

#[test]
fn scan_vs_inline_two_child_delete_sweep_is_clean() {
    let _serial = exclusive("scan_vs_inline_two_child_delete_sweep_is_clean");
    let scenario = scan_window_scenario("scan-vs-inline-two-child-delete");
    let report = explore_schedules_with(make_inline, &scenario, bounded(2), validate);
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    assert!(report.schedules > 1, "sweep must enumerate real schedules");
    for point in [
        "citrus/scan/step",
        "citrus/scan/validate",
        "citrus/remove/before-synchronize",
    ] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

/// Torn-scan scenario with no grace periods anywhere (leaf remove plus a
/// fresh insert): an unvalidated traversal preempted between visiting 10
/// and descending into 30's subtree collects BOTH the removed 10 and the
/// later-inserted 25 — a set no instant ever held, since the writer
/// removes before inserting.
fn torn_scan_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (10, 100), (30, 300)])
        .thread(&[ScenarioOp::Remove(10), ScenarioOp::Insert(25, 250)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

/// The scan harness has teeth: with per-edge validation skipped, the
/// explorer must find the torn traversal at a low preemption bound, the
/// reported schedule must replay to the same failure, and the identical
/// schedule must pass once validation is back on.
#[test]
fn scan_skip_validation_mutant_is_caught() {
    let _serial = exclusive("scan_skip_validation_mutant_is_caught");
    let scenario = torn_scan_scenario("torn-scan-mutant");
    let guard = enable_mutant("citrus/scan/skip-validation");
    let report = explore_schedules_with(make_inline, &scenario, bounded(2), validate);
    let failure = report
        .failure
        .expect("skipping scan validation must be caught");
    remove_expected_dump(report.dump);
    eprintln!("[mutant] torn-scan minimal schedule: {failure}");
    assert!(
        failure.preemptions <= 2,
        "iterative deepening must find a low-bound witness, got {}",
        failure.preemptions
    );
    assert!(
        failure.reason.contains("non-linearizable"),
        "the witness must be a linearizability violation, got: {}",
        failure.reason
    );
    let rerun = replay_schedule_with(make_inline, &scenario, &failure.schedule, validate);
    assert!(
        rerun.verdict.is_err() || !rerun.outcome.clean(),
        "replaying the failing schedule must reproduce the failure"
    );
    drop(guard);
    let fixed = replay_schedule_with(make_inline, &scenario, &failure.schedule, validate);
    assert!(
        fixed.outcome.clean() && fixed.verdict.is_ok(),
        "the minimal schedule must pass once validation is restored: {:?}",
        fixed.verdict
    );
}

/// The same torn-scan scenario with validation on: every interleaving up
/// to the bound restarts instead of returning a torn result.
#[test]
fn torn_scan_sweep_is_clean_with_validation() {
    let _serial = exclusive("torn_scan_sweep_is_clean_with_validation");
    let scenario = torn_scan_scenario("torn-scan-validated");
    let report = explore_schedules_with(make_inline, &scenario, bounded(2), validate);
    report.assert_clean(scenario.name);
}

// ---- Range-routed forest: partial fan-out windows (DESIGN.md §6j) -----

/// A 2-shard range forest with its splitter at 16: keys below 16 live in
/// shard 0, the rest in shard 1. Built explicitly (not via the
/// `CITRUS_ROUTER` env knob) so these windows are swept in every CI lane.
fn make_range_forest() -> Forest {
    Forest::with_range_router_config(vec![16], ReclaimMode::Leak)
}

fn validate_forest(forest: &mut Forest) -> Result<(), String> {
    forest
        .validate_structure()
        .map(|_| ())
        .map_err(|v| format!("forest invariant violated: {v:?}"))
}

/// remove(20) takes the two-child path inside shard 1 (children 18 and
/// 30, successor 25) while a cross-shard scan runs. The scan's partial
/// fan-out enters both shards — 10 lives in shard 0 — and must validate
/// the per-shard traversals jointly: either it restarts on the splice or
/// it returns a set some instant really held, never 20/25 torn across
/// the window.
fn range_forest_scan_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (18, 180), (30, 300), (25, 250), (10, 100)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

#[test]
fn range_forest_scan_window_sweep_is_clean() {
    let _serial = exclusive("range_forest_scan_window_sweep_is_clean");
    let scenario = range_forest_scan_scenario("range-forest-scan-vs-two-child-delete");
    let report = explore_schedules_with(make_range_forest, &scenario, bounded(2), validate_forest);
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    assert!(report.schedules > 1, "sweep must enumerate real schedules");
    for point in [
        "citrus/scan/step",
        "forest/scan/validate",
        "citrus/remove/before-synchronize",
    ] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

/// Torn-scan scenario inside shard 1 of the range forest (leaf remove of
/// 18 plus a fresh insert of 25 under 30): an unvalidated traversal
/// preempted between the two can collect both — a set no instant held.
fn range_forest_torn_scan_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (18, 180), (30, 300), (10, 100)])
        .thread(&[ScenarioOp::Remove(18), ScenarioOp::Insert(25, 250)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

/// The partial fan-out's joint validation has teeth too: with validation
/// skipped, the explorer must find the torn cross-shard traversal at a
/// low preemption bound, the reported schedule must replay to the same
/// failure, and the identical schedule must pass once validation is back.
#[test]
fn range_forest_scan_skip_validation_mutant_is_caught() {
    let _serial = exclusive("range_forest_scan_skip_validation_mutant_is_caught");
    let scenario = range_forest_torn_scan_scenario("range-forest-torn-scan-mutant");
    let guard = enable_mutant("citrus/scan/skip-validation");
    let report = explore_schedules_with(make_range_forest, &scenario, bounded(2), validate_forest);
    let failure = report
        .failure
        .expect("skipping the partial fan-out's validation must be caught");
    remove_expected_dump(report.dump);
    eprintln!("[mutant] range-forest torn-scan minimal schedule: {failure}");
    assert!(
        failure.preemptions <= 2,
        "iterative deepening must find a low-bound witness, got {}",
        failure.preemptions
    );
    assert!(
        failure.reason.contains("non-linearizable"),
        "the witness must be a linearizability violation, got: {}",
        failure.reason
    );
    let rerun = replay_schedule_with(
        make_range_forest,
        &scenario,
        &failure.schedule,
        validate_forest,
    );
    assert!(
        rerun.verdict.is_err() || !rerun.outcome.clean(),
        "replaying the failing schedule must reproduce the failure"
    );
    drop(guard);
    let fixed = replay_schedule_with(
        make_range_forest,
        &scenario,
        &failure.schedule,
        validate_forest,
    );
    assert!(
        fixed.outcome.clean() && fixed.verdict.is_ok(),
        "the minimal schedule must pass once validation is restored: {:?}",
        fixed.verdict
    );
}

/// The same torn-scan scenario with validation on: every interleaving up
/// to the bound restarts instead of returning a torn result.
#[test]
fn range_forest_torn_scan_sweep_is_clean_with_validation() {
    let _serial = exclusive("range_forest_torn_scan_sweep_is_clean_with_validation");
    let scenario = range_forest_torn_scan_scenario("range-forest-torn-scan-validated");
    let report = explore_schedules_with(make_range_forest, &scenario, bounded(2), validate_forest);
    report.assert_clean(scenario.name);
}

// ---- Hash-routed forest: full fan-out windows (DESIGN.md §6i) ---------

/// A 2-shard *hash* forest: every ordered read fans out to both shards
/// and walks them together before validating them jointly.
fn make_hash_forest() -> Forest {
    Forest::with_config(2, 0, ReclaimMode::Leak)
}

/// Four ascending keys that all route to shard 0 of
/// [`make_hash_forest`], plus one routed to shard 1 — found through
/// `shard_for`, since hash routing makes the constants non-obvious.
fn hash_forest_keys() -> ([u64; 4], u64) {
    let forest = make_hash_forest();
    let mut home = (1u64..).filter(|k| forest.shard_for(k) == 0);
    let keys = [(); 4].map(|()| home.next().expect("infinite range"));
    let other = (1u64..)
        .find(|k| forest.shard_for(k) == 1)
        .expect("infinite range");
    assert!(
        keys[3] < 100 && other < 100,
        "keys must sit inside the scanned span"
    );
    (keys, other)
}

/// The scan-vs-two-child-delete window inside shard 0 of the hash forest
/// (`b` has children `a` and `d`; its successor `c` is `d`'s left child),
/// while shard 1 holds `e`: the full fan-out walks both shards
/// interleaved and must either restart on the splice or return a set
/// some instant really held.
fn hash_forest_scan_scenario(name: &'static str) -> ScheduleScenario {
    let ([a, b, c, d], e) = hash_forest_keys();
    ScheduleScenario::new(name)
        .prefill(&[
            (b, b * 10),
            (a, a * 10),
            (d, d * 10),
            (c, c * 10),
            (e, e * 10),
        ])
        .thread(&[ScenarioOp::Remove(b)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

/// Torn-scan scenario inside shard 0 of the hash forest (leaf remove of
/// `a`, then a fresh insert of `c` under `d`): an unvalidated fan-out
/// preempted between the two can collect both — a set no instant held.
fn hash_forest_torn_scan_scenario(name: &'static str) -> ScheduleScenario {
    let ([a, b, c, d], e) = hash_forest_keys();
    ScheduleScenario::new(name)
        .prefill(&[(b, b * 10), (a, a * 10), (d, d * 10), (e, e * 10)])
        .thread(&[ScenarioOp::Remove(a), ScenarioOp::Insert(c, c * 10)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

#[test]
fn hash_forest_scan_window_sweep_is_clean() {
    let _serial = exclusive("hash_forest_scan_window_sweep_is_clean");
    let scenario = hash_forest_scan_scenario("hash-forest-scan-vs-two-child-delete");
    let report = explore_schedules_with(make_hash_forest, &scenario, bounded(2), validate_forest);
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    assert!(report.schedules > 1, "sweep must enumerate real schedules");
    for point in [
        "citrus/scan/step",
        "forest/scan/validate",
        "citrus/remove/before-synchronize",
    ] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

/// The full fan-out's joint validation has teeth: with validation
/// skipped, the explorer must find the torn traversal at a low
/// preemption bound, the reported schedule must replay to the same
/// failure, and the identical schedule must pass once validation is back.
#[test]
fn hash_forest_scan_skip_validation_mutant_is_caught() {
    let _serial = exclusive("hash_forest_scan_skip_validation_mutant_is_caught");
    let scenario = hash_forest_torn_scan_scenario("hash-forest-torn-scan-mutant");
    let guard = enable_mutant("citrus/scan/skip-validation");
    let report = explore_schedules_with(make_hash_forest, &scenario, bounded(2), validate_forest);
    let failure = report
        .failure
        .expect("skipping the full fan-out's validation must be caught");
    remove_expected_dump(report.dump);
    eprintln!("[mutant] hash-forest torn-scan minimal schedule: {failure}");
    assert!(
        failure.preemptions <= 2,
        "iterative deepening must find a low-bound witness, got {}",
        failure.preemptions
    );
    assert!(
        failure.reason.contains("non-linearizable"),
        "the witness must be a linearizability violation, got: {}",
        failure.reason
    );
    let rerun = replay_schedule_with(
        make_hash_forest,
        &scenario,
        &failure.schedule,
        validate_forest,
    );
    assert!(
        rerun.verdict.is_err() || !rerun.outcome.clean(),
        "replaying the failing schedule must reproduce the failure"
    );
    drop(guard);
    let fixed = replay_schedule_with(
        make_hash_forest,
        &scenario,
        &failure.schedule,
        validate_forest,
    );
    assert!(
        fixed.outcome.clean() && fixed.verdict.is_ok(),
        "the minimal schedule must pass once validation is restored: {:?}",
        fixed.verdict
    );
}

/// The same torn-scan scenario with validation on: every interleaving up
/// to the bound restarts instead of returning a torn result.
#[test]
fn hash_forest_torn_scan_sweep_is_clean_with_validation() {
    let _serial = exclusive("hash_forest_torn_scan_sweep_is_clean_with_validation");
    let scenario = hash_forest_torn_scan_scenario("hash-forest-torn-scan-validated");
    let report = explore_schedules_with(make_hash_forest, &scenario, bounded(2), validate_forest);
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    for point in ["citrus/scan/step", "forest/scan/validate"] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

/// Finds one key per shard of a 2-shard forest by probing the shard trees
/// directly (routing is hash-based, so the constants are not obvious).
fn keys_in_distinct_shards() -> (u64, u64) {
    let forest = Forest::with_config(2, 0, ReclaimMode::Leak);
    let mut session = forest.session();
    let mut per_shard: [Option<u64>; 2] = [None, None];
    for k in 0..64 {
        session.insert(k, k);
        for (i, slot) in per_shard.iter_mut().enumerate() {
            if slot.is_none() && forest.shard(i).session().get(&k).is_some() {
                *slot = Some(k);
            }
        }
        if let [Some(a), Some(b)] = per_shard {
            return (a, b);
        }
    }
    panic!("no key pair split across 2 shards in 0..64");
}

/// Cross-shard independence: two threads updating keys routed to
/// different shards share no locks and no RCU domain, so every
/// interleaving must be clean — and the sweep proves it for all of them,
/// not just the ones a stress run happens to sample.
#[test]
fn forest_cross_shard_sweep_is_clean() {
    let _serial = exclusive("forest_cross_shard_sweep_is_clean");
    let (a, b) = keys_in_distinct_shards();
    let scenario = ScheduleScenario::new("forest-cross-shard")
        .prefill(&[(a, 1)])
        .thread(&[ScenarioOp::Remove(a), ScenarioOp::Get(a)])
        .thread(&[ScenarioOp::Insert(b, 2), ScenarioOp::Get(b)]);
    let make = || Forest::with_config(2, 0, ReclaimMode::Leak);
    let report = explore_schedules_with(make, &scenario, bounded(1), |_| Ok(()));
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    assert!(
        report.points_hit.contains("forest/route/before-shard"),
        "sweep never crossed the shard router; hit: {:?}",
        report.points_hit
    );
    assert_eq!(report.deadlocks, 0);
}

/// The explorer itself honors the wall-clock budget: an absurdly small
/// budget must cut the sweep short and say so, not hang or lie.
#[test]
fn explore_budget_marks_sweep_incomplete() {
    let _serial = exclusive("explore_budget_marks_sweep_incomplete");
    let config = ExploreConfig {
        max_preemptions: 2,
        budget: Some(Duration::from_millis(0)),
        ..ExploreConfig::default()
    };
    let explorer = Explorer::new(config);
    let report = explorer.explore(|plan| citrus_api::testkit::ExploredRun {
        outcome: citrus_api::testkit::run_schedule(plan, vec![Box::new(|| {})]),
        verdict: Ok(()),
    });
    // A zero budget expires before the first run even starts.
    assert!(!report.completed, "zero budget cannot complete a sweep");
}
