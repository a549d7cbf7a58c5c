//! Linearizability over every structure in the repository, checked
//! against *recorded concurrent histories* with the WGL checker
//! (`citrus_api::lincheck`, DESIGN.md §6f) — the machine-checked stand-in
//! for the paper's §4 proof.
//!
//! Each structure runs one direct seeded check plus a chaos-seed sweep
//! (schedule perturbation at every failpoint; a no-op without the `chaos`
//! cargo feature, so this file is green under default features too).
//! Knobs: `CITRUS_LIN_THREADS` / `CITRUS_LIN_OPS` bound history width and
//! length, `CITRUS_CHAOS_SEEDS` the sweep width. Every run dumps its
//! recorded history under `CITRUS_LIN_DUMP_DIR` (default: the OS temp
//! dir) before checking, so even a hung or interrupted run leaves
//! forensic evidence.
//!
//! The checker itself is validated here too: a deliberately broken map
//! whose `get` serves a stale snapshot must be *rejected* with a printed
//! minimal counterexample.

use citrus_repro::citrus_api::{lincheck, testkit, ConcurrentMap, MapSession, OrderedMapSession};
use citrus_repro::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One direct check plus a chaos-seed sweep. The key range is kept small
/// so keys are contended (more overlapping per-key subhistories — the
/// interesting case for the checker) while ops-per-key stays bounded.
fn lin_battery<M: ConcurrentMap<u64, u64>>(make: impl Fn() -> M, base_seed: u64) {
    let _watchdog = testkit::stress_watchdog("linearizability::lin_battery");
    let threads = lincheck::lin_threads(4);
    let ops = lincheck::lin_ops(250);
    lincheck::check_linearizable(&make, threads, ops, 32, base_seed)
        .unwrap_or_else(|failure| panic!("{failure}"));
    lincheck::sweep_lincheck_chaos_seeds(
        &make,
        threads,
        (ops / 2).max(50),
        16,
        base_seed ^ 0xC4A0_5000,
        testkit::chaos_seeds(2),
    );
}

/// Ordered-read battery: the scan workload mixes `range_scan` /
/// `successor` / `predecessor` with concurrent point updates, then the
/// multi-key WGL checker verifies the whole history. Smaller than
/// `lin_battery` because range components make the checker's state
/// richer.
fn scan_battery<M>(make: impl Fn() -> M, base_seed: u64)
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
{
    let _watchdog = testkit::stress_watchdog("linearizability::scan_battery");
    let threads = lincheck::lin_threads(3);
    let ops = lincheck::lin_ops(150);
    lincheck::check_linearizable_scans(&make, threads, ops, 16, base_seed)
        .unwrap_or_else(|failure| panic!("{failure}"));
    lincheck::sweep_lincheck_scan_chaos_seeds(
        &make,
        threads,
        (ops / 2).max(50),
        12,
        base_seed ^ 0x5CA_0000,
        testkit::chaos_seeds(2),
    );
}

// ---- Citrus: both RCU flavors × both reclamation modes ----------------

#[test]
fn citrus_scalable_epoch() {
    lin_battery(
        || CitrusTree::<u64, u64, ScalableRcu>::with_reclaim(ReclaimMode::Epoch),
        0x11A_0001,
    );
}

#[test]
fn citrus_scalable_leak() {
    lin_battery(
        || CitrusTree::<u64, u64, ScalableRcu>::with_reclaim(ReclaimMode::Leak),
        0x11A_0002,
    );
}

#[test]
fn citrus_global_lock_epoch() {
    lin_battery(
        || CitrusTree::<u64, u64, GlobalLockRcu>::with_reclaim(ReclaimMode::Epoch),
        0x11A_0003,
    );
}

#[test]
fn citrus_global_lock_leak() {
    lin_battery(
        || CitrusTree::<u64, u64, GlobalLockRcu>::with_reclaim(ReclaimMode::Leak),
        0x11A_0004,
    );
}

// ---- CitrusForest: shards 1 / 4 / 8 ------------------------------------

/// Builds `u64`-keyed forests over `shards` shards, hash-routed with seed
/// `0x5EED`.
fn forest(shards: usize) -> impl Fn() -> CitrusForest<u64, u64, ScalableRcu> {
    move || CitrusForest::with_config(shards, 0x5EED, ReclaimMode::Epoch)
}

#[test]
fn forest_one_shard() {
    lin_battery(forest(1), 0x11A_0011);
}

#[test]
fn forest_four_shards() {
    lin_battery(forest(4), 0x11A_0014);
}

#[test]
fn forest_eight_shards() {
    lin_battery(forest(8), 0x11A_0018);
}

// ---- The five baselines -----------------------------------------------

#[test]
fn baseline_avl() {
    lin_battery(OptimisticAvlTree::<u64, u64>::new, 0x11A_0021);
}

#[test]
fn baseline_skiplist() {
    lin_battery(LazySkipList::<u64, u64>::new, 0x11A_0022);
}

#[test]
fn baseline_lockfree() {
    lin_battery(LockFreeBst::<u64, u64>::new, 0x11A_0023);
}

#[test]
fn baseline_rbtree() {
    lin_battery(RelativisticRbTree::<u64, u64>::new, 0x11A_0024);
}

#[test]
fn baseline_bonsai() {
    lin_battery(BonsaiTree::<u64, u64>::new, 0x11A_0025);
}

// ---- Ordered reads: Citrus (both flavors), forest fan-out, and the
// ---- Bonsai snapshot baseline -----------------------------------------

#[test]
fn scan_citrus_scalable_inline() {
    scan_battery(
        || CitrusTree::<u64, u64, ScalableRcu>::with_reclaim(ReclaimMode::Epoch),
        0x5CA_0001,
    );
}

#[test]
fn scan_citrus_global_lock_inline() {
    scan_battery(
        || CitrusTree::<u64, u64, GlobalLockRcu>::with_reclaim(ReclaimMode::Leak),
        0x5CA_0003,
    );
}

#[test]
fn scan_forest_one_shard() {
    scan_battery(forest(1), 0x5CA_0011);
}

#[test]
fn scan_forest_four_shards() {
    scan_battery(forest(4), 0x5CA_0014);
}

#[test]
fn scan_forest_eight_shards() {
    scan_battery(forest(8), 0x5CA_0018);
}

#[test]
fn scan_bonsai_snapshots() {
    scan_battery(BonsaiTree::<u64, u64>::new, 0x5CA_0025);
}

// ---- Checker validation: the broken adapter must be rejected ----------

/// A deliberately broken map: updates go to the live map, but `get`
/// serves a snapshot frozen at construction time — exactly the stale-read
/// anomaly an unsound RCU traversal could produce, and exactly what the
/// heuristic testkit batteries cannot see (each individual return value
/// is locally plausible).
#[derive(Default, Debug)]
struct StaleReadMap {
    live: Mutex<BTreeMap<u64, u64>>,
    snapshot: Mutex<BTreeMap<u64, u64>>,
}

struct StaleReadSession<'a>(&'a StaleReadMap);

impl ConcurrentMap<u64, u64> for StaleReadMap {
    type Session<'a> = StaleReadSession<'a>;
    const NAME: &'static str = "stale-read-adapter";
    fn session(&self) -> StaleReadSession<'_> {
        StaleReadSession(self)
    }
}

impl MapSession<u64, u64> for StaleReadSession<'_> {
    fn get(&mut self, key: &u64) -> Option<u64> {
        // The lie: reads never see updates.
        self.0.snapshot.lock().unwrap().get(key).copied()
    }
    fn insert(&mut self, key: u64, value: u64) -> bool {
        let mut m = self.0.live.lock().unwrap();
        match m.entry(key) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
        }
    }
    fn remove(&mut self, key: &u64) -> bool {
        self.0.live.lock().unwrap().remove(key).is_some()
    }
}

/// Single-threaded recording keeps the test fully deterministic: with no
/// concurrency, every interval is totally ordered, so the first
/// `insert(k) → true` followed by `get(k) → None` (without an intervening
/// successful remove) is non-linearizable under *every* schedule.
#[test]
fn stale_read_adapter_is_rejected_with_minimal_counterexample() {
    let failure = lincheck::check_linearizable(StaleReadMap::default, 1, 60, 4, 0xBAD_5EED)
        .expect_err("the stale-read adapter must be rejected");
    let message = failure.to_string();
    assert!(
        message.contains("non-linearizable history for stale-read-adapter"),
        "unexpected failure report:\n{message}"
    );
    assert!(
        message.contains("minimal non-linearizable sub-history on key"),
        "counterexample must be pretty-printed:\n{message}"
    );
    // The shrinker must reach a small core, not dump the whole workload.
    let ops_line = message
        .lines()
        .find(|l| l.contains("minimal non-linearizable sub-history"))
        .unwrap();
    // Header shape: "... on key(s) K[, K...] (N ops, invocation order):" —
    // the op count lives in the *last* paren group.
    let n_ops: usize = ops_line
        .rsplit('(')
        .next()
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("counterexample header names its op count");
    assert!(
        n_ops <= 3,
        "counterexample not minimal ({n_ops} ops):\n{message}"
    );

    // The failed run must leave a forensic history dump whose path the
    // report names. The path comes from this check's own failure, not the
    // process-global watchdog slot that parallel checks overwrite.
    let dump = failure
        .dump
        .expect("a failing lincheck run must dump its history");
    assert!(dump.exists(), "dump file {} missing", dump.display());
    let contents = std::fs::read_to_string(&dump).unwrap();
    assert!(
        contents.contains("insert(") && contents.contains("# VERDICT"),
        "dump must contain the history and the appended verdict:\n{contents}"
    );
    assert!(
        message.contains(&dump.display().to_string()),
        "failure report must name the dump path:\n{message}"
    );
    // Expected evidence: a green run leaves no dump behind.
    let _ = std::fs::remove_file(&dump);
}

/// The same adapter under a *concurrent* recording, via the raw recorder
/// API. The workload is insert/get only: without removes, presence is
/// monotone, so any thread that inserts a key (grant or duplicate) and
/// later gets `None` on it yields a violation under **every** possible
/// interleaving — the rejection is schedule-independent, not luck.
#[test]
fn stale_read_adapter_is_rejected_concurrently() {
    use lincheck::{check_history, History, HistoryRecorder};

    let map = StaleReadMap::default();
    let recorder = HistoryRecorder::new();
    let barrier = std::sync::Barrier::new(4);
    let logs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let (map, recorder, barrier) = (&map, &recorder, &barrier);
                scope.spawn(move || {
                    let mut session = recorder.wrap(t, map.session());
                    barrier.wait();
                    for i in 0..40u64 {
                        let key = (i + t as u64) % 4;
                        session.insert(key, ((t as u64) << 32) | i);
                        session.get(&key);
                    }
                    session.finish()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let history = History::from_thread_logs(logs);
    let err = check_history(&history)
        .expect_err("a concurrent stale-read history without removes must not linearize");
    assert!(err.keys.iter().all(|&k| k < 4));
    assert!(!err.ops.is_empty());
}
