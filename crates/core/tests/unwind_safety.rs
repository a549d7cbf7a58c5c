//! Panic-safety of the Citrus tree: a panic from *user code* (a `Clone` or
//! `Ord` impl) inside a read-side critical section or while holding node
//! locks must not wedge later `synchronize_rcu` callers, leave node locks
//! held, or corrupt the structure. These tests run with default features —
//! unwind safety is an RAII property, not a chaos-mode one.

use citrus::{CitrusForest, CitrusTree};
use citrus_api::testkit::stress_watchdog;
use citrus_rcu::{RcuFlavor, RcuHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A value whose `Clone` panics while armed. The two-child delete clones
/// the successor's value *while holding up to five node locks*.
#[derive(Debug)]
struct Bomb {
    id: u64,
    armed: Arc<AtomicBool>,
}

impl Bomb {
    fn new(id: u64, armed: &Arc<AtomicBool>) -> Self {
        Self {
            id,
            armed: Arc::clone(armed),
        }
    }
}

impl Clone for Bomb {
    fn clone(&self) -> Self {
        assert!(
            !self.armed.load(Ordering::Relaxed),
            "bomb clone panicked (id {})",
            self.id
        );
        Self {
            id: self.id,
            armed: Arc::clone(&self.armed),
        }
    }
}

/// A key whose `Ord` panics while armed: detonates inside the wait-free
/// search, i.e. inside the RCU read-side critical section.
#[derive(Debug, Clone)]
struct PanickyKey {
    id: u64,
    armed: Arc<AtomicBool>,
}

impl PartialEq for PanickyKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for PanickyKey {}

impl PanickyKey {
    fn new(id: u64, armed: &Arc<AtomicBool>) -> Self {
        Self {
            id,
            armed: Arc::clone(armed),
        }
    }
}

impl PartialOrd for PanickyKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PanickyKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        assert!(
            !self.armed.load(Ordering::Relaxed),
            "key comparison panicked (id {})",
            self.id
        );
        self.id.cmp(&other.id)
    }
}

/// A panic out of `Clone` during a two-child delete — while `prev`,
/// `curr`, `prev_succ`, and `succ` are all locked — must release every
/// lock: the *same* delete retried afterwards must succeed, not deadlock.
#[test]
fn panic_under_node_locks_releases_them() {
    let armed = Arc::new(AtomicBool::new(false));
    let mut tree: CitrusTree<u64, Bomb> = CitrusTree::new();
    {
        let mut s = tree.session();
        for key in [50u64, 25, 75, 60, 85] {
            assert!(s.insert(key, Bomb::new(key, &armed)));
        }

        // Key 50 has two children; its successor is 60, whose value the
        // delete clones under the full lock set.
        armed.store(true, Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(|| s.remove(&50)));
        let err = result.expect_err("the armed bomb must panic the remove");
        let msg = err
            .downcast_ref::<String>()
            .expect("assert! produces a String payload");
        assert!(
            msg.contains("bomb clone panicked"),
            "unexpected panic: {msg}"
        );
        armed.store(false, Ordering::Relaxed);

        // All five locks must have been released: the retried delete takes
        // them again (a held lock would spin forever, tripping the CI
        // timeout instead of passing silently).
        assert!(s.remove(&50), "retried two-child delete must succeed");
        assert!(s.contains(&60), "successor must have survived the panic");
        assert!(!s.contains(&50));

        // Another two-child delete exercises synchronize_rcu after the
        // recovery — the grace-period machinery must be intact too.
        assert!(s.insert(70, Bomb::new(70, &armed)));
        assert!(s.remove(&75), "delete of a two-child node must complete");
        // Two two-child deletes: inline mode synchronizes each, deferred
        // mode enqueues each (CITRUS_DEFERRED_FREE picks the mode).
        assert_eq!(
            s.stats().synchronize_calls() + s.stats().deferred_unlinks(),
            2
        );
    }
    let stats = tree
        .validate_structure()
        .expect("tree must satisfy all structural invariants after the panic");
    assert_eq!(stats.len, 4); // 25, 60, 70, 85
}

/// A panic inside the RCU read-side critical section (from a user `Ord`)
/// must exit the read section during unwinding: a later `synchronize_rcu`
/// — here via a two-child delete — must not wait on the dead section.
#[test]
fn panic_inside_read_section_does_not_block_synchronize() {
    let _watchdog = stress_watchdog("panic_inside_read_section_does_not_block_synchronize");
    let armed = Arc::new(AtomicBool::new(false));
    let mut tree: CitrusTree<PanickyKey, u64> = CitrusTree::new();
    {
        let mut s = tree.session();
        for id in [50u64, 25, 75, 60, 85] {
            assert!(s.insert(PanickyKey::new(id, &armed), id));
        }

        // Caught in-thread: the guard must unwind out of the section.
        armed.store(true, Ordering::Relaxed);
        let probe = PanickyKey::new(60, &armed);
        catch_unwind(AssertUnwindSafe(|| s.get(&probe)))
            .expect_err("the armed key must panic the search");
        armed.store(false, Ordering::Relaxed);

        // Synchronize runs on this same session's RCU handle; a leaked
        // read section on it would self-deadlock (debug) or wedge.
        assert!(s.remove(&PanickyKey::new(50, &armed)));
        assert_eq!(
            s.stats().synchronize_calls() + s.stats().deferred_unlinks(),
            1
        );
    }

    // Uncaught in a worker thread: the thread dies mid-read-section; its
    // unwound guard + session must leave the domain able to synchronize.
    {
        let armed = &armed;
        let tree_ref = &tree;
        std::thread::scope(|scope| {
            let worker = scope.spawn(move || {
                let mut s = tree_ref.session();
                armed.store(true, Ordering::Relaxed);
                let probe = PanickyKey::new(25, armed);
                s.get(&probe); // panics; nothing catches it in this thread
            });
            assert!(
                worker.join().is_err(),
                "the worker must have died from the key panic"
            );
            armed.store(false, Ordering::Relaxed);
            let mut s = tree_ref.session();
            // Any delete completing (and the read below) proves updaters
            // and readers both outlive the dead thread's read section.
            assert!(s.remove(&PanickyKey::new(60, armed)));
            assert!(s.contains(&PanickyKey::new(85, armed)));
        });
    }

    tree.validate_structure()
        .expect("tree must satisfy all structural invariants after both panics");
}

/// The ids of a scan's entries, for comparing results of `Bomb` values.
fn ids(entries: &[(u64, Bomb)]) -> Vec<(u64, u64)> {
    entries.iter().map(|(k, v)| (*k, v.id)).collect()
}

/// A panic out of `Clone` while a scan extracts its entries — inside the
/// read-side section, with the walk's buffers taken from the session —
/// must leave that session able to scan correctly (its next walk starts
/// from fresh buffers), and must not leave a read section open that
/// another thread's `synchronize` would wait on.
#[test]
fn panic_during_scan_extraction_leaves_the_session_usable() {
    let _watchdog = stress_watchdog("panic_during_scan_extraction_leaves_the_session_usable");
    let armed = Arc::new(AtomicBool::new(false));
    let expected: Vec<(u64, u64)> = (10..=40).map(|k| (k, k)).collect();

    let tree: CitrusTree<u64, Bomb> = CitrusTree::new();
    let forest: CitrusForest<u64, Bomb> = CitrusForest::with_shards(8);
    let mut t = tree.session();
    let mut f = forest.session();
    for k in 0..64u64 {
        assert!(t.insert(k, Bomb::new(k, &armed)));
        assert!(f.insert(k, Bomb::new(k, &armed)));
    }
    // Warm both sessions so the panicking scans run on reused buffers.
    assert_eq!(ids(&t.range_scan(&10, &40)), expected);
    assert_eq!(ids(&f.range_scan(&10, &40)), expected);

    armed.store(true, Ordering::Relaxed);
    catch_unwind(AssertUnwindSafe(|| t.range_scan(&10, &40)))
        .expect_err("the armed bomb must panic the tree scan");
    catch_unwind(AssertUnwindSafe(|| f.range_scan(&10, &40)))
        .expect_err("the armed bomb must panic the forest scan");
    armed.store(false, Ordering::Relaxed);

    // Another thread's grace period on every domain the scans read in.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            tree.rcu().register().synchronize();
            for shard in 0..forest.shard_count() {
                forest.shard(shard).rcu().register().synchronize();
            }
        });
    });

    assert_eq!(
        ids(&t.range_scan(&10, &40)),
        expected,
        "tree scan after the panic"
    );
    assert_eq!(
        ids(&f.range_scan(&10, &40)),
        expected,
        "forest scan after the panic"
    );
    assert_eq!(ids(&t.range_scan(&0, &u64::MAX)).len(), 64);
    assert_eq!(ids(&f.range_scan(&0, &u64::MAX)).len(), 64);
}
