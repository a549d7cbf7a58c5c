//! Cross-layer metric invariants, checked through the public
//! observability surface (`register_metrics` → `MetricsSnapshot` →
//! `citrus_api::testkit::check_counter_dominates`).
//!
//! With the `stats` feature off the snapshot is empty and every check
//! passes vacuously, so this file compiles and runs in both modes.

use citrus::{CitrusTree, GlobalLockRcu, RcuFlavor, ScalableRcu};
use citrus_api::testkit::{check_counter_dominates, stress_watchdog, SplitMix64};
use citrus_obs::MetricsRegistry;
use std::sync::Barrier;

/// Runs a randomized single-threaded workload and returns the tree's
/// metrics snapshot.
fn churn_and_snapshot<F: RcuFlavor>(seed: u64) -> citrus_obs::MetricsSnapshot {
    let tree: CitrusTree<u64, u64, F> = CitrusTree::new();
    let mut s = tree.session();
    let mut rng = SplitMix64::new(seed);
    for k in 0..512u64 {
        s.insert(k, k);
    }
    for _ in 0..2_000 {
        let k = rng.below(512);
        if rng.below(2) == 0 {
            s.remove(&k);
        } else {
            s.insert(k, k);
        }
    }
    drop(s);
    let registry = MetricsRegistry::new();
    tree.register_metrics(&registry);
    registry.snapshot()
}

/// The paper's delete performs exactly one `synchronize_rcu` per
/// two-child delete (line 74), and the RCU flavor may run grace periods
/// for other reasons too — so flavor grace periods must dominate the
/// tree's recorded synchronize calls.
#[test]
fn grace_periods_cover_two_child_deletes_scalable() {
    let snap = churn_and_snapshot::<ScalableRcu>(0xC17);
    check_counter_dominates(
        &snap,
        (ScalableRcu::NAME, "synchronize_calls"),
        ("citrus", "synchronize_calls"),
    );
    // The workload is churny enough that two-child deletes must occur.
    if !snap.is_empty() {
        let two_child = snap.counter("citrus", "synchronize_calls").unwrap();
        assert!(two_child > 0, "workload produced no two-child deletes");
    }
}

/// Same invariant under the standard (global-lock) RCU flavor.
#[test]
fn grace_periods_cover_two_child_deletes_global_lock() {
    let snap = churn_and_snapshot::<GlobalLockRcu>(0x90B);
    check_counter_dominates(
        &snap,
        (GlobalLockRcu::NAME, "synchronize_calls"),
        ("citrus", "synchronize_calls"),
    );
}

/// Every insert/remove acquires at least one lock, so lock acquisitions
/// must dominate retries (a retry re-runs the locking step).
#[test]
fn lock_acquisitions_dominate_retries() {
    let snap = churn_and_snapshot::<ScalableRcu>(0x10C);
    check_counter_dominates(
        &snap,
        ("citrus", "lock_acquisitions"),
        ("citrus", "insert_retries"),
    );
    check_counter_dominates(
        &snap,
        ("citrus", "lock_acquisitions"),
        ("citrus", "remove_retries"),
    );
}

/// Under concurrency the invariant still holds: grace periods observed
/// after all sessions quiesce dominate the tree's synchronize count.
#[test]
fn invariant_holds_under_concurrency() {
    let _watchdog = stress_watchdog("invariant_holds_under_concurrency");
    const THREADS: u64 = 4;
    let tree: CitrusTree<u64, u64, ScalableRcu> = CitrusTree::new();
    {
        let mut s = tree.session();
        for k in 0..1024u64 {
            s.insert(k, k);
        }
    }
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (tree, barrier) = (&tree, &barrier);
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xACE ^ t);
                let mut s = tree.session();
                barrier.wait();
                for _ in 0..1_500 {
                    let k = rng.below(1024);
                    match rng.below(3) {
                        0 => {
                            s.insert(k, k);
                        }
                        1 => {
                            s.remove(&k);
                        }
                        _ => {
                            s.get(&k);
                        }
                    }
                }
            });
        }
    });
    let registry = MetricsRegistry::new();
    tree.register_metrics(&registry);
    check_counter_dominates(
        &registry.snapshot(),
        (ScalableRcu::NAME, "synchronize_calls"),
        ("citrus", "synchronize_calls"),
    );
}
