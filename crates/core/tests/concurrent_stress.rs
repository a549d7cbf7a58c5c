//! Concurrency stress tests targeting the algorithm's delicate regions:
//! successor moves racing with searches (the paper's Figure 4 scenario),
//! inserts racing with deletes at the same node (Figure 5), and reader
//! storms during update-heavy churn.

use citrus::{CitrusTree, GlobalLockRcu, ReclaimMode, ScalableRcu};
use citrus_api::testkit::{self, stress_iters, SplitMix64};
use citrus_rcu::RcuFlavor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

/// Figure 4 scenario: deletes constantly relocate successors while readers
/// search for exactly those successor keys. A reader must never miss a key
/// that is permanently present.
///
/// Each round builds a fresh five-key block `{base+10, base+5, base+30,
/// base+20, base+40}` (insertion order fixes the local shape: base+10 on
/// top with two children, successor base+20), then deletes `base+10` —
/// forcing a genuine successor relocation of the never-deleted `base+20`.
fn successor_move_vs_search<F: RcuFlavor>(mode: ReclaimMode) {
    let rounds = stress_iters(300);
    let tree: CitrusTree<u64, u64, F> = CitrusTree::with_reclaim(mode);
    let published = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let false_negatives = AtomicU64::new(0);
    let barrier = Barrier::new(3);

    std::thread::scope(|scope| {
        {
            let (tree, stop, barrier, published) = (&tree, &stop, &barrier, &published);
            scope.spawn(move || {
                let mut s = tree.session();
                barrier.wait();
                for r in 0..rounds {
                    let base = r * 100;
                    for k in [10, 5, 30, 20, 40] {
                        s.insert(base + k, base + k + 1);
                    }
                    published.store(r + 1, Ordering::Release);
                    // base+10 has two children; successor base+20 moves.
                    s.remove(&(base + 10));
                    if r % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        // Two readers hammer the permanent (base+20) keys of completed
        // rounds.
        for t in 0..2u64 {
            let (tree, stop, barrier, published, false_negatives) =
                (&tree, &stop, &barrier, &published, &false_negatives);
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xBEAD + t);
                let mut s = tree.session();
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let rounds = published.load(Ordering::Acquire);
                    if rounds == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    let key = rng.below(rounds) * 100 + 20;
                    match s.get(&key) {
                        Some(v) => assert_eq!(v, key + 1, "wrong value for key {key}"),
                        None => {
                            // Permanent keys are never removed: this is the
                            // Figure 4 false negative the RCU barrier must
                            // prevent.
                            false_negatives.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        false_negatives.load(Ordering::Relaxed),
        0,
        "a search missed a permanently present key (Figure 4 false negative)"
    );
    assert!(
        tree.rcu().grace_periods() >= rounds,
        "every round must have executed a two-child delete (got {} grace periods)",
        tree.rcu().grace_periods()
    );
    let mut tree = tree;
    tree.validate_structure().expect("structure after churn");
}

#[test]
fn successor_move_vs_search_scalable_epoch() {
    let _watchdog = testkit::stress_watchdog("successor_move_vs_search_scalable_epoch");
    successor_move_vs_search::<ScalableRcu>(ReclaimMode::Epoch);
}

#[test]
fn successor_move_vs_search_scalable_leak() {
    let _watchdog = testkit::stress_watchdog("successor_move_vs_search_scalable_leak");
    successor_move_vs_search::<ScalableRcu>(ReclaimMode::Leak);
}

#[test]
fn successor_move_vs_search_global_lock() {
    let _watchdog = testkit::stress_watchdog("successor_move_vs_search_global_lock");
    successor_move_vs_search::<GlobalLockRcu>(ReclaimMode::Epoch);
}

/// Figure 5 scenario: inserts race with deletes of the would-be parent.
/// Each key is inserted by exactly one thread; the insert must be visible
/// afterwards even if the parent was concurrently deleted (the tag +
/// marked validation must force a retry rather than losing the insert).
fn insert_vs_parent_delete<F: RcuFlavor>(mode: ReclaimMode) {
    let rounds = stress_iters(300);
    let tree: CitrusTree<u64, u64, F> = CitrusTree::with_reclaim(mode);
    let barrier = Barrier::new(2);

    // Thread A repeatedly inserts/removes "parents" p; thread B inserts
    // children that would land under p, each exactly once, and verifies.
    std::thread::scope(|scope| {
        let (tree_a, barrier_a) = (&tree, &barrier);
        scope.spawn(move || {
            let mut s = tree_a.session();
            barrier_a.wait();
            for r in 0..rounds {
                let parent = r * 10 + 5;
                s.insert(parent, parent);
                // Give B a chance to pick the parent as `prev`, then
                // delete it out from under B's pending insert.
                s.remove(&parent);
            }
        });
        let (tree_b, barrier_b) = (&tree, &barrier);
        scope.spawn(move || {
            let mut s = tree_b.session();
            barrier_b.wait();
            for r in 0..rounds {
                let child = r * 10 + 6; // would hang under parent r*10+5
                assert!(s.insert(child, child), "insert({child}) lost");
                assert_eq!(s.get(&child), Some(child), "insert({child}) vanished");
            }
        });
    });

    let mut s = tree.session();
    for r in 0..rounds {
        let child = r * 10 + 6;
        assert_eq!(s.get(&child), Some(child), "key {child} missing at the end");
    }
    drop(s);
    let mut tree = tree;
    let stats = tree.validate_structure().unwrap();
    assert!(stats.len >= rounds as usize);
}

#[test]
fn insert_vs_parent_delete_scalable() {
    let _watchdog = testkit::stress_watchdog("insert_vs_parent_delete_scalable");
    insert_vs_parent_delete::<ScalableRcu>(ReclaimMode::Epoch);
}

#[test]
fn insert_vs_parent_delete_global_lock() {
    let _watchdog = testkit::stress_watchdog("insert_vs_parent_delete_global_lock");
    insert_vs_parent_delete::<GlobalLockRcu>(ReclaimMode::Leak);
}

/// Full-mix churn with periodic quiescent audits: workers run a random
/// 50/25/25 mix in waves; between waves (all workers parked at a barrier)
/// one thread audits structure via a fresh exclusive handle.
#[test]
fn waves_of_churn_with_structural_audits() {
    let _watchdog = testkit::stress_watchdog("waves_of_churn_with_structural_audits");
    const THREADS: usize = 8;
    const WAVES: usize = 5;
    const RANGE: u64 = 512;
    let ops_per_wave = stress_iters(2_000) as usize;

    let mut tree: CitrusTree<u64, u64> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
    for wave in 0..WAVES {
        {
            let tree = &tree;
            let barrier = Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut rng = SplitMix64::new((wave as u64) << 32 | t as u64 | 0xA5A5_0000);
                        let mut s = tree.session();
                        barrier.wait();
                        for _ in 0..ops_per_wave {
                            let k = rng.below(RANGE);
                            match rng.below(4) {
                                0 => {
                                    s.insert(k, k * 7 + 1);
                                }
                                1 => {
                                    s.remove(&k);
                                }
                                _ => {
                                    if let Some(v) = s.get(&k) {
                                        assert_eq!(v, k * 7 + 1);
                                    }
                                }
                            }
                        }
                    });
                }
            });
        }
        // Quiescent: audit.
        let stats = tree.validate_structure().unwrap_or_else(|e| {
            panic!("wave {wave}: structural invariant violated: {e}");
        });
        assert!(stats.len <= RANGE as usize);
    }
}

/// Update-only storm (100% updates): maximal synchronize_rcu pressure with
/// two-child deletes; verifies no deadlock and final consistency.
#[test]
fn update_only_storm() {
    let _watchdog = testkit::stress_watchdog("update_only_storm");
    const THREADS: usize = 8;
    const RANGE: u64 = 128;
    let ops = stress_iters(3_000) as usize;

    let tree: CitrusTree<u64, u64> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
    {
        let mut s = tree.session();
        for k in 0..RANGE {
            s.insert(k, k);
        }
    }
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let (tree, barrier) = (&tree, &barrier);
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xD00D ^ t);
                let mut s = tree.session();
                barrier.wait();
                for _ in 0..ops {
                    let k = rng.below(RANGE);
                    if rng.below(2) == 0 {
                        s.insert(k, k);
                    } else {
                        s.remove(&k);
                    }
                }
            });
        }
    });
    let mut tree = tree;
    tree.validate_structure()
        .expect("structure after update storm");
}

/// Sessions created and destroyed concurrently with operations (slot reuse
/// under churn) must not corrupt RCU or reclamation state.
#[test]
fn session_churn_during_operations() {
    let _watchdog = testkit::stress_watchdog("session_churn_during_operations");
    const RANGE: u64 = 64;
    let batches = stress_iters(150);
    let tree: CitrusTree<u64, u64> = CitrusTree::new();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Steady worker.
        let (tree_w, stop_w) = (&tree, &stop);
        scope.spawn(move || {
            let mut rng = SplitMix64::new(1);
            let mut s = tree_w.session();
            while !stop_w.load(Ordering::Relaxed) {
                let k = rng.below(RANGE);
                s.insert(k, k);
                s.remove(&k);
            }
        });
        // Churning sessions: a fresh session per small batch.
        for t in 0..3u64 {
            let (tree_c, stop_c) = (&tree, &stop);
            scope.spawn(move || {
                let mut rng = SplitMix64::new(100 + t);
                for _ in 0..batches {
                    let mut s = tree_c.session();
                    for _ in 0..50 {
                        let k = rng.below(RANGE);
                        match rng.below(3) {
                            0 => {
                                s.insert(k, k);
                            }
                            1 => {
                                s.remove(&k);
                            }
                            _ => {
                                let _ = s.get(&k);
                            }
                        }
                    }
                }
                if t == 0 {
                    stop_c.store(true, Ordering::Relaxed);
                }
            });
        }
    });
    let mut tree = tree;
    tree.validate_structure()
        .expect("structure after session churn");
}
