//! Tests pinned to specific lines of the paper's pseudocode: tag
//! behavior (`incrementTag`, Lemma 3), validation-retry accounting, and
//! the exact retire/synchronize pattern of `delete`.

use citrus::{
    CitrusForest, CitrusTree, InvariantViolation, RcuFlavor, ReclaimMode, ScalableRcu, TreeStats,
};
use citrus_api::testkit::{stress_watchdog, SplitMix64};
use citrus_api::{ConcurrentMap, MapSession};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

type Tree = CitrusTree<u64, u64, ScalableRcu>;

/// A tree whose two-child deletes pay the paper's `synchronize_rcu`
/// (line 74): the tests below assert line-74 accounting.
fn inline_tree() -> Tree {
    Tree::with_reclaim(ReclaimMode::Epoch)
}

/// One synchronize_rcu per two-child delete; none for leaf/one-child
/// deletes or inserts (paper: line 74 is the only synchronize call).
#[test]
fn synchronize_only_on_two_child_deletes() {
    let tree = inline_tree();
    let mut s = tree.session();

    for k in [50, 25, 75, 12, 37, 62, 87] {
        s.insert(k, k);
    }
    assert_eq!(
        s.stats().synchronize_calls(),
        0,
        "inserts never synchronize"
    );

    assert!(s.remove(&12)); // leaf
    assert_eq!(
        s.stats().synchronize_calls(),
        0,
        "leaf delete must not synchronize"
    );

    assert!(s.remove(&37)); // 25 still has child 37? no: removing 37 itself (leaf)
    assert_eq!(s.stats().synchronize_calls(), 0);

    assert!(s.remove(&25)); // one child left (both grandchildren gone)
    assert_eq!(
        s.stats().synchronize_calls(),
        0,
        "one-child delete must not synchronize"
    );

    assert!(s.remove(&75)); // two children (62, 87) → successor move
    assert_eq!(
        s.stats().synchronize_calls(),
        1,
        "two-child delete synchronizes once"
    );
}

/// Grace-period count on the tree's RCU domain equals the number of
/// successful two-child deletes across all sessions.
#[test]
fn grace_periods_track_successor_moves() {
    let tree = inline_tree();
    let mut moves = 0;
    {
        let mut s = tree.session();
        let mut rng = SplitMix64::new(0x6A7);
        let mut present = std::collections::BTreeSet::new();
        for k in 0..256u64 {
            s.insert(k, k);
            present.insert(k);
        }
        for _ in 0..600 {
            let k = rng.below(256);
            if present.remove(&k) {
                let before = s.stats().synchronize_calls();
                assert!(s.remove(&k));
                if s.stats().synchronize_calls() > before {
                    moves += 1;
                }
            } else {
                s.insert(k, k);
                present.insert(k);
            }
        }
    }
    assert!(moves > 0, "workload must hit two-child deletes");
    assert_eq!(tree.rcu().grace_periods(), moves);
}

/// Validation failures are observable through the retry counters when two
/// updaters fight over the same keys (the paper's restart path, lines 32
/// and 84). Left to the scheduler, one thread could run its whole loop
/// before the next one starts, so a barrier starts every round on all
/// threads at once, and rounds continue until some update has retried.
#[test]
fn contention_produces_validation_retries() {
    let _watchdog = stress_watchdog("contention_produces_validation_retries");
    const THREADS: usize = 4;
    const BURST: usize = 500;
    const MAX_ROUNDS: usize = 2_000;
    let tree = Tree::with_reclaim(ReclaimMode::Epoch);
    let total_retries = AtomicU64::new(0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let (tree, barrier, total_retries) = (&tree, &barrier, &total_retries);
            scope.spawn(move || {
                let mut rng = SplitMix64::new(t);
                let mut s = tree.session();
                let mut reported = 0;
                for _ in 0..MAX_ROUNDS {
                    barrier.wait();
                    // Tiny key range → constant same-node contention.
                    for _ in 0..BURST {
                        let k = rng.below(8);
                        if rng.below(2) == 0 {
                            s.insert(k, k);
                        } else {
                            s.remove(&k);
                        }
                    }
                    let retries = s.stats().insert_retries() + s.stats().remove_retries();
                    total_retries.fetch_add(retries - reported, Ordering::Relaxed);
                    reported = retries;
                    // Every thread has reported this round, and none
                    // reports again before all have read the total: they
                    // all stop after the same round.
                    barrier.wait();
                    if total_retries.load(Ordering::Relaxed) > 0 {
                        break;
                    }
                }
            });
        }
    });
    assert!(
        total_retries.load(Ordering::Relaxed) > 0,
        "{THREADS} threads × {MAX_ROUNDS} rounds of {BURST} updates on 8 keys \
         must trip validation at least once"
    );
    let mut tree = tree;
    tree.validate_structure().unwrap();
}

/// The ABA scenario Lemma 3's tags exist for: between a search and its
/// validation, a child pointer goes null → non-null → null again. Without
/// tags the stale insert would be wrongly validated; with tags the insert
/// must retry (observable: no lost updates, structure intact).
#[test]
fn tag_aba_hammer() {
    let _watchdog = stress_watchdog("tag_aba_hammer");
    let tree = Tree::new();
    {
        let mut s = tree.session();
        s.insert(100, 100); // anchor whose child slots flap
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Flapper: makes 100's right child slot cycle null→50?no, use 150.
        let (t1, stop1) = (&tree, &stop);
        scope.spawn(move || {
            let mut s = t1.session();
            for _ in 0..30_000 {
                s.insert(150, 150);
                s.remove(&150);
            }
            stop1.store(true, Ordering::Relaxed);
        });
        // Competitor: inserts/removes a key that lands in the same slot
        // region (between 100 and 150 both hang right of 100 depending on
        // shape), maximizing tag-validated inserts.
        let (t2, stop2) = (&tree, &stop);
        scope.spawn(move || {
            let mut s = t2.session();
            while !stop2.load(Ordering::Relaxed) {
                if s.insert(125, 125) {
                    assert_eq!(s.get(&125), Some(125));
                    assert!(s.remove(&125));
                }
            }
        });
    });
    let mut tree = tree;
    tree.validate_structure().unwrap();
    let mut s = tree.session();
    assert_eq!(s.get(&100), Some(100), "anchor must survive");
}

/// Degenerate shapes: ascending and descending insertion build chains
/// (the tree is unbalanced by design); operations stay correct at depth.
#[test]
fn degenerate_chains_work() {
    for descending in [false, true] {
        let tree = Tree::new();
        let mut s = tree.session();
        let keys: Vec<u64> = if descending {
            (0..2_000).rev().collect()
        } else {
            (0..2_000).collect()
        };
        for &k in &keys {
            assert!(s.insert(k, k));
        }
        assert_eq!(s.get(&0), Some(0));
        assert_eq!(s.get(&1_999), Some(1_999));
        // Delete from the middle of the chain (one-child bypasses).
        for k in 500..1_500u64 {
            assert!(s.remove(&k));
        }
        drop(s);
        let mut tree = tree;
        let stats = tree.validate_structure().unwrap();
        assert_eq!(stats.len, 1_000);
        assert!(stats.height >= 1_000, "chain shape expected");
    }
}

/// Session statistics are independent across sessions of the same tree.
#[test]
fn session_stats_are_per_session() {
    let tree = inline_tree();
    let mut a = tree.session();
    let mut b = tree.session();
    for k in [10, 5, 20, 15, 25] {
        a.insert(k, k);
    }
    a.remove(&10); // two children → one synchronize in a
    assert_eq!(a.stats().synchronize_calls(), 1);
    assert_eq!(b.stats().synchronize_calls(), 0);
    b.remove(&20);
    assert!(b.stats().synchronize_calls() <= 1);
}

/// Drives the search descent (lines 1–15) through the key space's
/// extremes on `map`, against a `BTreeMap`, validating the structure after
/// every step: `u64::MIN` and `1` sit just above the `−1` sentinel, and
/// `u64::MAX - 1` and `u64::MAX` just below `∞`. First comes a two-child
/// delete whose successor is `u64::MAX`, so the successor walk (lines
/// 63–67) ends at the largest key. `route` names a key's shard, so the
/// two-child shape is built inside `u64::MAX`'s shard.
fn descent_edges<M: ConcurrentMap<u64, u64>>(
    mut map: M,
    route: impl Fn(&M, &u64) -> usize,
    validate: impl Fn(&mut M) -> Result<TreeStats, InvariantViolation>,
) {
    let mut model = BTreeMap::new();
    let check = |map: &mut M, model: &BTreeMap<u64, u64>, step: &str| -> TreeStats {
        let stats = validate(map).unwrap_or_else(|e| panic!("after {step}: {e:?}"));
        assert_eq!(stats.len, model.len(), "key count after {step}");
        stats
    };

    let home = route(&map, &u64::MAX);
    let mut same_shard = (2u64..).filter(|k| route(&map, k) == home);
    let (a, b) = (same_shard.next().unwrap(), same_shard.next().unwrap());
    for k in [b, a, u64::MAX] {
        assert!(map.session().insert(k, k));
        model.insert(k, k);
        check(&mut map, &model, &format!("insert({k})"));
    }
    let stats = check(&mut map, &model, "building the two-child node");
    assert_eq!(stats.height, 2, "{b} must have children {a} and u64::MAX");
    assert!(map.session().remove(&b), "two-child delete of {b}");
    model.remove(&b);
    check(&mut map, &model, &format!("remove({b})"));
    {
        let mut s = map.session();
        assert_eq!(s.get(&b), None);
        assert_eq!(s.get(&a), Some(a));
        assert_eq!(s.get(&u64::MAX), Some(u64::MAX), "the moved successor");
        assert!(s.remove(&a) && s.remove(&u64::MAX));
    }
    model.clear();
    check(&mut map, &model, "emptying");

    let edges = [u64::MIN, 1, u64::MAX - 1, u64::MAX];
    let reads = |map: &M, model: &BTreeMap<u64, u64>, step: &str| {
        let mut s = map.session();
        for k in edges {
            assert_eq!(s.get(&k), model.get(&k).copied(), "get({k}) after {step}");
            assert_eq!(
                s.contains(&k),
                model.contains_key(&k),
                "contains({k}) after {step}"
            );
        }
    };
    reads(&map, &model, "emptying");
    for (round, order) in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]]
        .iter()
        .enumerate()
    {
        let value = round as u64;
        for &i in order {
            let k = edges[i];
            let step = format!("round {round}: insert({k})");
            assert_eq!(
                map.session().insert(k, value),
                !model.contains_key(&k),
                "{step}"
            );
            model.entry(k).or_insert(value);
            check(&mut map, &model, &step);
            reads(&map, &model, &step);
        }
        for &i in order.iter().rev() {
            let k = edges[i];
            let step = format!("round {round}: remove({k})");
            assert_eq!(
                map.session().remove(&k),
                model.remove(&k).is_some(),
                "{step}"
            );
            check(&mut map, &model, &step);
            reads(&map, &model, &step);
            assert!(!map.session().remove(&k), "second {step}");
        }
    }
}

/// The descent at the extreme keys, on a tree and on 1- and 8-shard
/// forests (hash-routed, so the forests' shards see different key mixes).
#[test]
fn descent_handles_extreme_keys() {
    descent_edges(inline_tree(), |_, _| 0, |t| t.validate_structure());
    for shards in [1, 8] {
        let forest: CitrusForest<u64, u64, ScalableRcu> =
            CitrusForest::with_config(shards, 0x5EED, ReclaimMode::Epoch);
        descent_edges(forest, |f, k| f.shard_for(k), |f| f.validate_structure());
    }
}
