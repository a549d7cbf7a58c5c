//! Sequential contracts of the validated ordered reads (`range_scan`,
//! `successor`, `predecessor`) and the non-cloning `contains` fast path.
//!
//! Concurrent linearizability of the same operations is covered by the
//! top-level `linearizability.rs` scan battery and the explore-window
//! suite; this file pins the single-threaded semantics and accounting.

use citrus::{even_splitters, CitrusForest, CitrusTree, GlobalLockRcu, ReclaimMode, ScalableRcu};
use citrus_api::testkit::SplitMix64;
use citrus_api::OrderedMapSession;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type Tree = CitrusTree<u64, u64, GlobalLockRcu>;

fn populated() -> Tree {
    let tree = Tree::new();
    let mut s = tree.session();
    for k in [50u64, 25, 75, 12, 37, 62, 87] {
        s.insert(k, k * 10);
    }
    drop(s);
    tree
}

#[test]
fn range_scan_is_sorted_and_inclusive_on_both_ends() {
    let tree = populated();
    let mut s = tree.session();
    assert_eq!(
        s.range_scan(&25, &62),
        vec![(25, 250), (37, 370), (50, 500), (62, 620)]
    );
    // Bounds that fall between keys still clip correctly.
    assert_eq!(s.range_scan(&26, &61), vec![(37, 370), (50, 500)]);
    // Full range returns every pair in key order.
    let all = s.range_scan(&0, &u64::MAX);
    assert_eq!(all.len(), 7);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn degenerate_ranges_are_empty_not_errors() {
    let tree = populated();
    let mut s = tree.session();
    assert!(s.range_scan(&63, &74).is_empty(), "gap between keys");
    assert!(s.range_scan(&90, &10).is_empty(), "inverted bounds");
    assert_eq!(s.range_scan(&50, &50), vec![(50, 500)], "point range");

    let empty: Tree = Tree::new();
    let mut e = empty.session();
    assert!(e.range_scan(&0, &u64::MAX).is_empty(), "empty tree");
    assert_eq!(e.successor(&0), None);
    assert_eq!(e.predecessor(&u64::MAX), None);
}

#[test]
fn successor_and_predecessor_are_strict_and_sentinel_safe() {
    let tree = populated();
    let mut s = tree.session();
    // Strictly greater / strictly less: the probe key itself never counts.
    assert_eq!(s.successor(&50), Some((62, 620)));
    assert_eq!(s.predecessor(&50), Some((37, 370)));
    // Probes between keys.
    assert_eq!(s.successor(&40), Some((50, 500)));
    assert_eq!(s.predecessor(&40), Some((37, 370)));
    // Probes beyond the extremes walk into the sentinels and come back
    // empty rather than leaking the ±infinity keys.
    assert_eq!(s.successor(&87), None);
    assert_eq!(s.successor(&u64::MAX), None);
    assert_eq!(s.predecessor(&12), None);
    assert_eq!(s.predecessor(&0), None);
}

#[test]
fn sequential_scans_never_restart_and_are_counted() {
    let tree: CitrusTree<u64, u64, ScalableRcu> =
        CitrusTree::with_options(ScalableRcu::new(), ReclaimMode::Epoch, false);
    let mut s = tree.session();
    for k in 0..64u64 {
        s.insert(k, k);
    }
    for lo in (0..64).step_by(8) {
        assert_eq!(s.range_scan(&lo, &(lo + 7)).len(), 8);
    }
    s.successor(&10);
    s.predecessor(&10);
    assert_eq!(
        s.stats().scan_restarts(),
        0,
        "an uncontended scan must validate first try"
    );
    drop(s);
    #[cfg(feature = "stats")]
    {
        assert_eq!(
            tree.metrics().scan_ops(),
            10,
            "8 scans + successor + predecessor"
        );
        assert_eq!(tree.metrics().scan_restarts(), 0);
    }
}

/// A value whose clones are observable: `contains` must answer through
/// the non-cloning search path, while `get` pays exactly one clone.
#[derive(Debug)]
struct CloneCounter(Arc<AtomicUsize>);

impl Clone for CloneCounter {
    fn clone(&self) -> Self {
        self.0.fetch_add(1, Ordering::Relaxed);
        CloneCounter(Arc::clone(&self.0))
    }
}

#[test]
fn contains_never_clones_the_value() {
    let clones = Arc::new(AtomicUsize::new(0));
    let tree: CitrusTree<u64, CloneCounter, GlobalLockRcu> = CitrusTree::new();
    let mut s = tree.session();
    s.insert(7, CloneCounter(Arc::clone(&clones)));
    let baseline = clones.load(Ordering::Relaxed);

    assert!(s.contains(&7));
    assert!(!s.contains(&8));
    assert_eq!(
        clones.load(Ordering::Relaxed),
        baseline,
        "contains must not clone the value"
    );

    assert!(s.get(&7).is_some());
    assert_eq!(
        clones.load(Ordering::Relaxed),
        baseline + 1,
        "get clones the value exactly once"
    );
}

/// Keys of the buffer-reuse run: dense enough that a full-range scan
/// outgrows the walk buffers' retention cap, plus both `u64` extremes.
const REUSE_KEYS: u64 = 6_000;

fn oracle_scan(oracle: &BTreeMap<u64, u64>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
    if lo > hi {
        return Vec::new();
    }
    oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
}

fn oracle_successor(oracle: &BTreeMap<u64, u64>, key: u64) -> Option<(u64, u64)> {
    oracle
        .range((Bound::Excluded(key), Bound::Unbounded))
        .next()
        .map(|(&k, &v)| (k, v))
}

fn oracle_predecessor(oracle: &BTreeMap<u64, u64>, key: u64) -> Option<(u64, u64)> {
    oracle.range(..key).next_back().map(|(&k, &v)| (k, v))
}

/// Drives one long-lived session through mixed updates and ordered reads,
/// checking every read against a `BTreeMap`. The session reuses its walk
/// buffers from read to read, so a buffer that came back uncleared, or
/// was capped badly, shows up as a wrong answer here.
fn reuse_run(name: &str, s: &mut impl OrderedMapSession<u64, u64>) {
    let mut oracle = BTreeMap::new();
    let mut rng = SplitMix64::new(0x5EED);
    // A scan larger than the retention cap, then small ones: the capped
    // buffers must still answer correctly.
    for k in 0..REUSE_KEYS {
        let k = k * 3;
        s.insert(k, k + 1);
        oracle.insert(k, k + 1);
    }
    assert_eq!(
        s.range_scan(&0, &u64::MAX),
        oracle_scan(&oracle, 0, u64::MAX),
        "{name}: full scan"
    );
    for lo in [0, 1, 300, 3 * REUSE_KEYS - 64] {
        assert_eq!(
            s.range_scan(&lo, &(lo + 64)),
            oracle_scan(&oracle, lo, lo + 64),
            "{name}: [{lo}, +64] after a full scan"
        );
    }
    let key_space = 3 * REUSE_KEYS;
    for op in 0..12_000u32 {
        let r = rng.next_u64();
        let key = match r % 50 {
            0 => 0,
            1 => u64::MAX,
            _ => rng.below(key_space),
        };
        match (r >> 8) % 16 {
            0..=3 => {
                // An insert of a present key keeps the old value.
                let fresh = !oracle.contains_key(&key);
                if fresh {
                    oracle.insert(key, r);
                }
                assert_eq!(s.insert(key, r), fresh, "{name}: op {op} insert {key}");
            }
            4..=7 => assert_eq!(
                s.remove(&key),
                oracle.remove(&key).is_some(),
                "{name}: op {op} remove {key}"
            ),
            8..=11 => {
                let (lo, hi) = match (r >> 16) % 7 {
                    0 => (key, key),
                    1 => (key, key.saturating_add(1)),
                    2 => (key, key.saturating_add(64)),
                    3 => (key, key.saturating_add(4096)),
                    4 => (key.saturating_add(1), key),
                    5 if (r >> 24).is_multiple_of(8) => (0, u64::MAX),
                    _ => (key.saturating_sub(64), key),
                };
                assert_eq!(
                    s.range_scan(&lo, &hi),
                    oracle_scan(&oracle, lo, hi),
                    "{name}: op {op} range_scan [{lo}, {hi}]"
                );
            }
            12 | 13 => assert_eq!(
                s.successor(&key),
                oracle_successor(&oracle, key),
                "{name}: op {op} successor {key}"
            ),
            _ => assert_eq!(
                s.predecessor(&key),
                oracle_predecessor(&oracle, key),
                "{name}: op {op} predecessor {key}"
            ),
        }
    }
    for key in [0, 1, u64::MAX - 1, u64::MAX] {
        assert_eq!(
            s.successor(&key),
            oracle_successor(&oracle, key),
            "{name}: final successor {key}"
        );
        assert_eq!(
            s.predecessor(&key),
            oracle_predecessor(&oracle, key),
            "{name}: final predecessor {key}"
        );
    }
    assert_eq!(
        s.range_scan(&0, &u64::MAX),
        oracle_scan(&oracle, 0, u64::MAX),
        "{name}: final full scan"
    );
}

#[test]
fn long_lived_sessions_reuse_walk_buffers_correctly() {
    let tree: CitrusTree<u64, u64> = CitrusTree::new();
    reuse_run("tree", &mut tree.session());
    let hash: CitrusForest<u64, u64> = CitrusForest::with_shards(8);
    reuse_run("hash forest", &mut hash.session());
    let range: CitrusForest<u64, u64> =
        CitrusForest::with_range_router(even_splitters(8, 3 * REUSE_KEYS));
    reuse_run("range forest", &mut range.session());
}
