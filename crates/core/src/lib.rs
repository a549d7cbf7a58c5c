//! # Citrus: concurrent updates with RCU
//!
//! A from-scratch Rust implementation of the **Citrus tree** from
//! Maya Arbel and Hagit Attiya, *"Concurrent Updates with RCU: Search Tree
//! as an Example"*, PODC 2014 — the first RCU-based data structure that
//! allows concurrent updaters.
//!
//! Citrus is an internal (keys in all nodes), unbalanced binary search
//! tree implementing a dictionary:
//!
//! * [`CitrusSession::get`] / [`CitrusSession::contains`] — **wait-free**,
//!   runs inside an RCU read-side critical section, never blocks and never
//!   retries, and proceeds in parallel with updates.
//! * [`CitrusSession::insert`] / [`CitrusSession::remove`] — synchronize
//!   among themselves with **fine-grained per-node locks**, validated
//!   after acquisition (restarting on failure), and with readers through
//!   RCU: a `delete` that must relocate a node's successor first inserts a
//!   *copy* at the new location, calls `synchronize_rcu` to wait out every
//!   search that might still find the successor at its old location, and
//!   only then unlinks the original. Every two-child delete takes this
//!   path, holding the copy's lock throughout (DESIGN.md §6g records the
//!   deferred `call_rcu` variant that was tried and removed).
//!
//! Configuration is constructor arguments only: the crate reads no
//! environment variable.
//!
//! The tree is generic over the RCU implementation ([`RcuFlavor`]): the
//! paper's scalable flavor ([`ScalableRcu`], default) or the classic
//! global-lock flavor whose breakdown under concurrent updates the paper's
//! Figure 8 demonstrates.
//!
//! ## Quick start
//!
//! ```
//! use citrus::CitrusTree;
//!
//! let tree: CitrusTree<u64, String> = CitrusTree::new();
//!
//! // One session per thread.
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut session = tree.session();
//!         session.insert(1, "readers never block".to_string());
//!     });
//!     s.spawn(|| {
//!         let mut session = tree.session();
//!         let _ = session.get(&1); // wait-free, even during updates
//!     });
//! });
//! ```
//!
//! ## Memory reclamation
//!
//! The paper's experiments run with reclamation disabled; its future work
//! asks for proper reclamation. Both are available ([`ReclaimMode`]):
//! `Leak` queues removed nodes until the tree drops (the paper's
//! methodology), `Epoch` (default) retires them to an epoch-based
//! reclamation domain and frees them after a grace period.
//!
//! ## Crate map
//!
//! | paper artifact | here |
//! |---|---|
//! | `get` lines 1–15 | `CitrusSession::search` (internal) |
//! | `contains` 16–20 | [`CitrusSession::get`] |
//! | `insert` 21–32 | [`CitrusSession::insert`] |
//! | `validate` 33–38 | `tree::validate` (internal) |
//! | `incrementTag` 39–41 | `node::Node::increment_tag` (internal) |
//! | `delete` 42–84 | [`CitrusSession::remove`] |
//! | WBST / linearizability (§4) | [`CitrusTree::validate_structure`] + test suites |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checks;
mod forest;
mod metrics;
mod node;
mod pool;
mod tree;

pub use checks::{InvariantViolation, TreeStats};
pub use citrus_rcu::{GlobalLockRcu, RcuFlavor, ScalableRcu};
pub use forest::{CitrusForest, ForestMetrics, ForestSession};
pub use metrics::TreeMetrics;
pub use tree::{CitrusSession, CitrusTree, ReclaimMode, SessionStats, WALK_BUF_RETAIN};

#[cfg(test)]
mod tests {
    use super::*;
    use citrus_api::testkit;

    type Tree = CitrusTree<u64, u64>;
    type TreeStd = CitrusTree<u64, u64, GlobalLockRcu>;

    fn all_modes() -> [ReclaimMode; 2] {
        [ReclaimMode::Leak, ReclaimMode::Epoch]
    }

    #[test]
    fn empty_tree_behaves() {
        for mode in all_modes() {
            let tree = Tree::with_reclaim(mode);
            let mut s = tree.session();
            assert_eq!(s.get(&1), None);
            assert!(!s.contains(&1));
            assert!(!s.remove(&1));
            drop(s);
            let mut tree = tree;
            assert!(tree.is_empty_quiescent());
            tree.validate_structure().unwrap();
        }
    }

    #[test]
    fn is_empty_quiescent_reads_the_sentinel() {
        let mut tree = Tree::new();
        assert!(tree.is_empty_quiescent(), "a new tree is empty");
        assert!(tree.session().insert(7, 70));
        assert!(!tree.is_empty_quiescent(), "one key");
        {
            let mut s = tree.session();
            for k in [3, 11, 1, 5] {
                assert!(s.insert(k, k));
            }
            // Two-child, one-child and leaf deletes all empty it in turn.
            for k in [7, 3, 11, 1, 5] {
                assert!(s.remove(&k));
            }
        }
        assert!(tree.is_empty_quiescent(), "emptied by removes");
        assert_eq!(tree.len_quiescent(), 0);
    }

    #[test]
    fn single_key_lifecycle() {
        let tree = Tree::new();
        let mut s = tree.session();
        assert!(s.insert(5, 50));
        assert!(!s.insert(5, 51), "duplicate insert must fail");
        assert_eq!(s.get(&5), Some(50), "value must not be overwritten");
        assert!(s.remove(&5));
        assert!(!s.remove(&5));
        assert_eq!(s.get(&5), None);
    }

    #[test]
    fn delete_leaf() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in [10, 5, 15] {
            s.insert(k, k);
        }
        assert!(s.remove(&5)); // leaf
        drop(s);
        let mut tree = tree;
        assert_eq!(tree.to_vec_quiescent(), vec![(10, 10), (15, 15)]);
        tree.validate_structure().unwrap();
    }

    #[test]
    fn delete_node_with_one_child() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in [10, 5, 3] {
            s.insert(k, k);
        }
        assert!(s.remove(&5)); // one (left) child
        assert_eq!(s.get(&3), Some(3), "child must be spliced up");
        drop(s);
        let mut tree = tree;
        assert_eq!(tree.to_vec_quiescent(), vec![(3, 3), (10, 10)]);
        tree.validate_structure().unwrap();

        let tree = Tree::new();
        let mut s = tree.session();
        for k in [10, 5, 7] {
            s.insert(k, k);
        }
        assert!(s.remove(&5)); // one (right) child
        assert_eq!(s.get(&7), Some(7));
        drop(s);
        let mut tree = tree;
        tree.validate_structure().unwrap();
    }

    #[test]
    fn delete_node_with_two_children_uses_successor() {
        // Successor deep in the right subtree (prevSucc != curr).
        let tree = Tree::new();
        let mut s = tree.session();
        for k in [10, 5, 20, 15, 12, 17] {
            s.insert(k, k * 100);
        }
        let sync_before = s.stats().synchronize_calls();
        assert!(s.remove(&10));
        assert_eq!(
            s.stats().synchronize_calls(),
            sync_before + 1,
            "two-child delete must synchronize exactly once"
        );
        for k in [5, 20, 15, 12, 17] {
            assert_eq!(s.get(&k), Some(k * 100), "key {k} lost by successor move");
        }
        assert_eq!(s.get(&10), None);
        drop(s);
        let mut tree = tree;
        tree.validate_structure().unwrap();
    }

    #[test]
    fn delete_where_successor_is_right_child() {
        // prevSucc == curr: succ is curr's own right child (paper line 76).
        let tree = Tree::new();
        let mut s = tree.session();
        for k in [10, 5, 20, 25] {
            s.insert(k, k);
        }
        assert!(s.remove(&10)); // successor 20 is 10's right child
        for k in [5, 20, 25] {
            assert_eq!(s.get(&k), Some(k));
        }
        drop(s);
        let mut tree = tree;
        assert_eq!(tree.to_vec_quiescent(), vec![(5, 5), (20, 20), (25, 25)]);
        tree.validate_structure().unwrap();
    }

    #[test]
    fn delete_root_of_data_subtree_repeatedly() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in 0..64u64 {
            s.insert(k, k);
        }
        // Remove in an order that repeatedly hits two-children cases.
        for k in [31, 15, 47, 7, 23, 39, 55, 3, 11, 19, 27, 35, 43, 51, 59] {
            assert!(s.remove(&k), "key {k}");
        }
        drop(s);
        let mut tree = tree;
        let stats = tree.validate_structure().unwrap();
        assert_eq!(stats.len, 64 - 15);
    }

    #[test]
    fn sequential_model_all_modes_and_flavors() {
        for mode in all_modes() {
            testkit::check_sequential_model(&Tree::with_reclaim(mode), 6_000, 256, 0xACE1);
            testkit::check_sequential_model(&TreeStd::with_reclaim(mode), 3_000, 128, 0xACE2);
        }
    }

    #[test]
    fn duplicate_semantics() {
        testkit::check_duplicate_inserts(&Tree::new());
        testkit::check_duplicate_inserts(&TreeStd::new());
    }

    #[test]
    fn concurrent_lost_updates_all_modes() {
        for mode in all_modes() {
            testkit::check_lost_updates(&Tree::with_reclaim(mode), 8, 300);
        }
    }

    #[test]
    fn concurrent_partitioned_determinism_all_modes() {
        for mode in all_modes() {
            testkit::check_partitioned_determinism(&Tree::with_reclaim(mode), 8, 3_000, 64);
        }
    }

    #[test]
    fn concurrent_mixed_quiescent_all_modes() {
        for mode in all_modes() {
            testkit::check_mixed_quiescent_consistency(&Tree::with_reclaim(mode), 8, 3_000, 128);
        }
    }

    #[test]
    fn concurrent_stress_with_global_lock_rcu() {
        testkit::check_partitioned_determinism(&TreeStd::new(), 4, 1_500, 32);
        testkit::check_mixed_quiescent_consistency(&TreeStd::new(), 4, 1_500, 64);
    }

    #[test]
    fn structure_valid_after_concurrent_churn() {
        for mode in all_modes() {
            let tree = Tree::with_reclaim(mode);
            testkit::check_mixed_quiescent_consistency(&tree, 8, 4_000, 64);
            let mut tree = tree;
            let stats = tree.validate_structure().unwrap();
            assert!(stats.len <= 64);
        }
    }

    #[test]
    fn quiescent_iteration_is_sorted() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in [9, 1, 8, 2, 7, 3, 6, 4, 5] {
            s.insert(k, k * 2);
        }
        drop(s);
        let mut tree = tree;
        let v = tree.to_vec_quiescent();
        assert_eq!(v.len(), 9);
        assert!(v.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(v.iter().all(|(k, val)| *val == k * 2));
        assert_eq!(tree.len_quiescent(), 9);
    }

    #[test]
    fn epoch_mode_survives_heavy_churn_and_frees() {
        let tree = Tree::with_reclaim(ReclaimMode::Epoch);
        let mut s = tree.session();
        for round in 0..20 {
            for k in 0..200u64 {
                s.insert(k, round);
            }
            for k in 0..200u64 {
                s.remove(&k);
            }
        }
        drop(s);
        assert!(
            tree.reclaimed_count().expect("epoch mode reports counts") > 0,
            "4000 removals must free something before drop"
        );
        let mut tree = tree;
        assert!(tree.is_empty_quiescent());
        tree.validate_structure().unwrap();
    }

    #[test]
    fn leak_mode_frees_nothing_before_drop() {
        let tree = Tree::with_reclaim(ReclaimMode::Leak);
        let mut s = tree.session();
        for k in 0..100u64 {
            s.insert(k, k);
        }
        for k in 0..100u64 {
            s.remove(&k);
        }
        drop(s);
        assert_eq!(tree.reclaimed_count(), None);
    }

    #[test]
    fn reclaim_mode_accessors() {
        assert_eq!(Tree::new().reclaim_mode(), ReclaimMode::Epoch);
        assert_eq!(
            Tree::with_reclaim(ReclaimMode::Leak).reclaim_mode(),
            ReclaimMode::Leak
        );
    }

    #[test]
    fn works_with_string_keys_and_values() {
        let tree: CitrusTree<String, String> = CitrusTree::new();
        let mut s = tree.session();
        assert!(s.insert("b".into(), "bee".into()));
        assert!(s.insert("a".into(), "ay".into()));
        assert!(s.insert("c".into(), "sea".into()));
        assert_eq!(s.get(&"b".to_string()), Some("bee".to_string()));
        assert!(s.remove(&"b".to_string()));
        assert_eq!(s.get(&"b".to_string()), None);
        drop(s);
        let mut tree = tree;
        assert_eq!(tree.len_quiescent(), 2);
        tree.validate_structure().unwrap();
    }

    #[test]
    fn min_and_max_keys_are_usable() {
        // The sentinels are symbolic (−∞/∞ variants), so the full u64 range
        // is usable — no reserved keys.
        let tree = Tree::new();
        let mut s = tree.session();
        assert!(s.insert(0, 1));
        assert!(s.insert(u64::MAX, 2));
        assert_eq!(s.get(&0), Some(1));
        assert_eq!(s.get(&u64::MAX), Some(2));
        assert!(s.remove(&0));
        assert!(s.remove(&u64::MAX));
    }

    #[test]
    fn debug_impls_nonempty() {
        let tree = Tree::new();
        let s = tree.session();
        assert!(format!("{tree:?}").contains("CitrusTree"));
        assert!(format!("{s:?}").contains("CitrusSession"));
    }

    #[test]
    fn tree_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tree>();
        assert_send_sync::<TreeStd>();
    }
}
