//! Node and value lifetimes in both reclamation modes: every value a
//! tree constructs or clones drops exactly once, and none while the tree
//! still holds it, across every free path of the paper's delete.

use citrus::{CitrusTree, ReclaimMode, ScalableRcu};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Construction and drop counters shared by every [`Counted`] value of
/// one scenario: a leak (drops < created) and a double free (drops >
/// created) are both visible after the tree dies.
#[derive(Clone, Debug, Default)]
struct Ledger {
    created: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Ledger {
    fn value(&self) -> Counted {
        self.created.fetch_add(1, Ordering::SeqCst);
        Counted(self.clone())
    }

    fn created(&self) -> u64 {
        self.created.load(Ordering::SeqCst)
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }
}

/// A value that counts its constructions (insert, the successor clone of
/// a two-child delete, and every clone a read hands out) and drops in its
/// [`Ledger`]. Two `Arc`s wide, so a `u64`-keyed node stays one
/// pool-allocated line while a `String`-keyed one is boxed.
#[derive(Debug)]
struct Counted(Ledger);

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.0.value()
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

/// Every free path, in both reclamation modes, for both node
/// allocation paths: one-child deletes, two-child deletes (whose
/// successor copy clones the value), reads that clone values out,
/// retirements by a thread that exits before their grace period ends,
/// and the tree's own drop. Each value must drop exactly once, and none
/// while the tree still holds it.
fn drop_accounting<K>(key: fn(u64) -> K)
where
    K: Ord + Clone + Send + Sync + std::fmt::Debug,
{
    let balanced = [64u64, 32, 96, 16, 48, 80, 112, 8, 24, 40, 56, 72, 88];
    for mode in [ReclaimMode::Epoch, ReclaimMode::Leak] {
        let ctx = format!("mode {mode:?}");
        let ledger = Ledger::default();
        {
            let mut tree: CitrusTree<K, Counted, ScalableRcu> = CitrusTree::with_reclaim(mode);
            {
                let mut s = tree.session();
                for k in balanced {
                    assert!(s.insert(key(k), ledger.value()));
                }
                // Leaf 8, then 16 (one child left: 24).
                assert!(s.remove(&key(8)), "{ctx}");
                assert!(s.remove(&key(16)), "{ctx}");
                // Two children each.
                assert!(s.remove(&key(32)), "{ctx}");
                assert!(s.remove(&key(64)), "{ctx}");
                assert_eq!(
                    s.stats().synchronize_calls(),
                    2,
                    "{ctx}: two successor relocations"
                );
                assert!(s.get(&key(40)).is_some(), "{ctx}");
            }
            // Retirements stranded by an exiting thread: fewer than
            // the reclamation domain's collection interval, so they
            // are still pending when the thread's handle goes away.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let mut s = tree.session();
                    for k in [96u64, 72, 56] {
                        assert!(s.remove(&key(k)), "{ctx}");
                    }
                });
            });
            let live = tree.len_quiescent() as u64;
            assert_eq!(live, balanced.len() as u64 - 7, "{ctx}");
            assert!(
                ledger.dropped() + live <= ledger.created(),
                "{ctx}: a value still in the tree was dropped"
            );
        }
        assert_eq!(
            ledger.created(),
            ledger.dropped(),
            "{ctx}: every constructed value must drop exactly once"
        );
    }
}

/// `u64` keys: one-line nodes from the line pool.
#[test]
fn drop_accounting_pooled_nodes() {
    drop_accounting(|k| k);
}

/// `String` keys: nodes larger than a line, allocated through `Box`.
#[test]
fn drop_accounting_boxed_nodes() {
    drop_accounting(|k| format!("{k:04}"));
}
