//! Lock-free external binary search tree with edge flagging (Natarajan &
//! Mittal, *Fast concurrent lock-free binary search trees*, PPoPP 2014) —
//! the paper's "Lock-Free" baseline.
//!
//! An **external** tree: keys live in leaves; internal nodes are routing
//! nodes. All synchronization is on *edges* (child pointers), each packing
//! two bits:
//!
//! * **FLAG** — the leaf below this edge is being deleted;
//! * **TAG** — the edge is pinned (it is the sibling edge of a flagged
//!   leaf and must not change until the splice completes).
//!
//! `insert` adds an (internal, leaf) pair with one CAS. `delete` runs in
//! two phases: *injection* (CAS the flag onto the parent→leaf edge — the
//! linearization point) and *cleanup* (tag the sibling edge, then one CAS
//! at the *ancestor* splices out the whole flagged chain). Any operation
//! that trips over a flagged or tagged edge helps complete the delete and
//! retries — no locks anywhere, and `contains` never even writes.
//!
//! Nodes are recorded in an arena at allocation and freed when the tree
//! drops (the paper's no-reclamation methodology).

use crate::graveyard::Graveyard;
use citrus_api::{ConcurrentMap, MapSession};
use citrus_chaos as chaos;
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicUsize, Ordering};

const FLAG: usize = 1;
const TAG: usize = 2;
const BITS: usize = FLAG | TAG;

/// A key extended with the three sentinel keys ∞₀ < ∞₁ < ∞₂, all larger
/// than every real key.
#[derive(Clone, Debug, PartialEq, Eq)]
enum NmKey<K> {
    Key(K),
    Inf(u8),
}

impl<K: Ord> NmKey<K> {
    /// `true` if a search for `key` should descend left of a node with
    /// this key (left subtree holds keys strictly smaller than the node
    /// key; equal keys go right).
    fn search_goes_left(&self, key: &K) -> bool {
        match self {
            NmKey::Key(k) => key < k,
            NmKey::Inf(_) => true,
        }
    }

    fn cmp_key(&self, key: &K) -> CmpOrdering {
        match self {
            NmKey::Key(k) => k.cmp(key),
            NmKey::Inf(_) => CmpOrdering::Greater,
        }
    }
}

impl<K: Ord> PartialOrd for NmKey<K> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for NmKey<K> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        match (self, other) {
            (NmKey::Key(a), NmKey::Key(b)) => a.cmp(b),
            (NmKey::Key(_), NmKey::Inf(_)) => CmpOrdering::Less,
            (NmKey::Inf(_), NmKey::Key(_)) => CmpOrdering::Greater,
            (NmKey::Inf(a), NmKey::Inf(b)) => a.cmp(b),
        }
    }
}

struct NmNode<K, V> {
    key: NmKey<K>,
    /// `Some` only in key-carrying leaves.
    value: Option<V>,
    /// Packed edges `ptr | FLAG? | TAG?`; `0` in leaves.
    child: [AtomicUsize; 2],
}

impl<K, V> NmNode<K, V> {
    fn leaf(key: NmKey<K>, value: Option<V>) -> *mut Self {
        Box::into_raw(Box::new(Self {
            key,
            value,
            child: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }))
    }

    fn internal(key: NmKey<K>, left: *mut Self, right: *mut Self) -> *mut Self {
        Box::into_raw(Box::new(Self {
            key,
            value: None,
            child: [
                AtomicUsize::new(left as usize),
                AtomicUsize::new(right as usize),
            ],
        }))
    }

    fn is_internal(&self) -> bool {
        self.child[0].load(Ordering::Acquire) != 0
    }
}

fn ptr_of<K, V>(word: usize) -> *mut NmNode<K, V> {
    (word & !BITS) as *mut NmNode<K, V>
}

fn flag_of(word: usize) -> usize {
    word & FLAG
}

fn tag_of(word: usize) -> usize {
    word & TAG
}

/// Result of a `seek`.
struct SeekRecord<K, V> {
    /// Deepest node on the path whose outgoing edge toward the leaf is
    /// untagged.
    ancestor: *mut NmNode<K, V>,
    /// The node below that untagged edge.
    successor: *mut NmNode<K, V>,
    /// The leaf's parent.
    parent: *mut NmNode<K, V>,
    /// The terminal leaf.
    leaf: *mut NmNode<K, V>,
}

/// The lock-free external BST. See the module-level documentation.
///
/// # Example
///
/// ```
/// use citrus_baselines::LockFreeBst;
/// use citrus_api::{ConcurrentMap, MapSession};
///
/// let tree: LockFreeBst<u64, u64> = LockFreeBst::new();
/// let mut s = tree.session();
/// assert!(s.insert(5, 50));
/// assert_eq!(s.get(&5), Some(50));
/// assert!(s.remove(&5));
/// ```
pub struct LockFreeBst<K, V> {
    /// Root sentinel `R` (key ∞₂); `R.left = S` (key ∞₁).
    root: *mut NmNode<K, V>,
    /// Every node ever allocated; freed at drop.
    arena: Graveyard<NmNode<K, V>>,
}

// SAFETY: all shared state is atomics; nodes are never freed before drop.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for LockFreeBst<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for LockFreeBst<K, V> {}

impl<K, V> LockFreeBst<K, V> {
    /// Creates an empty tree (the five-node sentinel frame).
    pub fn new() -> Self {
        let arena = Graveyard::new();
        let l0 = NmNode::leaf(NmKey::Inf(0), None);
        let l1 = NmNode::leaf(NmKey::Inf(1), None);
        let l2 = NmNode::leaf(NmKey::Inf(2), None);
        let s = NmNode::internal(NmKey::Inf(1), l0, l1);
        let r = NmNode::internal(NmKey::Inf(2), s, l2);
        // SAFETY: fresh allocations, recorded exactly once.
        unsafe {
            for n in [l0, l1, l2, s, r] {
                arena.push(n);
            }
        }
        Self { root: r, arena }
    }

    /// Total nodes ever allocated and still held (diagnostics).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }
}

impl<K, V> Default for LockFreeBst<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: fmt::Debug, V> fmt::Debug for LockFreeBst<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockFreeBst")
            .field("arena_nodes", &self.arena_len())
            .finish_non_exhaustive()
    }
}

impl<K, V> LockFreeBst<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Child slot index a search for `key` follows at `node`.
    fn dir(node: &NmNode<K, V>, key: &K) -> usize {
        usize::from(!node.key.search_goes_left(key))
    }

    /// Top-down traversal to the leaf for `key`, tracking the NM seek
    /// record (ancestor/successor span the deepest untagged edge).
    fn seek(&self, key: &K) -> SeekRecord<K, V> {
        // SAFETY (whole fn): nodes are never freed while the tree lives.
        unsafe {
            let r = self.root;
            let mut ancestor = r;
            let mut successor = ptr_of::<K, V>((*r).child[0].load(Ordering::Acquire));
            let mut parent = successor;
            let mut edge_word =
                (*successor).child[Self::dir(&*successor, key)].load(Ordering::Acquire);
            let mut current = ptr_of::<K, V>(edge_word);
            while (*current).is_internal() {
                if tag_of(edge_word) == 0 {
                    ancestor = parent;
                    successor = current;
                }
                parent = current;
                edge_word = (*current).child[Self::dir(&*current, key)].load(Ordering::Acquire);
                current = ptr_of::<K, V>(edge_word);
            }
            SeekRecord {
                ancestor,
                successor,
                parent,
                leaf: current,
            }
        }
    }

    /// NM cleanup: completes the physical removal of a flagged leaf under
    /// `s.parent` by splicing `s.successor..s.parent` out at `s.ancestor`.
    /// Returns `true` if this call performed the splice.
    fn cleanup(&self, key: &K, s: &SeekRecord<K, V>) -> bool {
        // SAFETY (whole fn): nodes never freed while the tree lives.
        unsafe {
            let ancestor = &*s.ancestor;
            let parent = &*s.parent;
            let anc_dir = Self::dir(ancestor, key);
            let child_dir = Self::dir(parent, key);
            let sibling_dir = 1 - child_dir;

            // If the edge to the key's leaf is flagged, the sibling
            // survives; otherwise the delete being helped flagged the
            // *sibling* edge, and the key's own branch survives.
            let pinned_dir = if flag_of(parent.child[child_dir].load(Ordering::Acquire)) != 0 {
                sibling_dir
            } else {
                child_dir
            };

            // Pin the surviving edge so it cannot change during the splice.
            let sibling_word = parent.child[pinned_dir].fetch_or(TAG, Ordering::AcqRel) | TAG;
            let sibling_ptr = ptr_of::<K, V>(sibling_word);
            // Promote the sibling, preserving its flag (a pending delete of
            // the sibling leaf keeps going after the splice).
            let new_word = sibling_ptr as usize | flag_of(sibling_word);
            ancestor.child[anc_dir]
                .compare_exchange(
                    s.successor as usize,
                    new_word,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
        }
    }

    fn get_inner(&self, key: &K) -> Option<V> {
        // SAFETY: nodes never freed while the tree lives; leaf values are
        // immutable.
        unsafe {
            let mut current = self.root;
            while (*current).is_internal() {
                let word = (*current).child[Self::dir(&*current, key)].load(Ordering::Acquire);
                current = ptr_of::<K, V>(word);
            }
            if (*current).key.cmp_key(key) == CmpOrdering::Equal {
                (*current).value.clone()
            } else {
                None
            }
        }
    }

    fn insert_inner(&self, key: K, value: V) -> bool {
        let mut payload = Some(value);
        loop {
            let s = self.seek(&key);
            // SAFETY: nodes never freed while the tree lives.
            unsafe {
                let leaf = &*s.leaf;
                if leaf.key.cmp_key(&key) == CmpOrdering::Equal {
                    return false;
                }
                let parent = &*s.parent;
                let dir = Self::dir(parent, &key);
                let expected = s.leaf as usize; // clean edge
                let new_leaf = NmNode::leaf(
                    NmKey::Key(key.clone()),
                    Some(payload.take().expect("one shot")),
                );
                // Order the two leaves under a fresh routing node.
                let new_internal = if leaf.key.search_goes_left(&key) {
                    // key < leaf.key: routing key is leaf.key; key goes left.
                    NmNode::internal(leaf.key.clone(), new_leaf, s.leaf)
                } else {
                    NmNode::internal(NmKey::Key(key.clone()), s.leaf, new_leaf)
                };
                self.arena.push(new_leaf);
                self.arena.push(new_internal);
                // The seek→CAS window: the edge may be flagged or replaced
                // first, failing the CAS below.
                chaos::point!("baseline-lockfree/insert/before-cas");
                match parent.child[dir].compare_exchange(
                    expected,
                    new_internal as usize,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return true,
                    Err(now) => {
                        // The new pair stays in the arena (freed at drop);
                        // recover the value and retry.
                        payload = (*new_leaf).value.take();
                        if ptr_of::<K, V>(now) == s.leaf && (now & BITS) != 0 {
                            // The leaf is being deleted: help, then retry.
                            self.cleanup(&key, &s);
                        }
                    }
                }
            }
        }
    }

    fn remove_inner(&self, key: &K) -> bool {
        let mut injected = false;
        let mut target: *mut NmNode<K, V> = core::ptr::null_mut();
        loop {
            let s = self.seek(key);
            // SAFETY: nodes never freed while the tree lives.
            unsafe {
                if !injected {
                    // Injection phase.
                    let leaf = s.leaf;
                    if (*leaf).key.cmp_key(key) != CmpOrdering::Equal {
                        return false;
                    }
                    let parent = &*s.parent;
                    let dir = Self::dir(parent, key);
                    // The seek→CAS window for the injection flag.
                    chaos::point!("baseline-lockfree/remove/before-cas");
                    match parent.child[dir].compare_exchange(
                        leaf as usize,
                        leaf as usize | FLAG,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            // Linearization point of a successful delete.
                            injected = true;
                            target = leaf;
                            // The flag→cleanup window: the flagged leaf is
                            // still reachable until some thread splices it.
                            chaos::point!("baseline-lockfree/remove/after-flag");
                            if self.cleanup(key, &s) {
                                return true;
                            }
                        }
                        Err(now) => {
                            if ptr_of::<K, V>(now) == leaf && (now & BITS) != 0 {
                                // Flagged by another delete of this leaf, or
                                // pinned by a neighboring one: help it finish,
                                // then re-seek. Answering `false` while the
                                // flagged leaf is still reachable would let a
                                // later insert or get see the deleted key.
                                self.cleanup(key, &s);
                            }
                            // Otherwise the tree changed; re-seek.
                        }
                    }
                } else {
                    // Cleanup phase: retry until our leaf is unlinked.
                    if s.leaf != target {
                        // Someone else completed the splice for us.
                        return true;
                    }
                    if self.cleanup(key, &s) {
                        return true;
                    }
                }
            }
        }
    }
}

impl<K, V> ConcurrentMap<K, V> for LockFreeBst<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    type Session<'a>
        = LockFreeSession<'a, K, V>
    where
        Self: 'a;

    const NAME: &'static str = "bst-lockfree";

    fn session(&self) -> LockFreeSession<'_, K, V> {
        LockFreeSession {
            tree: self,
            _not_send: PhantomData,
        }
    }
}

/// Per-thread handle to a [`LockFreeBst`] (stateless; the structure keeps
/// no per-thread data).
pub struct LockFreeSession<'t, K, V> {
    tree: &'t LockFreeBst<K, V>,
    _not_send: PhantomData<*mut ()>,
}

impl<K, V> fmt::Debug for LockFreeSession<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockFreeSession").finish_non_exhaustive()
    }
}

impl<K, V> MapSession<K, V> for LockFreeSession<'_, K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn get(&mut self, key: &K) -> Option<V> {
        self.tree.get_inner(key)
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        self.tree.insert_inner(key, value)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.tree.remove_inner(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citrus_api::testkit;

    type Tree = LockFreeBst<u64, u64>;

    #[test]
    fn empty_tree() {
        let t = Tree::new();
        let mut s = t.session();
        assert_eq!(s.get(&1), None);
        assert!(!s.remove(&1));
        assert_eq!(t.arena_len(), 5, "sentinel frame is five nodes");
    }

    #[test]
    fn external_structure_insert_delete() {
        let t = Tree::new();
        let mut s = t.session();
        assert!(s.insert(5, 50));
        assert!(s.insert(3, 30));
        assert!(s.insert(7, 70));
        assert!(!s.insert(5, 51));
        assert_eq!(s.get(&5), Some(50));
        assert!(s.remove(&5));
        assert_eq!(s.get(&5), None);
        assert_eq!(s.get(&3), Some(30));
        assert_eq!(s.get(&7), Some(70));
        assert!(s.remove(&3));
        assert!(s.remove(&7));
        assert!(!s.remove(&7));
    }

    #[test]
    fn sequential_model() {
        testkit::check_sequential_model(&Tree::new(), 6_000, 256, 0x10CF);
        testkit::check_duplicate_inserts(&Tree::new());
    }

    #[test]
    fn concurrent_battery() {
        testkit::check_lost_updates(&Tree::new(), 8, 300);
        testkit::check_partitioned_determinism(&Tree::new(), 8, 3_000, 64);
        testkit::check_mixed_quiescent_consistency(&Tree::new(), 8, 3_000, 128);
    }

    #[test]
    fn contended_same_key_deletes() {
        // Exactly one of N concurrent delete(k) calls may succeed.
        use std::sync::atomic::{AtomicU64, Ordering as AO};
        use std::sync::Barrier;
        const ROUNDS: u64 = 200;
        const THREADS: usize = 4;
        let t = Tree::new();
        for round in 0..ROUNDS {
            {
                let mut s = t.session();
                assert!(s.insert(round, round));
            }
            let wins = AtomicU64::new(0);
            let barrier = Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    let (t, wins, barrier) = (&t, &wins, &barrier);
                    scope.spawn(move || {
                        let mut s = t.session();
                        barrier.wait();
                        if s.remove(&round) {
                            wins.fetch_add(1, AO::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(wins.load(AO::Relaxed), 1, "round {round}");
        }
    }

    #[test]
    fn insert_delete_same_key_interleaved() {
        // Concurrent insert(k)/delete(k) pairs: the map must stay
        // consistent and every operation must report a sane result.
        use std::sync::Barrier;
        let t = Tree::new();
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let (ta, ba) = (&t, &barrier);
            scope.spawn(move || {
                let mut s = ta.session();
                ba.wait();
                for i in 0..2_000u64 {
                    s.insert(42, i);
                }
            });
            let (tb, bb) = (&t, &barrier);
            scope.spawn(move || {
                let mut s = tb.session();
                bb.wait();
                for _ in 0..2_000u64 {
                    s.remove(&42);
                }
            });
        });
        let mut s = t.session();
        let present = s.get(&42).is_some();
        assert_eq!(s.remove(&42), present);
        assert_eq!(s.get(&42), None);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tree>();
    }
}
