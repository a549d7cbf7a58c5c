//! Optimistic relaxed-balance AVL tree (after Bronson, Casper, Chafi,
//! Olukotun, *A practical concurrent binary search tree*, PPoPP 2010) —
//! the paper's "AVL" baseline.
//!
//! Key mechanisms reproduced from the original:
//!
//! * **Partially external**: a delete of a node with two children merely
//!   clears its value, leaving a *routing* node; routing nodes with at
//!   most one child are unlinked during rebalancing.
//! * **Per-node version numbers** with a `SHRINKING` bit: a rotation marks
//!   the node that moves down (whose key range *narrows* — the only
//!   direction that can cause a search to miss a key) as shrinking, and
//!   bumps its version afterwards. Optimistic readers hand-over-hand
//!   validate versions and retry when a node they traversed shrank.
//! * **Fine-grained locking**: updates lock only the affected node (plus
//!   its parent for unlinks), rotations lock the rotation triangle.
//! * **Relaxed balance**: heights are fixed up bottom-up after the fact;
//!   the tree converges toward AVL shape rather than maintaining it
//!   atomically.
//!
//! Simplification relative to the original (documented in DESIGN.md):
//! failed optimistic validation retries from the root rather than
//! backtracking partially; this costs retries under contention, not
//! correctness.
//!
//! Nodes live in an arena; replaced values go to a value graveyard (no
//! reclamation during runs, per the paper's methodology).

use crate::graveyard::Graveyard;
use citrus_api::{ConcurrentMap, MapSession};
use citrus_chaos as chaos;
use citrus_sync::{Backoff, RawSpinLock};
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::marker::PhantomData;
use core::ptr;
use core::sync::atomic::{AtomicI32, AtomicPtr, AtomicU64, Ordering};

const UNLINKED: u64 = 1;
const SHRINKING: u64 = 2;
const VERSION_STEP: u64 = 4;

const L: usize = 0;
const R: usize = 1;

struct AvlNode<K, V> {
    /// `None` only in the root holder.
    key: Option<K>,
    /// Null ⇒ routing node (partially external).
    value: AtomicPtr<V>,
    /// `(counter << 2) | SHRINKING? | UNLINKED?`.
    version: AtomicU64,
    height: AtomicI32,
    child: [AtomicPtr<AvlNode<K, V>>; 2],
    parent: AtomicPtr<AvlNode<K, V>>,
    lock: RawSpinLock,
}

impl<K, V> AvlNode<K, V> {
    fn alloc(key: Option<K>, value: *mut V, parent: *mut Self) -> *mut Self {
        Box::into_raw(Box::new(Self {
            key,
            value: AtomicPtr::new(value),
            version: AtomicU64::new(0),
            height: AtomicI32::new(1),
            child: [
                AtomicPtr::new(ptr::null_mut()),
                AtomicPtr::new(ptr::null_mut()),
            ],
            parent: AtomicPtr::new(parent),
            lock: RawSpinLock::new(),
        }))
    }
}

impl<K, V> Drop for AvlNode<K, V> {
    fn drop(&mut self) {
        let v = *self.value.get_mut();
        if !v.is_null() {
            // SAFETY: the node owns its current value box; replaced values
            // were retired to the value graveyard instead.
            unsafe { drop(Box::from_raw(v)) };
        }
    }
}

/// The optimistic AVL tree. See the module-level documentation.
///
/// # Example
///
/// ```
/// use citrus_baselines::OptimisticAvlTree;
/// use citrus_api::{ConcurrentMap, MapSession};
///
/// let tree: OptimisticAvlTree<u64, u64> = OptimisticAvlTree::new();
/// let mut s = tree.session();
/// assert!(s.insert(4, 40));
/// assert_eq!(s.get(&4), Some(40));
/// ```
pub struct OptimisticAvlTree<K, V> {
    /// Sentinel above the real root (its right child); lockable like any
    /// node, which makes root rotations uniform.
    root_holder: *mut AvlNode<K, V>,
    /// Every node ever allocated; freed at drop.
    arena: Graveyard<AvlNode<K, V>>,
    /// Replaced value boxes (remove/convert-to-routing); freed at drop.
    value_graveyard: Graveyard<V>,
}

// SAFETY: concurrent container; shared mutation via atomics + per-node
// locks; nothing freed before drop.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for OptimisticAvlTree<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for OptimisticAvlTree<K, V> {}

impl<K, V> OptimisticAvlTree<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        let arena = Graveyard::new();
        let holder = AvlNode::alloc(None, ptr::null_mut(), ptr::null_mut());
        // SAFETY: fresh allocation, recorded once.
        unsafe { arena.push(holder) };
        Self {
            root_holder: holder,
            arena,
            value_graveyard: Graveyard::new(),
        }
    }

    /// Total nodes ever allocated and still held (diagnostics).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }
}

impl<K, V> Default for OptimisticAvlTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: fmt::Debug, V> fmt::Debug for OptimisticAvlTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptimisticAvlTree")
            .field("arena_nodes", &self.arena_len())
            .finish_non_exhaustive()
    }
}

/// Outcome of a validated optimistic descent.
enum Located<K, V> {
    /// A node carrying the key (may be a routing node).
    Node(*mut AvlNode<K, V>),
    /// No node with the key; `(prev, prev_version, dir)` names the null
    /// slot where it would be attached.
    Miss(*mut AvlNode<K, V>, u64, usize),
}

impl<K, V> OptimisticAvlTree<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    fn height(n: *mut AvlNode<K, V>) -> i32 {
        if n.is_null() {
            0
        } else {
            // SAFETY: nodes live until drop.
            unsafe { (*n).height.load(Ordering::Relaxed) }
        }
    }

    fn dir_of(p: *mut AvlNode<K, V>, n: *mut AvlNode<K, V>) -> Option<usize> {
        // SAFETY: nodes live until drop.
        unsafe {
            if (*p).child[L].load(Ordering::Acquire) == n {
                Some(L)
            } else if (*p).child[R].load(Ordering::Acquire) == n {
                Some(R)
            } else {
                None
            }
        }
    }

    /// Optimistic hand-over-hand validated descent; retries from the root
    /// whenever a traversed node shrank under us.
    fn locate(&self, key: &K) -> Located<K, V> {
        let backoff = Backoff::new();
        // SAFETY (whole fn): nodes live until drop; all loads atomic.
        unsafe {
            'retry: loop {
                // A descent paused here races full rebalances at the root.
                chaos::point!("baseline-avl/locate/retry");
                let mut prev = self.root_holder;
                let mut prev_v = (*prev).version.load(Ordering::Acquire);
                let mut dir = R;
                loop {
                    let curr = (*prev).child[dir].load(Ordering::Acquire);
                    // Validate the read against prev's version.
                    if (*prev).version.load(Ordering::Acquire) != prev_v {
                        continue 'retry;
                    }
                    if curr.is_null() {
                        return Located::Miss(prev, prev_v, dir);
                    }
                    // Wait out an in-flight shrink, reject unlinked nodes.
                    let curr_v = loop {
                        let v = (*curr).version.load(Ordering::Acquire);
                        if v & SHRINKING != 0 {
                            backoff.snooze();
                            continue;
                        }
                        if v & UNLINKED != 0 {
                            continue 'retry;
                        }
                        break v;
                    };
                    // The link and prev must both still be what we used.
                    if (*prev).child[dir].load(Ordering::Acquire) != curr
                        || (*prev).version.load(Ordering::Acquire) != prev_v
                    {
                        continue 'retry;
                    }
                    let ck = (*curr).key.as_ref().expect("only the holder lacks a key");
                    match key.cmp(ck) {
                        CmpOrdering::Equal => return Located::Node(curr),
                        CmpOrdering::Less => dir = L,
                        CmpOrdering::Greater => dir = R,
                    }
                    prev = curr;
                    prev_v = curr_v;
                }
            }
        }
    }

    fn get_inner(&self, key: &K) -> Option<V> {
        match self.locate(key) {
            Located::Miss(..) => None,
            Located::Node(n) => {
                // SAFETY: node lives until drop; value boxes are never
                // freed before drop (value graveyard).
                unsafe {
                    let v = (*n).value.load(Ordering::Acquire);
                    if v.is_null() {
                        None // routing node
                    } else {
                        Some((*v).clone())
                    }
                }
            }
        }
    }

    fn insert_inner(&self, key: K, value: V) -> bool {
        let mut boxed = Box::into_raw(Box::new(value));
        loop {
            match self.locate(&key) {
                Located::Node(n) => {
                    // SAFETY: node lives until drop; fields under its lock.
                    unsafe {
                        (*n).lock.lock();
                        if (*n).version.load(Ordering::Acquire) & UNLINKED != 0 {
                            (*n).lock.unlock();
                            continue;
                        }
                        if (*n).value.load(Ordering::Acquire).is_null() {
                            // Revive the routing node.
                            (*n).value.store(boxed, Ordering::Release);
                            (*n).lock.unlock();
                            return true;
                        }
                        (*n).lock.unlock();
                        // Key present: free our unpublished box.
                        drop(Box::from_raw(boxed));
                        return false;
                    }
                }
                Located::Miss(prev, prev_v, dir) => {
                    // The locate→lock window: `prev` may shrink or gain a
                    // child first, which the version re-check catches.
                    chaos::point!("baseline-avl/insert/before-lock");
                    // SAFETY: as above.
                    unsafe {
                        (*prev).lock.lock();
                        // An unlinked or shrunk prev has a changed version.
                        if (*prev).version.load(Ordering::Acquire) != prev_v
                            || !(*prev).child[dir].load(Ordering::Acquire).is_null()
                        {
                            (*prev).lock.unlock();
                            continue;
                        }
                        let node = AvlNode::alloc(Some(key.clone()), boxed, prev);
                        boxed = ptr::null_mut();
                        self.arena.push(node);
                        (*prev).child[dir].store(node, Ordering::Release);
                        (*prev).lock.unlock();
                        let _ = boxed;
                        self.rebalance_from(prev);
                        return true;
                    }
                }
            }
        }
    }

    fn remove_inner(&self, key: &K) -> bool {
        let backoff = Backoff::new();
        loop {
            match self.locate(key) {
                Located::Miss(..) => return false,
                Located::Node(n) => {
                    // SAFETY (whole arm): nodes live until drop; field
                    // writes under the locks noted.
                    unsafe {
                        let l = (*n).child[L].load(Ordering::Acquire);
                        let r = (*n).child[R].load(Ordering::Acquire);
                        if !l.is_null() && !r.is_null() {
                            // Two children: convert to a routing node.
                            (*n).lock.lock();
                            if (*n).version.load(Ordering::Acquire) & UNLINKED != 0 {
                                (*n).lock.unlock();
                                continue;
                            }
                            if (*n).child[L].load(Ordering::Acquire).is_null()
                                || (*n).child[R].load(Ordering::Acquire).is_null()
                            {
                                // Lost a child meanwhile; take the unlink path.
                                (*n).lock.unlock();
                                continue;
                            }
                            let old = (*n).value.swap(ptr::null_mut(), Ordering::AcqRel);
                            (*n).lock.unlock();
                            if old.is_null() {
                                return false; // was already routing
                            }
                            self.value_graveyard.push(old);
                            return true;
                        }

                        // ≤1 child: unlink the node under parent + node locks.
                        let p = (*n).parent.load(Ordering::Acquire);
                        // The parent-read→lock window: `p` may be
                        // unlinked first, which the check below catches.
                        chaos::point!("baseline-avl/remove/before-parent-lock");
                        (*p).lock.lock();
                        // An unlinked `p` still points at `n`, but `n`
                        // now hangs off `p`'s old parent: unlinking it
                        // from `p` would mark a node that stays reachable
                        // UNLINKED, and every later descent reaching it
                        // would retry forever.
                        let linked = (*p).version.load(Ordering::Acquire) & UNLINKED == 0;
                        let Some(d) = Self::dir_of(p, n).filter(|_| linked) else {
                            // p is no longer n's (live) parent; retry.
                            (*p).lock.unlock();
                            backoff.snooze();
                            continue;
                        };
                        (*n).lock.lock();
                        if (*n).version.load(Ordering::Acquire) & UNLINKED != 0 {
                            (*n).lock.unlock();
                            (*p).lock.unlock();
                            continue;
                        }
                        let l = (*n).child[L].load(Ordering::Acquire);
                        let r = (*n).child[R].load(Ordering::Acquire);
                        if !l.is_null() && !r.is_null() {
                            // Grew a second child; redo as conversion.
                            (*n).lock.unlock();
                            (*p).lock.unlock();
                            continue;
                        }
                        let old = (*n).value.swap(ptr::null_mut(), Ordering::AcqRel);
                        if old.is_null() {
                            // Routing node: the key is absent. Leave the
                            // unlink to rebalancing.
                            (*n).lock.unlock();
                            (*p).lock.unlock();
                            return false;
                        }
                        let c = if l.is_null() { r } else { l };
                        (*p).child[d].store(c, Ordering::Release);
                        if !c.is_null() {
                            (*c).parent.store(p, Ordering::Relaxed);
                        }
                        (*n).version.fetch_or(UNLINKED, Ordering::Release);
                        (*n).lock.unlock();
                        (*p).lock.unlock();
                        self.value_graveyard.push(old);
                        self.rebalance_from(p);
                        return true;
                    }
                }
            }
        }
    }

    /// In-place rotation: `n`'s child in `from` rises above `n`.
    /// Caller holds locks on `p`, `n`, the rising child, and (for the
    /// rising child's transferred subtree's root) nothing — parent-pointer
    /// readers always revalidate via child links.
    ///
    /// # Safety
    ///
    /// `p`, `n` and `n.child[from]` must be locked by the caller, `n` must
    /// be `p`'s child, and the rising child must be non-null.
    unsafe fn rotate(&self, p: *mut AvlNode<K, V>, n: *mut AvlNode<K, V>, from: usize) {
        let to = 1 - from;
        // SAFETY: per contract.
        unsafe {
            let rising = (*n).child[from].load(Ordering::Acquire);
            debug_assert!(!rising.is_null());
            // `n` moves down: its key range narrows — mark shrinking so
            // optimistic readers inside wait/retry.
            let v = (*n).version.load(Ordering::Relaxed);
            (*n).version.store(v | SHRINKING, Ordering::Release);

            let transferred = (*rising).child[to].load(Ordering::Acquire);
            (*n).child[from].store(transferred, Ordering::Release);
            if !transferred.is_null() {
                (*transferred).parent.store(n, Ordering::Relaxed);
            }
            (*rising).child[to].store(n, Ordering::Release);
            let d = Self::dir_of(p, n).expect("caller validated the link");
            (*p).child[d].store(rising, Ordering::Release);
            (*rising).parent.store(p, Ordering::Relaxed);
            (*n).parent.store(rising, Ordering::Relaxed);

            (*n).height.store(
                1 + Self::height((*n).child[L].load(Ordering::Acquire))
                    .max(Self::height((*n).child[R].load(Ordering::Acquire))),
                Ordering::Relaxed,
            );
            (*rising).height.store(
                1 + Self::height((*rising).child[L].load(Ordering::Acquire))
                    .max(Self::height((*rising).child[R].load(Ordering::Acquire))),
                Ordering::Relaxed,
            );
            // Publish the shrink: bump the counter, clear SHRINKING.
            (*n).version.store(v + VERSION_STEP, Ordering::Release);
        }
    }

    /// Bottom-up height fixup, routing-node unlinking, and rotations —
    /// Bronson's `fixHeightAndRebalance` in spirit.
    fn rebalance_from(&self, start: *mut AvlNode<K, V>) {
        let mut node = start;
        let backoff = Backoff::new();
        // SAFETY (whole fn): nodes live until drop; writes under locks.
        unsafe {
            while node != self.root_holder && !node.is_null() {
                if (*node).version.load(Ordering::Acquire) & UNLINKED != 0 {
                    return;
                }
                let p = (*node).parent.load(Ordering::Acquire);
                if p.is_null() {
                    return;
                }
                (*p).lock.lock();
                if Self::dir_of(p, node).is_none()
                    || (*p).version.load(Ordering::Acquire) & UNLINKED != 0
                {
                    (*p).lock.unlock();
                    if (*node).version.load(Ordering::Acquire) & UNLINKED != 0 {
                        return; // someone unlinked it; their rebalance covers us
                    }
                    backoff.snooze();
                    continue;
                }
                (*node).lock.lock();

                let l = (*node).child[L].load(Ordering::Acquire);
                let r = (*node).child[R].load(Ordering::Acquire);

                // Unlink a routing node with ≤1 child (partially external
                // cleanup).
                if (*node).value.load(Ordering::Acquire).is_null() && (l.is_null() || r.is_null()) {
                    let c = if l.is_null() { r } else { l };
                    let d = Self::dir_of(p, node).expect("validated above");
                    (*p).child[d].store(c, Ordering::Release);
                    if !c.is_null() {
                        (*c).parent.store(p, Ordering::Relaxed);
                    }
                    (*node).version.fetch_or(UNLINKED, Ordering::Release);
                    (*node).lock.unlock();
                    (*p).lock.unlock();
                    node = p;
                    continue;
                }

                let (hl, hr) = (Self::height(l), Self::height(r));
                let bal = hl - hr;
                if bal >= 2 || bal <= -2 {
                    // Rotate toward the light side; `heavy` rises.
                    let from = if bal >= 2 { L } else { R };
                    let heavy = if from == L { l } else { r };
                    (*heavy).lock.lock();
                    // Double rotation when the heavy child leans inward.
                    let inner = (*heavy).child[1 - from].load(Ordering::Acquire);
                    let outer = (*heavy).child[from].load(Ordering::Acquire);
                    if Self::height(inner) > Self::height(outer) {
                        (*inner).lock.lock();
                        // First half: inner rises above heavy...
                        self.rotate(node, heavy, 1 - from);
                        // ...second half: inner rises above node.
                        self.rotate(p, node, from);
                        (*inner).lock.unlock();
                    } else {
                        self.rotate(p, node, from);
                    }
                    (*heavy).lock.unlock();
                    (*node).lock.unlock();
                    (*p).lock.unlock();
                    node = p;
                    continue;
                }

                let new_h = 1 + hl.max(hr);
                let changed = (*node).height.load(Ordering::Relaxed) != new_h;
                if changed {
                    (*node).height.store(new_h, Ordering::Relaxed);
                }
                (*node).lock.unlock();
                (*p).lock.unlock();
                if !changed {
                    return;
                }
                node = p;
            }
        }
    }
}

impl<K, V> ConcurrentMap<K, V> for OptimisticAvlTree<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    type Session<'a>
        = AvlSession<'a, K, V>
    where
        Self: 'a;

    const NAME: &'static str = "avl-optimistic";

    fn session(&self) -> AvlSession<'_, K, V> {
        AvlSession {
            tree: self,
            _not_send: PhantomData,
        }
    }
}

/// Per-thread handle to an [`OptimisticAvlTree`] (stateless).
pub struct AvlSession<'t, K, V> {
    tree: &'t OptimisticAvlTree<K, V>,
    _not_send: PhantomData<*mut ()>,
}

impl<K, V> fmt::Debug for AvlSession<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AvlSession").finish_non_exhaustive()
    }
}

impl<K, V> MapSession<K, V> for AvlSession<'_, K, V>
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

    type Tree = OptimisticAvlTree<u64, u64>;

    /// Quiescent audit: BST order, parent links, height bookkeeping, and
    /// relaxed balance (|bal| ≤ 2 transiently; after quiescent rebalancing
    /// runs it should be ≤ 1 almost everywhere — we assert the recorded
    /// heights are *consistent*, which is the structural invariant).
    fn audit(t: *mut AvlNode<u64, u64>, lo: Option<u64>, hi: Option<u64>) -> i32 {
        if t.is_null() {
            return 0;
        }
        unsafe {
            let k = *(*t).key.as_ref().unwrap();
            assert!(lo.is_none_or(|lo| k > lo), "order violated at {k}");
            assert!(hi.is_none_or(|hi| k < hi), "order violated at {k}");
            assert_eq!(
                (*t).version.load(Ordering::Relaxed) & (UNLINKED | SHRINKING),
                0,
                "reachable node unlinked/shrinking at quiescence"
            );
            let l = (*t).child[L].load(Ordering::Relaxed);
            let r = (*t).child[R].load(Ordering::Relaxed);
            for c in [l, r] {
                if !c.is_null() {
                    assert_eq!((*c).parent.load(Ordering::Relaxed), t, "parent link broken");
                }
            }
            let hl = audit(l, lo, Some(k));
            let hr = audit(r, Some(k), hi);
            1 + hl.max(hr)
        }
    }

    fn audit_tree(tree: &Tree) -> i32 {
        unsafe {
            let root = (*tree.root_holder).child[R].load(Ordering::Relaxed);
            audit(root, None, None)
        }
    }

    #[test]
    fn ascending_inserts_stay_shallow() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in 0..1_024u64 {
            assert!(s.insert(k, k));
        }
        for k in 0..1_024u64 {
            assert_eq!(s.get(&k), Some(k));
        }
        let _ = s;
        let h = audit_tree(&tree);
        assert!(
            h <= 2 * 11,
            "relaxed-balance height {h} way beyond AVL bound for 1024 keys"
        );
    }

    #[test]
    fn routing_node_semantics() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in [50, 25, 75, 10, 30, 60, 90] {
            s.insert(k, k);
        }
        // 50 has two children: delete converts it to a routing node.
        assert!(s.remove(&50));
        assert_eq!(s.get(&50), None);
        assert!(!s.remove(&50), "routing node must read as absent");
        // Reinsert revives the routing node.
        assert!(s.insert(50, 500));
        assert_eq!(s.get(&50), Some(500));
        let _ = s;
        audit_tree(&tree);
    }

    #[test]
    fn sequential_model() {
        testkit::check_sequential_model(&Tree::new(), 6_000, 256, 0xAB1E);
        testkit::check_duplicate_inserts(&Tree::new());
    }

    #[test]
    fn concurrent_battery() {
        testkit::check_lost_updates(&Tree::new(), 8, 300);
        testkit::check_partitioned_determinism(&Tree::new(), 8, 3_000, 64);
        testkit::check_mixed_quiescent_consistency(&Tree::new(), 8, 3_000, 128);
    }

    #[test]
    fn structure_valid_after_concurrent_churn() {
        let tree = Tree::new();
        testkit::check_mixed_quiescent_consistency(&tree, 8, 4_000, 128);
        audit_tree(&tree);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tree>();
    }
}
