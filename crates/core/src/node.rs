//! Tree nodes.
//!
//! Layout follows the paper (§2, §3): an *internal* BST node stores its
//! key–value pair, a `marked` bit ("the node was deleted", used by
//! `validate`), one lock, two child pointers, and **two tag fields** — one
//! per child — incremented whenever the corresponding child pointer is set
//! to null, to protect `insert`'s validation against ABA (a leaf inserted
//! and then moved away by a concurrent `delete`).
//!
//! The paper's two dummy keys `−1` (below every key) and `∞` (above every
//! key) live in the two sentinel nodes, so the tree never has fewer than
//! two nodes and searches need no corner cases. A sentinel has no entry;
//! its `neg_inf` flag says which of the two it is.

use crate::pool;
use citrus_sync::RawSpinLock;
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

/// Child direction; `direction` in the paper's pseudocode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dir {
    /// Left child (index 0).
    Left = 0,
    /// Right child (index 1).
    Right = 1,
}

impl Dir {
    /// The paper's `direction ← (currentKey > key ? left : right)`.
    ///
    /// Branch-free: with uniform keys the direction is a coin flip at
    /// every level, so a conditional jump mispredicts about every other
    /// step of a descent. `select_unpredictable` asks for a conditional
    /// move instead, which makes the next child load `child[dir]` an
    /// indexed load (DESIGN.md §3, *Branch-free descent*). The function
    /// must inline into the search loop: called out of line it costs more
    /// than the branch it removes.
    #[inline(always)]
    pub(crate) fn from_cmp(current_vs_search: CmpOrdering) -> Self {
        core::hint::select_unpredictable(
            current_vs_search == CmpOrdering::Greater,
            Dir::Left,
            Dir::Right,
        )
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// One Citrus tree node.
///
/// # Layout
///
/// `repr(C, align(64))`: every node starts on its own 64-byte cache line,
/// so a delete's lock traffic on one node never invalidates a neighbour's
/// child pointers under concurrent searches (the RCU reader words in
/// `citrus-sync` are cache-padded for the same reason). The *hot head* —
/// lock, mark, sentinel flag, child pointers, tags: every word the search
/// loop and `validate` touch — comes first, and the immutable entry ends
/// the node. For word-sized keys and values (`Node<u64, u64>`,
/// `Node<u64, &str>`) the whole node is **one line**: a search pays one
/// cache miss per level, and one prefetch covers everything an
/// ordered-read walk reads.
///
/// One-line nodes ([`Self::POOLED`]) are allocated from the process-wide
/// line pool (`crate::pool`), which packs them densely: through `Box`,
/// glibc's `posix_memalign` spends about 245 bytes per 64-byte node. The
/// pool reuses freed lines but never returns them to the OS. Larger nodes
/// (`Node<String, String>`) keep `Box`.
#[repr(C, align(64))]
pub(crate) struct Node<K, V> {
    /// The node's fine-grained updater lock.
    pub(crate) lock: RawSpinLock,
    /// Set (under `lock`) just before the node is unlinked; `validate`
    /// checks it to detect operating on a deleted node.
    pub(crate) marked: AtomicBool,
    /// Which sentinel an entry-less node is: `true` for the `−1` root,
    /// `false` for its `∞` right child. Meaningless when `entry` is set.
    neg_inf: bool,
    /// Child pointers (`child[0]` = left, `child[1]` = right).
    pub(crate) child: [AtomicPtr<Node<K, V>>; 2],
    /// Per-child tags, incremented when the corresponding child is set to
    /// null (`incrementTag`), so `insert`'s "child still null" validation
    /// cannot suffer ABA.
    pub(crate) tag: [AtomicU64; 2],
    /// The key–value pair; `None` only in the two sentinels. **Never
    /// changes** after construction (paper §2).
    pub(crate) entry: Option<(K, V)>,
}

impl<K, V> Node<K, V> {
    /// Whether this node type is exactly one cache line and therefore
    /// allocated from the line pool rather than through `Box`.
    pub(crate) const POOLED: bool = core::mem::size_of::<Self>() == pool::LINE;

    /// Moves `node` to the heap: into a pool line if [`Self::POOLED`],
    /// else into a `Box`. Ownership passes to the caller (and to the tree
    /// once published); release it with [`free`](Self::free).
    fn alloc(node: Self) -> *mut Self {
        if Self::POOLED {
            let line = pool::alloc().cast::<Self>();
            // SAFETY: a pool line is 64 bytes, 64-aligned and unused —
            // exactly `Self`'s size and alignment.
            unsafe { line.write(node) };
            line
        } else {
            Box::into_raw(Box::new(node))
        }
    }

    fn with(entry: Option<(K, V)>, neg_inf: bool, left: *mut Self, right: *mut Self) -> *mut Self {
        Self::alloc(Self {
            lock: RawSpinLock::new(),
            marked: AtomicBool::new(false),
            neg_inf,
            child: [AtomicPtr::new(left), AtomicPtr::new(right)],
            tag: [AtomicU64::new(0), AtomicU64::new(0)],
            entry,
        })
    }

    /// Allocates one of the two sentinels with null children: the `−1`
    /// root if `neg_inf`, else the `∞` node.
    pub(crate) fn new_sentinel(neg_inf: bool) -> *mut Self {
        Self::with(None, neg_inf, ptr::null_mut(), ptr::null_mut())
    }

    /// Allocates a leaf with the given key/value and null children,
    /// returning the raw pointer (ownership passes to the tree once
    /// published).
    pub(crate) fn new_leaf(key: K, value: V) -> *mut Self {
        Self::with(Some((key, value)), false, ptr::null_mut(), ptr::null_mut())
    }

    /// Allocates the successor's replacement copy (paper line 70): `succ`'s
    /// entry with `curr`'s children. Tags start at zero — the copy is a
    /// fresh node instance, so stale tag observations of the old nodes
    /// cannot alias it.
    pub(crate) fn new_replacement(
        entry: Option<(K, V)>,
        left: *mut Self,
        right: *mut Self,
    ) -> *mut Self {
        Self::with(entry, false, left, right)
    }

    /// Drops the node's entry and releases its memory.
    ///
    /// # Safety
    ///
    /// `node` must come from one of this type's constructors, must not
    /// have been freed already, and must be unreachable: no thread may
    /// touch it again.
    pub(crate) unsafe fn free(node: *mut Self) {
        if Self::POOLED {
            // SAFETY: per the contract, the node is live and ours alone;
            // its line goes back to the pool only after the drop.
            unsafe {
                ptr::drop_in_place(node);
                pool::free(node.cast());
            }
        } else {
            // SAFETY: non-pooled nodes come from `Box::into_raw`.
            drop(unsafe { Box::from_raw(node) });
        }
    }

    /// [`free`](Self::free) with the pointer type erased, as the
    /// reclamation domain's deleter.
    ///
    /// # Safety
    ///
    /// As for [`free`](Self::free); `node` must point to a `Node<K, V>`.
    pub(crate) unsafe fn free_erased(node: *mut u8) {
        // SAFETY: forwarded.
        unsafe { Self::free(node.cast()) };
    }

    /// Compares this node's key — or sentinel bound — against a real
    /// search key. The sentinel flag is read only for entry-less nodes.
    #[inline]
    pub(crate) fn cmp_key(&self, key: &K) -> CmpOrdering
    where
        K: Ord,
    {
        match &self.entry {
            Some((k, _)) => k.cmp(key),
            None if self.neg_inf => CmpOrdering::Less,
            None => CmpOrdering::Greater,
        }
    }

    /// Returns the real key, if this is not a sentinel.
    #[inline]
    pub(crate) fn as_key(&self) -> Option<&K> {
        self.entry.as_ref().map(|(k, _)| k)
    }

    /// Returns the value, if this is not a sentinel.
    #[inline]
    pub(crate) fn value(&self) -> Option<&V> {
        self.entry.as_ref().map(|(_, v)| v)
    }

    /// Whether this is the `−1` sentinel.
    pub(crate) fn is_neg_inf(&self) -> bool {
        self.entry.is_none() && self.neg_inf
    }

    /// Whether this is the `∞` sentinel.
    pub(crate) fn is_pos_inf(&self) -> bool {
        self.entry.is_none() && !self.neg_inf
    }

    /// Loads a child pointer.
    #[inline]
    pub(crate) fn child(&self, dir: Dir) -> *mut Self {
        self.child[dir.index()].load(Ordering::Acquire)
    }

    /// Stores a child pointer (caller must hold this node's lock).
    #[inline]
    pub(crate) fn set_child(&self, dir: Dir, ptr: *mut Self) {
        self.child[dir.index()].store(ptr, Ordering::Release);
    }

    /// Loads a tag.
    #[inline]
    pub(crate) fn tag(&self, dir: Dir) -> u64 {
        self.tag[dir.index()].load(Ordering::Acquire)
    }

    /// The paper's `incrementTag`: if the child in `dir` is null, bump the
    /// associated tag. Caller must hold this node's lock.
    pub(crate) fn increment_tag(&self, dir: Dir) {
        if self.child(dir).is_null() {
            self.tag[dir.index()].fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Whether the node has been marked deleted.
    #[inline]
    pub(crate) fn is_marked(&self) -> bool {
        self.marked.load(Ordering::Acquire)
    }

    /// Marks the node deleted (caller must hold this node's lock).
    #[inline]
    pub(crate) fn mark(&self) {
        self.marked.store(true, Ordering::Release);
    }

    /// Hints the CPU to pull `node`'s first cache line into L1 — for
    /// pooled nodes that line is the whole node (see the layout test). A
    /// hint only: it never
    /// faults, whatever the pointer, and it is a no-op off x86_64.
    #[inline(always)]
    pub(crate) fn prefetch(node: *const Self) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: SSE is part of the x86_64 baseline, and a prefetch
            // never dereferences its operand architecturally.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(node.cast::<i8>()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = node;
    }
}

impl<K: fmt::Debug, V> fmt::Debug for Node<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Node");
        match self.as_key() {
            Some(key) => d.field("key", key),
            None if self.neg_inf => d.field("key", &"−∞"),
            None => d.field("key", &"∞"),
        };
        d.field("marked", &self.is_marked())
            .field("tags", &[self.tag(Dir::Left), self.tag(Dir::Right)])
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::mem::{align_of, size_of};

    #[test]
    fn cmp_key_handles_sentinels() {
        // SAFETY (every block below): freshly allocated, exclusively owned.
        unsafe {
            let (neg, pos) = (
                Node::<u64, u64>::new_sentinel(true),
                Node::<u64, u64>::new_sentinel(false),
            );
            let (two, three) = (
                Node::<u64, u64>::new_leaf(2, 0),
                Node::<u64, u64>::new_leaf(3, 0),
            );
            assert_eq!((*neg).cmp_key(&0), CmpOrdering::Less);
            assert_eq!((*pos).cmp_key(&u64::MAX), CmpOrdering::Greater);
            assert_eq!((*three).cmp_key(&3), CmpOrdering::Equal);
            assert_eq!((*two).cmp_key(&3), CmpOrdering::Less);
            assert!((*neg).is_neg_inf() && !(*neg).is_pos_inf());
            assert!((*pos).is_pos_inf() && !(*pos).is_neg_inf());
            assert!(!(*two).is_neg_inf() && !(*two).is_pos_inf());
            for n in [neg, pos, two, three] {
                Node::free(n);
            }
        }
    }

    #[test]
    fn as_key_and_value_only_for_real_entries() {
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            let leaf = Node::<u64, &str>::new_leaf(1, "one");
            let neg = Node::<u64, &str>::new_sentinel(true);
            let pos = Node::<u64, &str>::new_sentinel(false);
            assert_eq!((*leaf).as_key(), Some(&1));
            assert_eq!((*leaf).value(), Some(&"one"));
            for n in [neg, pos] {
                assert_eq!((*n).as_key(), None);
                assert_eq!((*n).value(), None);
            }
            for n in [leaf, neg, pos] {
                Node::free(n);
            }
        }
    }

    #[test]
    fn dir_from_cmp_matches_paper() {
        // currentKey > key → left, else right.
        assert_eq!(Dir::from_cmp(CmpOrdering::Greater), Dir::Left);
        assert_eq!(Dir::from_cmp(CmpOrdering::Less), Dir::Right);
        assert_eq!(Dir::from_cmp(CmpOrdering::Equal), Dir::Right);
    }

    #[test]
    fn increment_tag_only_when_child_null() {
        let n = Node::<u64, u64>::new_leaf(1, 1);
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            assert_eq!((*n).tag(Dir::Left), 0);
            (*n).increment_tag(Dir::Left);
            assert_eq!((*n).tag(Dir::Left), 1);

            let leaf = Node::<u64, u64>::new_leaf(2, 2);
            (*n).set_child(Dir::Left, leaf);
            (*n).increment_tag(Dir::Left);
            assert_eq!(
                (*n).tag(Dir::Left),
                1,
                "tag must not move for non-null child"
            );

            Node::free(leaf);
            Node::free(n);
        }
    }

    #[test]
    fn small_node_is_exactly_one_aligned_line() {
        assert_eq!(size_of::<Node<u64, u64>>(), 64);
        assert_eq!(align_of::<Node<u64, u64>>(), 64);
        assert_eq!(size_of::<Node<u64, &str>>(), 64);
        // The pool's free-list link overwrites the last word; the mutable
        // words a late writer could touch (lock, mark, children, tags)
        // must all sit before it, in the poisoned part.
        let hot_end = core::mem::offset_of!(Node<u64, u64>, tag) + 2 * size_of::<AtomicU64>();
        assert!(
            hot_end <= 56,
            "hot head reaches the pool link (ends at {hot_end})"
        );
        // The pool's double-free check reads exactly the children and tags.
        #[cfg(debug_assertions)]
        assert_eq!(
            core::mem::offset_of!(Node<u64, u64>, child)..hot_end,
            crate::pool::NODE_WORDS
        );
    }

    #[test]
    fn allocation_path_follows_node_size() {
        const {
            assert!(Node::<u64, u64>::POOLED);
            assert!(Node::<u64, &str>::POOLED);
            assert!(!Node::<String, String>::POOLED);
        }
        // Both paths round-trip through the same constructors and `free`.
        let boxed = Node::<String, String>::new_leaf("k".into(), "v".into());
        let pooled = Node::<u64, u64>::new_leaf(1, 1);
        assert!((pooled as usize).is_multiple_of(64));
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            assert_eq!((*boxed).value().map(String::as_str), Some("v"));
            Node::free(boxed);
            Node::free(pooled);
        }
    }

    #[test]
    fn mark_is_sticky() {
        let n = Node::<u64, u64>::new_leaf(1, 1);
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            assert!(!(*n).is_marked());
            (*n).mark();
            assert!((*n).is_marked());
            Node::free(n);
        }
    }

    /// Lines move between threads, and a tree churning over a fixed live
    /// set recycles its own lines instead of carving new ones. Measured on
    /// the churning thread: the block count is process-wide and parallel
    /// tests move it too.
    #[test]
    fn pool_lines_are_reused_across_threads_and_churn() {
        use crate::{CitrusTree, ReclaimMode};
        const HANDED_OVER: u64 = 4096;
        const LIVE: u64 = 512;
        const ROUNDS: u64 = 100;
        let nodes: Vec<usize> = std::thread::spawn(|| {
            (0..HANDED_OVER)
                .map(|k| Node::<u64, u64>::new_leaf(k, k) as usize)
                .collect()
        })
        .join()
        .unwrap();
        std::thread::spawn(move || {
            for p in nodes {
                // SAFETY: allocated by the exited thread, never published.
                unsafe { Node::<u64, u64>::free(p as *mut _) };
            }
            let tree: CitrusTree<u64, u64> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
            let mut s = tree.session();
            for k in 0..LIVE {
                s.insert(k, k);
            }
            let before = pool::carved_here();
            for round in 0..ROUNDS {
                for k in 0..LIVE {
                    assert!(s.remove(&k));
                    assert!(s.insert(k, round));
                }
            }
            let carved = pool::carved_here() - before;
            // Without reuse every insert would carve a line.
            assert!(
                carved < (LIVE * ROUNDS / 20) as usize,
                "churn carved {carved} fresh lines for {} inserts",
                LIVE * ROUNDS
            );
        })
        .join()
        .unwrap();
    }
}
