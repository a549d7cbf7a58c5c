//! Tree nodes and key bounds.
//!
//! Layout follows the paper (§2, §3): an *internal* BST node stores its
//! key–value pair, a `marked` bit ("the node was deleted", used by
//! `validate`), one lock, two child pointers, and **two tag fields** — one
//! per child — incremented whenever the corresponding child pointer is set
//! to null, to protect `insert`'s validation against ABA (a leaf inserted
//! and then moved away by a concurrent `delete`).

use citrus_sync::RawSpinLock;
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

/// A key extended with the paper's two dummy values `−1` (below every key)
/// and `∞` (above every key), stored in the two sentinel nodes so the tree
/// never has fewer than two nodes and searches need no corner cases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum KeyBound<K> {
    /// The `−1` sentinel: smaller than every key. Held by the root.
    NegInf,
    /// A real key.
    Key(K),
    /// The `∞` sentinel: larger than every key. Held by the root's right
    /// child; all real nodes live in its left subtree.
    PosInf,
}

impl<K: Ord> KeyBound<K> {
    /// Compares this (possibly sentinel) key against a real search key.
    pub(crate) fn cmp_key(&self, key: &K) -> CmpOrdering {
        match self {
            KeyBound::NegInf => CmpOrdering::Less,
            KeyBound::Key(k) => k.cmp(key),
            KeyBound::PosInf => CmpOrdering::Greater,
        }
    }

    /// Returns the real key, if this is not a sentinel.
    pub(crate) fn as_key(&self) -> Option<&K> {
        match self {
            KeyBound::Key(k) => Some(k),
            _ => None,
        }
    }
}

impl<K: Ord> PartialOrd for KeyBound<K> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for KeyBound<K> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        use KeyBound::*;
        match (self, other) {
            (NegInf, NegInf) | (PosInf, PosInf) => CmpOrdering::Equal,
            (NegInf, _) | (_, PosInf) => CmpOrdering::Less,
            (_, NegInf) | (PosInf, _) => CmpOrdering::Greater,
            (Key(a), Key(b)) => a.cmp(b),
        }
    }
}

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
    pub(crate) fn from_cmp(current_vs_search: CmpOrdering) -> Self {
        if current_vs_search == CmpOrdering::Greater {
            Dir::Left
        } else {
            Dir::Right
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// One Citrus tree node.
///
/// # Layout
///
/// `repr(C, align(64))` pins the *hot head* — lock, mark, child pointers,
/// tags: every word the search loop and `validate` touch — to the first
/// 64-byte cache line of the node, with the (immutable, possibly large)
/// key and value behind it. The RCU reader words in `citrus-sync` are
/// already cache-padded; without this, two unrelated nodes could share a
/// line and a delete's lock traffic would invalidate a neighbor node's
/// child pointers under concurrent searches.
#[repr(C, align(64))]
pub(crate) struct Node<K, V> {
    /// The node's fine-grained updater lock.
    pub(crate) lock: RawSpinLock,
    /// Set (under `lock`) just before the node is unlinked; `validate`
    /// checks it to detect operating on a deleted node.
    pub(crate) marked: AtomicBool,
    /// Child pointers (`child[0]` = left, `child[1]` = right).
    pub(crate) child: [AtomicPtr<Node<K, V>>; 2],
    /// Per-child tags, incremented when the corresponding child is set to
    /// null (`incrementTag`), so `insert`'s "child still null" validation
    /// cannot suffer ABA.
    pub(crate) tag: [AtomicU64; 2],
    /// The key; **never changes** after construction (paper §2).
    pub(crate) key: KeyBound<K>,
    /// The value; `None` only in the two sentinels. Never changes.
    pub(crate) value: Option<V>,
}

impl<K, V> Node<K, V> {
    /// Allocates a leaf with the given key/value and null children,
    /// returning the raw pointer (ownership passes to the tree once
    /// published).
    pub(crate) fn new_leaf(key: KeyBound<K>, value: Option<V>) -> *mut Self {
        Box::into_raw(Box::new(Self {
            key,
            value,
            marked: AtomicBool::new(false),
            lock: RawSpinLock::new(),
            child: [
                AtomicPtr::new(ptr::null_mut()),
                AtomicPtr::new(ptr::null_mut()),
            ],
            tag: [AtomicU64::new(0), AtomicU64::new(0)],
        }))
    }

    /// Allocates the successor's replacement copy (paper line 70): `succ`'s
    /// key and value with `curr`'s children. Tags start at zero — the copy
    /// is a fresh node instance, so stale tag observations of the old nodes
    /// cannot alias it.
    pub(crate) fn new_replacement(
        key: KeyBound<K>,
        value: Option<V>,
        left: *mut Self,
        right: *mut Self,
    ) -> *mut Self {
        Box::into_raw(Box::new(Self {
            key,
            value,
            marked: AtomicBool::new(false),
            lock: RawSpinLock::new(),
            child: [AtomicPtr::new(left), AtomicPtr::new(right)],
            tag: [AtomicU64::new(0), AtomicU64::new(0)],
        }))
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
    /// small keys that line holds every field an ordered-read walk reads
    /// (hot head plus key; see the layout test). A hint only: it never
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
        f.debug_struct("Node")
            .field("key", &self.key)
            .field("marked", &self.is_marked())
            .field("tags", &[self.tag(Dir::Left), self.tag(Dir::Right)])
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keybound_total_order() {
        let neg: KeyBound<u64> = KeyBound::NegInf;
        let five = KeyBound::Key(5u64);
        let nine = KeyBound::Key(9u64);
        let pos: KeyBound<u64> = KeyBound::PosInf;
        assert!(neg < five && five < nine && nine < pos);
        assert!(neg < pos);
        assert_eq!(five.clone().cmp(&five), CmpOrdering::Equal);
    }

    #[test]
    fn cmp_key_handles_sentinels() {
        assert_eq!(KeyBound::<u64>::NegInf.cmp_key(&0), CmpOrdering::Less);
        assert_eq!(
            KeyBound::<u64>::PosInf.cmp_key(&u64::MAX),
            CmpOrdering::Greater
        );
        assert_eq!(KeyBound::Key(3u64).cmp_key(&3), CmpOrdering::Equal);
        assert_eq!(KeyBound::Key(2u64).cmp_key(&3), CmpOrdering::Less);
    }

    #[test]
    fn as_key_only_for_real_keys() {
        assert_eq!(KeyBound::Key(1u64).as_key(), Some(&1));
        assert_eq!(KeyBound::<u64>::NegInf.as_key(), None);
        assert_eq!(KeyBound::<u64>::PosInf.as_key(), None);
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
        let n = Node::<u64, u64>::new_leaf(KeyBound::Key(1), Some(1));
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            assert_eq!((*n).tag(Dir::Left), 0);
            (*n).increment_tag(Dir::Left);
            assert_eq!((*n).tag(Dir::Left), 1);

            let leaf = Node::<u64, u64>::new_leaf(KeyBound::Key(2), Some(2));
            (*n).set_child(Dir::Left, leaf);
            (*n).increment_tag(Dir::Left);
            assert_eq!(
                (*n).tag(Dir::Left),
                1,
                "tag must not move for non-null child"
            );

            drop(Box::from_raw(leaf));
            drop(Box::from_raw(n));
        }
    }

    #[test]
    fn hot_head_is_cache_line_aligned() {
        use core::mem::{align_of, offset_of};
        // The node itself starts on a cache-line boundary...
        assert!(align_of::<Node<u64, u64>>() >= 64);
        // ...and the whole hot word group (lock, mark, children, tags)
        // fits inside the first 64 bytes, ahead of key and value.
        let hot_end = offset_of!(Node<u64, u64>, tag) + 2 * core::mem::size_of::<AtomicU64>();
        assert!(
            hot_end <= 64,
            "hot head spills past the first cache line (ends at {hot_end})"
        );
        assert!(offset_of!(Node<u64, u64>, key) >= offset_of!(Node<u64, u64>, tag));
        // The key ends inside the first line too, so the single prefetch
        // an ordered-read walk issues per child covers every field it
        // reads there.
        let key_end = offset_of!(Node<u64, u64>, key) + core::mem::size_of::<KeyBound<u64>>();
        assert!(
            key_end <= 64,
            "key spills past the first cache line (ends at {key_end})"
        );
    }

    #[test]
    fn mark_is_sticky() {
        let n = Node::<u64, u64>::new_leaf(KeyBound::Key(1), Some(1));
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            assert!(!(*n).is_marked());
            (*n).mark();
            assert!((*n).is_marked());
            drop(Box::from_raw(n));
        }
    }
}
