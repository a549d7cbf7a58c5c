//! Quiescent-state structural checks and traversals.
//!
//! All functions here take `&mut CitrusTree`, which guarantees exclusivity
//! (no sessions can exist, since sessions borrow the tree immutably), so
//! walking raw pointers is safe and the tree must satisfy the *strict*
//! sequential BST invariants — the weak BST property's duplicates
//! (Definition 1) exist only transiently inside a two-child `delete`.

use crate::node::{Dir, Node};
use crate::tree::CitrusTree;
use citrus_rcu::RcuFlavor;
use core::fmt;

/// Structural statistics returned by a successful
/// [`validate_structure`](CitrusTree::validate_structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TreeStats {
    /// Number of key-bearing (non-sentinel) nodes.
    pub len: usize,
    /// Height of the key-bearing tree (0 for empty).
    pub height: usize,
}

/// A violated structural invariant, found by
/// [`validate_structure`](CitrusTree::validate_structure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The `−1`/`∞` sentinel frame is damaged.
    BrokenSentinels(&'static str),
    /// A node's key falls outside the range implied by its ancestors.
    OrderViolation {
        /// Depth at which the violation was found.
        depth: usize,
    },
    /// Two reachable nodes carry the same key (legal only *during* a
    /// two-child delete; never at quiescence).
    DuplicateKey,
    /// A reachable node is marked deleted.
    ReachableMarked,
    /// A reachable node's lock is held although the tree is quiescent.
    ReachableLocked,
    /// Two forest shards both hold the same key (forest validation only):
    /// an aggregate view would double-count it.
    CrossShardDuplicate {
        /// The two shards holding the duplicate.
        shards: (usize, usize),
    },
    /// A forest shard holds a key the router assigns to another shard
    /// (forest validation only).
    MisroutedKey {
        /// The shard the key was found in.
        found_in: usize,
        /// The shard the router assigns it to.
        routed_to: usize,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BrokenSentinels(what) => write!(f, "broken sentinel frame: {what}"),
            Self::OrderViolation { depth } => {
                write!(f, "BST order violated at depth {depth}")
            }
            Self::DuplicateKey => write!(f, "duplicate key reachable at quiescence"),
            Self::ReachableMarked => write!(f, "marked node still reachable"),
            Self::ReachableLocked => write!(f, "node lock held at quiescence"),
            Self::CrossShardDuplicate { shards } => {
                write!(f, "same key in forest shards {} and {}", shards.0, shards.1)
            }
            Self::MisroutedKey {
                found_in,
                routed_to,
            } => {
                write!(
                    f,
                    "key found in shard {found_in} but routes to shard {routed_to}"
                )
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

impl<K, V, F> CitrusTree<K, V, F>
where
    K: Ord,
    F: RcuFlavor,
{
    /// Verifies the full set of quiescent structural invariants:
    /// sentinel frame, strict BST order, key uniqueness, no reachable
    /// marked nodes, no held locks. Returns node count and height.
    ///
    /// Requires `&mut self`, which proves quiescence.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] found.
    pub fn validate_structure(&mut self) -> Result<TreeStats, InvariantViolation> {
        let root = self.root_ptr();
        // SAFETY (whole function): `&mut self` means no concurrent
        // accessors; reachable nodes are alive until drop.
        unsafe {
            let root_ref = &*root;
            if !root_ref.is_neg_inf() {
                return Err(InvariantViolation::BrokenSentinels("root key is not −∞"));
            }
            let inf = root_ref.child(Dir::Right);
            if inf.is_null() {
                return Err(InvariantViolation::BrokenSentinels(
                    "root has no right child",
                ));
            }
            if !(*inf).is_pos_inf() {
                return Err(InvariantViolation::BrokenSentinels(
                    "root's right child is not ∞",
                ));
            }
            if !(*inf).child(Dir::Right).is_null() {
                return Err(InvariantViolation::BrokenSentinels(
                    "∞ sentinel grew a right subtree",
                ));
            }
            if !root_ref.child(Dir::Left).is_null() {
                return Err(InvariantViolation::BrokenSentinels(
                    "−∞ sentinel grew a left subtree",
                ));
            }
            for (node, name) in [(root, "−∞"), (inf, "∞")] {
                if (*node).is_marked() {
                    return Err(InvariantViolation::BrokenSentinels(match name {
                        "−∞" => "−∞ sentinel is marked",
                        _ => "∞ sentinel is marked",
                    }));
                }
            }

            // Iterative bounded-range DFS over the key-bearing subtree.
            let mut stats = TreeStats::default();
            let mut prev_key: Option<&K> = None;
            // (node, lower, upper, depth); in-order via explicit stack.
            let mut stack: Vec<(*mut Node<K, V>, usize)> = Vec::new();
            let mut current = (*inf).child(Dir::Left);
            let mut depth = 1usize;
            // In-order traversal checking strict ordering via `prev_key`
            // (equivalent to range checking, and it detects duplicates).
            loop {
                while !current.is_null() {
                    stack.push((current, depth));
                    current = (*current).child(Dir::Left);
                    depth += 1;
                }
                let Some((node, node_depth)) = stack.pop() else {
                    break;
                };
                let node_ref = &*node;
                if node_ref.is_marked() {
                    return Err(InvariantViolation::ReachableMarked);
                }
                if node_ref.lock.is_locked() {
                    return Err(InvariantViolation::ReachableLocked);
                }
                let Some(key) = node_ref.as_key() else {
                    return Err(InvariantViolation::BrokenSentinels(
                        "sentinel key inside the data subtree",
                    ));
                };
                if let Some(prev) = prev_key {
                    match prev.cmp(key) {
                        core::cmp::Ordering::Less => {}
                        core::cmp::Ordering::Equal => return Err(InvariantViolation::DuplicateKey),
                        core::cmp::Ordering::Greater => {
                            return Err(InvariantViolation::OrderViolation { depth: node_depth })
                        }
                    }
                }
                prev_key = Some(key);
                stats.len += 1;
                stats.height = stats.height.max(node_depth);
                current = node_ref.child(Dir::Right);
                depth = node_depth + 1;
            }
            Ok(stats)
        }
    }

    /// Calls `f` for every key–value pair in ascending key order.
    ///
    /// Requires `&mut self` (quiescence); the paper's Figure 1 shows that
    /// concurrent multi-item read-only traversals are *not* linearizable
    /// under RCU with concurrent updaters — which is exactly why Citrus
    /// offers only single-key `contains` concurrently, and iteration only
    /// at quiescence.
    pub fn for_each_quiescent(&mut self, mut f: impl FnMut(&K, &V)) {
        let root = self.root_ptr();
        // SAFETY: `&mut self` — exclusive access.
        unsafe {
            let inf = (*root).child(Dir::Right);
            let mut stack: Vec<*mut Node<K, V>> = Vec::new();
            let mut current = (*inf).child(Dir::Left);
            loop {
                while !current.is_null() {
                    stack.push(current);
                    current = (*current).child(Dir::Left);
                }
                let Some(node) = stack.pop() else { break };
                if let Some((k, v)) = &(*node).entry {
                    f(k, v);
                }
                current = (*node).child(Dir::Right);
            }
        }
    }

    /// Number of keys in the tree. Requires `&mut self` (quiescence).
    pub fn len_quiescent(&mut self) -> usize {
        let mut n = 0;
        self.for_each_quiescent(|_, _| n += 1);
        n
    }

    /// `true` if the tree holds no keys. Requires `&mut self` (quiescence).
    pub fn is_empty_quiescent(&mut self) -> bool {
        self.len_quiescent() == 0
    }

    /// Collects all key–value pairs in ascending key order.
    /// Requires `&mut self` (quiescence).
    pub fn to_vec_quiescent(&mut self) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::new();
        self.for_each_quiescent(|k, v| out.push((k.clone(), v.clone())));
        out
    }
}
