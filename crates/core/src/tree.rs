//! The Citrus tree algorithm (paper §3), line for line.
//!
//! * `get` — wait-free search inside an RCU read-side critical section
//!   (lines 1–15 → [`CitrusSession::search`]).
//! * `contains` — `get` plus a value read (lines 16–20 →
//!   [`CitrusSession::get`]).
//! * `insert` — search, lock `prev` **outside** the read-side section,
//!   validate, link a new leaf (lines 21–32 → [`CitrusSession::insert`]).
//! * `delete` — search, lock `prev` and `curr`, validate; a node with at
//!   most one child is *bypassed*; a node with two children is replaced by
//!   a **copy of its successor**, then the operation waits for concurrent
//!   searches with `synchronize_rcu` before unlinking the old successor
//!   (lines 42–84 → [`CitrusSession::remove`]).
//! * `validate` / `incrementTag` — lines 33–41 → [`validate`] /
//!   [`Node::increment_tag`].
//! * `range_scan` / `successor` / `predecessor` — ordered reads layered on
//!   the same read-side protocol (DESIGN.md §6i): walk the tree
//!   breadth-first recording every crossed edge, re-check all of them
//!   after the walk, and restart from scratch when a concurrent update
//!   moved one.

use crate::metrics::TreeMetrics;
use crate::node::{Dir, Node};
use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos as chaos;
use citrus_obs::MetricsRegistry;
use citrus_rcu::{RcuFlavor, RcuHandle, ScalableRcu};
use citrus_reclaim::{EbrDomain, EbrHandle};
use citrus_sync::SpinMutex;
use core::cell::{Cell, RefCell};
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::marker::PhantomData;
use core::ptr;

/// How removed nodes are reclaimed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReclaimMode {
    /// Removed nodes are queued and freed only when the tree is dropped.
    ///
    /// This is the paper's measurement methodology ("without performing any
    /// memory reclamation") — zero reclamation work on the operation path,
    /// unbounded transient memory.
    Leak,
    /// Removed nodes are retired to an epoch-based reclamation domain and
    /// freed after a grace period covering entire operations (the paper's
    /// future-work item; see `citrus-reclaim`). The default.
    #[default]
    Epoch,
}

enum ReclaimInner<K, V> {
    Leak(SpinMutex<Vec<*mut Node<K, V>>>),
    Epoch(EbrDomain),
}

impl<K, V> Drop for ReclaimInner<K, V> {
    fn drop(&mut self) {
        // Runs after the tree's own drop: every graveyard node is
        // unreachable by then.
        if let ReclaimInner::Leak(graveyard) = self {
            for p in graveyard.lock().drain(..) {
                // SAFETY: graveyard nodes were unlinked and never freed.
                unsafe { Node::free(p) };
            }
        }
        // Epoch mode: the EbrDomain's own Drop frees its retired nodes.
    }
}

/// The Citrus tree: an internal binary search tree with fine-grained
/// locking among updaters and wait-free, RCU-protected `contains`.
///
/// Generic over the RCU implementation `F` — the paper's own scalable
/// flavor ([`ScalableRcu`], the default) or the classic global-lock flavor
/// ([`GlobalLockRcu`](citrus_rcu::GlobalLockRcu)) whose collapse Figure 8
/// demonstrates.
///
/// Threads operate through per-thread [`CitrusSession`]s.
///
/// # Example
///
/// ```
/// use citrus::CitrusTree;
///
/// let tree: CitrusTree<u64, &str> = CitrusTree::new();
/// let mut session = tree.session();
/// assert!(session.insert(1, "one"));
/// assert_eq!(session.get(&1), Some("one"));
/// assert!(session.remove(&1));
/// assert_eq!(session.get(&1), None);
/// ```
pub struct CitrusTree<K, V, F: RcuFlavor = ScalableRcu> {
    /// The `−1` sentinel; its right child is the `∞` sentinel and all real
    /// nodes live in the `∞` node's left subtree. Never changes.
    root: *mut Node<K, V>,
    rcu: F,
    reclaim: ReclaimInner<K, V>,
    metrics: TreeMetrics,
    _marker: PhantomData<Node<K, V>>,
}

// SAFETY: the tree is a concurrent container; all cross-thread access to
// node internals is mediated by atomics, per-node locks, RCU, and the
// reclamation protocol. Keys and values cross threads, hence the bounds.
unsafe impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Send for CitrusTree<K, V, F> {}
unsafe impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Sync for CitrusTree<K, V, F> {}

impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> CitrusTree<K, V, F> {
    /// Creates an empty tree with the default [`ReclaimMode::Epoch`].
    pub fn new() -> Self {
        Self::with_reclaim(ReclaimMode::default())
    }

    /// Creates an empty tree with the given reclamation mode.
    pub fn with_reclaim(mode: ReclaimMode) -> Self {
        let inf = Node::new_sentinel(false);
        let root = Node::new_sentinel(true);
        // SAFETY: freshly allocated, exclusively owned until `Self` exists.
        unsafe { (*root).set_child(Dir::Right, inf) };
        Self {
            root,
            rcu: F::new(),
            reclaim: match mode {
                ReclaimMode::Leak => ReclaimInner::Leak(SpinMutex::new(Vec::new())),
                ReclaimMode::Epoch => ReclaimInner::Epoch(EbrDomain::new()),
            },
            metrics: TreeMetrics::new(),
            _marker: PhantomData,
        }
    }
}

impl<K, V, F: RcuFlavor> CitrusTree<K, V, F> {
    /// This tree's metric instruments (no-ops unless built with the
    /// `stats` feature).
    pub fn metrics(&self) -> &TreeMetrics {
        &self.metrics
    }

    /// Registers the whole stack's instruments into `registry`:
    ///
    /// * the tree's own counters under component `"citrus"`,
    /// * the RCU domain's under the flavor name (e.g. `"rcu-scalable"`),
    /// * in [`ReclaimMode::Epoch`], the reclamation domain's under
    ///   `"reclaim"`.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.register_metrics_prefixed(registry, "");
    }

    /// Like [`register_metrics`](Self::register_metrics) but with every
    /// component name prefixed — lets a harness keep several trees (e.g.
    /// one per benchmark point) apart in one registry.
    pub fn register_metrics_prefixed(&self, registry: &MetricsRegistry, prefix: &str) {
        self.metrics
            .register_into(registry, &format!("{prefix}citrus"));
        self.rcu
            .metrics()
            .register_into(registry, &format!("{prefix}{}", F::NAME));
        if let ReclaimInner::Epoch(domain) = &self.reclaim {
            domain
                .metrics()
                .register_into(registry, &format!("{prefix}reclaim"));
        }
    }

    /// The tree's reclamation mode.
    pub fn reclaim_mode(&self) -> ReclaimMode {
        match &self.reclaim {
            ReclaimInner::Leak(_) => ReclaimMode::Leak,
            ReclaimInner::Epoch(_) => ReclaimMode::Epoch,
        }
    }

    /// The RCU domain (diagnostics: grace-period counts for benchmarks).
    pub fn rcu(&self) -> &F {
        &self.rcu
    }

    /// Number of removed nodes already freed by the reclamation scheme:
    /// `Some(count)` in [`ReclaimMode::Epoch`], `None` in
    /// [`ReclaimMode::Leak`] (nothing is freed before drop).
    pub fn reclaimed_count(&self) -> Option<u64> {
        match &self.reclaim {
            ReclaimInner::Epoch(domain) => Some(domain.freed_count()),
            ReclaimInner::Leak(_) => None,
        }
    }

    /// Creates a session for the calling thread.
    ///
    /// Sessions are cheap (one RCU reader slot, one optional reclamation
    /// slot) but not free — create one per thread, not per operation.
    pub fn session(&self) -> CitrusSession<'_, K, V, F> {
        CitrusSession {
            tree: self,
            rcu: self.rcu.register(),
            ebr: match &self.reclaim {
                ReclaimInner::Epoch(domain) => Some(domain.register()),
                ReclaimInner::Leak(_) => None,
            },
            graveyard: RefCell::new(Vec::new()),
            walk: Cell::default(),
            stats: SessionStats::default(),
            stripe: self.metrics.assign_stripe(),
        }
    }

    /// Root pointer, for the invariant checkers in [`crate::checks`].
    pub(crate) fn root_ptr(&self) -> *mut Node<K, V> {
        self.root
    }
}

impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Default for CitrusTree<K, V, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, F: RcuFlavor> Drop for CitrusTree<K, V, F> {
    fn drop(&mut self) {
        // `&mut self`: no sessions exist (they borrow the tree), so every
        // reachable node is exclusively ours, and disjoint from the
        // reclamation sink (delete unlinks before retiring).
        let mut nodes = Vec::new();
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            if p.is_null() {
                continue;
            }
            // SAFETY: reachable nodes are allocated until freed below.
            unsafe {
                stack.push((*p).child(Dir::Left));
                stack.push((*p).child(Dir::Right));
            }
            nodes.push(p);
        }
        // Free in descending address order: the line pool hands freed
        // lines out last in, first out, so a tree built next reuses them
        // in ascending order, line after line, instead of in this tree's
        // scattered visit order.
        nodes.sort_unstable_by(|a, b| b.cmp(a));
        for p in nodes {
            // SAFETY: reachable nodes form a tree (Lemma 6: single
            // parent), so each is collected, and freed, exactly once.
            unsafe { Node::free(p) };
        }
        // Leak graveyard and Epoch orphans are freed by `ReclaimInner`'s /
        // `EbrDomain`'s own Drop, which runs right after this one.
    }
}

impl<K: fmt::Debug, V, F: RcuFlavor> fmt::Debug for CitrusTree<K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CitrusTree")
            .field("rcu", &F::NAME)
            .field("reclaim", &self.reclaim_mode())
            .finish_non_exhaustive()
    }
}

impl<K, V, F> ConcurrentMap<K, V> for CitrusTree<K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    type Session<'a>
        = CitrusSession<'a, K, V, F>
    where
        Self: 'a;

    const NAME: &'static str = "citrus";

    fn session(&self) -> CitrusSession<'_, K, V, F> {
        CitrusTree::session(self)
    }
}

/// Per-session operation statistics (diagnostics for tests and ablations).
#[derive(Debug, Default)]
pub struct SessionStats {
    insert_retries: Cell<u64>,
    remove_retries: Cell<u64>,
    synchronize_calls: Cell<u64>,
    scan_restarts: Cell<u64>,
}

impl SessionStats {
    /// Times an `insert` failed validation and restarted.
    pub fn insert_retries(&self) -> u64 {
        self.insert_retries.get()
    }

    /// Times a `remove` failed validation and restarted.
    pub fn remove_retries(&self) -> u64 {
        self.remove_retries.get()
    }

    /// `synchronize_rcu` invocations (one per successful two-child
    /// delete).
    pub fn synchronize_calls(&self) -> u64 {
        self.synchronize_calls.get()
    }

    /// Ordered reads (`range_scan` / `successor` / `predecessor`) whose
    /// traversal failed validation and restarted.
    pub fn scan_restarts(&self) -> u64 {
        self.scan_restarts.get()
    }
}

/// A per-thread handle to a [`CitrusTree`].
///
/// Holds the thread's RCU reader slot and (in `Epoch` mode) its
/// reclamation slot. Not `Send`.
pub struct CitrusSession<'t, K, V, F: RcuFlavor> {
    tree: &'t CitrusTree<K, V, F>,
    rcu: F::Handle<'t>,
    ebr: Option<EbrHandle<'t>>,
    /// `Leak` mode: locally buffered unlinked nodes, flushed to the tree's
    /// graveyard in batches (and on drop).
    graveyard: RefCell<Vec<*mut Node<K, V>>>,
    stats: SessionStats,
    /// This session's tree-metric counter stripe.
    stripe: usize,
    /// The ordered reads' walk buffers, empty between reads: a read takes
    /// them and hands them back reset, so a warmed session's reads
    /// allocate nothing but their results.
    walk: Cell<ScanWalk<K, V>>,
}

/// Batch size for flushing the session graveyard to the shared one.
const GRAVEYARD_FLUSH: usize = 256;

/// The most entries of capacity each walk buffer keeps between ordered
/// reads (at most 64 KiB per session in all): enough for a walk over a
/// few hundred keys, so one full-range scan does not leave megabytes
/// attached to the session.
#[doc(hidden)]
pub const WALK_BUF_RETAIN: usize = 2048;

/// RAII set of node locks held by one update operation.
///
/// The delete path holds up to five locks (`prev`, `curr`, `prev_succ`,
/// `succ`, and the replacement copy) and releases them together. A panic
/// while any is held — e.g. from a user `Clone` impl called under the
/// locks — would otherwise leave those nodes locked forever, wedging every
/// later updater that reaches them. The set unlocks `nodes[..len]` in
/// reverse acquisition order on drop, on normal exit and during unwinding
/// alike.
struct LockSet<K, V> {
    nodes: [*mut Node<K, V>; 5],
    len: usize,
}

impl<K, V> LockSet<K, V> {
    fn new() -> Self {
        Self {
            nodes: [ptr::null_mut(); 5],
            len: 0,
        }
    }

    /// Locks `node` and takes responsibility for unlocking it.
    ///
    /// # Safety
    ///
    /// `node` must be valid, stay allocated while this set lives, and not
    /// already be locked by this thread (the spin lock does not nest).
    unsafe fn acquire(&mut self, node: *mut Node<K, V>) {
        // SAFETY: valid per contract.
        unsafe { (*node).lock.lock() };
        self.adopt(node);
    }

    /// Takes responsibility for a node this thread has *already* locked
    /// (delete locks the replacement copy before publishing it).
    fn adopt(&mut self, node: *mut Node<K, V>) {
        debug_assert!(self.len < self.nodes.len());
        self.nodes[self.len] = node;
        self.len += 1;
    }
}

impl<K, V> Drop for LockSet<K, V> {
    fn drop(&mut self) {
        for &node in self.nodes[..self.len].iter().rev() {
            // SAFETY: locked by this thread via `acquire`/`adopt` and not
            // yet unlocked; nodes outlive the operation (reclamation
            // protocol).
            unsafe { (*node).lock.unlock() };
        }
    }
}

/// One traversed edge, recorded during an ordered read for post-traversal
/// validation (DESIGN.md §6i).
enum ScanEdge<K, V> {
    /// `parent.child(dir)` observed non-null.
    Live {
        parent: *mut Node<K, V>,
        dir: Dir,
        child: *mut Node<K, V>,
    },
    /// `parent.child(dir)` observed null, with the edge's tag at read
    /// time — null edges are the real ABA risk (null → leaf → null under
    /// a racing insert + delete), and the paper's tag bumps every time
    /// the edge is re-nulled.
    Null {
        parent: *mut Node<K, V>,
        dir: Dir,
        tag: u64,
    },
}

/// What an ordered-read walk is looking for.
pub(crate) enum WalkQuery<'q, K> {
    /// Every node with `lo <= key <= hi`.
    Range { lo: &'q K, hi: &'q K },
    /// The nearest real key strictly beyond `key` on `side`.
    Directed { key: &'q K, side: Dir },
}

/// The ordered reads' frontier walk: the only range-walk implementation,
/// shared by the single tree and the forest, over one tree or over every
/// shard a fan-out enters at once.
///
/// The walk is breadth-first, and its edge log doubles as the FIFO of
/// pending nodes: [`visit`](Self::visit) of a tree's root adds the tree,
/// and [`run`](Self::run) visits, in log order, the child of every live edge
/// recorded so far, until none is left. Visiting a node records the edges
/// and the hit the query needs from it and prefetches each live child, so
/// the boundary paths and the in-range subtrees of every entered tree
/// have their cache misses in flight together: a read waits for about
/// *descent depth + in-range depth* dependent misses, not one per
/// in-range edge. Validation needs no order among the reads, only that
/// every read precedes every re-check (DESIGN.md §6i).
///
/// Collection and validation are deliberately split: when
/// [`validate`](Self::validate) succeeds, every per-edge constancy
/// interval contains the instant the collection ended — the entire
/// traversed region existed simultaneously at that instant, which is the
/// read's linearization point.
///
/// The buffers belong to a session, which takes them for one read and
/// [`reset`](Self::reset)s them afterwards, so a warmed session's reads
/// allocate nothing but their results.
pub(crate) struct ScanWalk<K, V> {
    edges: Vec<ScanEdge<K, V>>,
    /// Visited nodes that answer the query: for a range, the in-range
    /// nodes; for a directed walk, every candidate along each path.
    hits: Vec<*mut Node<K, V>>,
    /// The first edge of `edges` whose child the walk has not visited.
    next: usize,
}

impl<K, V> Default for ScanWalk<K, V> {
    fn default() -> Self {
        Self {
            edges: Vec::new(),
            hits: Vec::new(),
            next: 0,
        }
    }
}

impl<K, V> ScanWalk<K, V> {
    /// Empties the buffers for the next read, keeping at most
    /// [`WALK_BUF_RETAIN`] entries of capacity in each.
    pub(crate) fn reset(&mut self) {
        self.edges.clear();
        self.edges.shrink_to(WALK_BUF_RETAIN);
        self.hits.clear();
        self.hits.shrink_to(WALK_BUF_RETAIN);
        self.next = 0;
    }

    /// The larger of the two buffers' capacities, in entries.
    pub(crate) fn capacity(&self) -> usize {
        self.edges.capacity().max(self.hits.capacity())
    }

    /// Loads and records `parent`'s `dir` edge, prefetching a live child
    /// for the visit [`run`](Self::run) will make to it.
    ///
    /// # Safety
    ///
    /// `parent` must be a valid node.
    unsafe fn record_edge(&mut self, parent: *mut Node<K, V>, dir: Dir) {
        // SAFETY: valid per contract.
        let child = unsafe { (*parent).child(dir) };
        if child.is_null() {
            // SAFETY: valid per contract.
            let tag = unsafe { (*parent).tag(dir) };
            self.edges.push(ScanEdge::Null { parent, dir, tag });
        } else {
            Node::prefetch(child);
            self.edges.push(ScanEdge::Live { parent, dir, child });
        }
    }

    /// Re-checks every recorded edge; `true` means none moved since it was
    /// read.
    ///
    /// For a non-null edge, pointer equality plus an unmarked child
    /// suffices: a bypassed or spliced-out node is marked before it is
    /// unlinked and is never re-linked, and its address cannot be reused
    /// while the collector's pin is held — so an unchanged, unmarked child
    /// pointer means the edge held for the whole interval. Null edges use
    /// the tag (see [`ScanEdge::Null`]).
    ///
    /// # Safety
    ///
    /// Every recorded node must still be allocated: the read-side sections
    /// and pins the walk was collected under must still be held.
    pub(crate) unsafe fn validate(&self) -> bool {
        // The mutant is a test-only planted bug (chaos builds only):
        // skipping validation can tear the read across a concurrent
        // update — the exploration suite must find the resulting
        // non-linearizable result.
        chaos::mutant_enabled("citrus/scan/skip-validation")
            || self.edges.iter().all(|edge| match *edge {
                ScanEdge::Live { parent, dir, child } => {
                    // SAFETY: allocated per contract.
                    unsafe { (*parent).child(dir) == child && !(*child).is_marked() }
                }
                ScanEdge::Null { parent, dir, tag } => {
                    // SAFETY: allocated per contract.
                    unsafe { (*parent).child(dir).is_null() && (*parent).tag(dir) == tag }
                }
            })
    }

    /// Whether the walk recorded any hit. Safe: only the hit list's
    /// emptiness is inspected, no node is dereferenced — the forest's
    /// widening directed probe uses this to decide whether to enter
    /// another shard.
    pub(crate) fn has_candidate(&self) -> bool {
        !self.hits.is_empty()
    }
}

impl<K: Ord, V> ScanWalk<K, V> {
    /// Visits every pending node, breadth-first across all entered trees,
    /// until none is left.
    ///
    /// # Safety
    ///
    /// As for [`visit`](Self::visit), for every entered tree.
    pub(crate) unsafe fn run(&mut self, query: &WalkQuery<'_, K>) {
        while let Some(edge) = self.edges.get(self.next) {
            self.next += 1;
            if let ScanEdge::Live { child, .. } = *edge {
                // SAFETY: `child` was read from a live edge inside the
                // read-side context the caller has held since, so it stays
                // allocated (Leak never frees; Epoch is covered by the pin).
                unsafe { self.visit(child, query) };
            }
        }
    }

    /// Records the edges and the hit `query` needs from node `n`. Visiting
    /// a tree's root sentinel adds that tree to the walk.
    ///
    /// # Safety
    ///
    /// `n` must be a root sentinel, or a node this walk recorded, of a
    /// tree whose read-side context — a session's RCU read lock and, in
    /// `Epoch` mode, its EBR pin — is held from the tree's first read
    /// until the walk has been validated and extracted.
    pub(crate) unsafe fn visit(&mut self, n: *mut Node<K, V>, query: &WalkQuery<'_, K>) {
        chaos::point!("citrus/scan/step");
        // SAFETY: valid per contract; `record_edge` reads only `n`.
        unsafe {
            let node = &*n;
            match *query {
                WalkQuery::Range { lo, hi } => {
                    let vs_lo = node.cmp_key(lo);
                    let vs_hi = node.cmp_key(hi);
                    // Keys below `n` can only matter when n.key > lo
                    // (sentinels prune themselves: −∞ is never greater,
                    // so the root's left edge is skipped).
                    if vs_lo == CmpOrdering::Greater {
                        self.record_edge(n, Dir::Left);
                    }
                    // Sentinels compare outside every [lo, hi].
                    if vs_lo != CmpOrdering::Less && vs_hi != CmpOrdering::Greater {
                        self.hits.push(n);
                    }
                    // Keys above `n` can only matter when n.key < hi.
                    if vs_hi == CmpOrdering::Less {
                        self.record_edge(n, Dir::Right);
                    }
                }
                WalkQuery::Directed { key, side } => {
                    let cmp = node.cmp_key(key);
                    // Successor: any node with key > probe is a candidate,
                    // and the search continues left toward smaller ones;
                    // otherwise right. Predecessor is the mirror image.
                    // Sentinels steer the walk but never become candidates.
                    let (toward_probe, back) = match side {
                        Dir::Right => (cmp == CmpOrdering::Greater, Dir::Left),
                        Dir::Left => (cmp == CmpOrdering::Less, Dir::Right),
                    };
                    if toward_probe && node.as_key().is_some() {
                        self.hits.push(n);
                    }
                    self.record_edge(n, if toward_probe { back } else { side });
                }
            }
        }
    }
}

impl<K: Ord + Clone, V: Clone> ScanWalk<K, V> {
    /// Clones the hits' entries into one ascending list: gather, sort by
    /// key, dedup. The breadth-first walk leaves its hits in no key order,
    /// and a forest's shards add more lists of them; sorting costs less
    /// than keeping them ordered. Dedup collapses the duplicate the
    /// two-child delete's replacement window can expose: between splice
    /// and unlink, the replacement copy and the old successor both carry
    /// the successor's key *and value*, so the pair is adjacent after the
    /// sort and either copy is the right entry.
    ///
    /// # Safety
    ///
    /// As for [`validate`](Self::validate).
    pub(crate) unsafe fn entries(&self) -> Vec<(K, V)> {
        let mut out: Vec<(K, V)> = self
            .hits
            .iter()
            // SAFETY: allocated per contract; hits are real (non-sentinel)
            // nodes, whose entry never changes after construction.
            .map(|&hit| unsafe { (*hit).entry.clone() }.expect("hits carry real entries"))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out.dedup_by(|a, b| a.0 == b.0);
        out
    }

    /// Clones a directed walk's answer: the least candidate recorded when
    /// `side` is `Dir::Right` (successor), the greatest when it is
    /// `Dir::Left` (predecessor). Along one tree's path each new
    /// candidate is nearer the probe, so this is each tree's answer and
    /// the best across all entered trees.
    ///
    /// # Safety
    ///
    /// As for [`validate`](Self::validate).
    pub(crate) unsafe fn nearest(&self, side: Dir) -> Option<(K, V)> {
        let mut best: Option<&(K, V)> = None;
        for &hit in &self.hits {
            // SAFETY: as in `entries`.
            let entry = unsafe { (*hit).entry.as_ref() }.expect("candidates carry real entries");
            let nearer = best.is_none_or(|b| match side {
                Dir::Right => entry.0 < b.0,
                Dir::Left => entry.0 > b.0,
            });
            if nearer {
                best = Some(entry);
            }
        }
        best.cloned()
    }
}

/// The paper's `validate` (lines 33–38): all checks are on locked nodes'
/// local fields.
///
/// # Safety
///
/// `prev` must be a valid, locked node; `curr` must be null or a valid
/// node.
unsafe fn validate<K, V>(prev: *mut Node<K, V>, tag: u64, curr: *mut Node<K, V>, dir: Dir) -> bool {
    // SAFETY: `prev` valid per contract.
    let prev_ref = unsafe { &*prev };
    if prev_ref.is_marked() || prev_ref.child(dir) != curr {
        return false;
    }
    if !curr.is_null() {
        // SAFETY: `curr` valid per contract.
        return !unsafe { &*curr }.is_marked();
    }
    prev_ref.tag(dir) == tag
}

impl<'t, K, V, F> CitrusSession<'t, K, V, F>
where
    K: Ord + Clone,
    V: Clone,
    F: RcuFlavor,
{
    /// The paper's `get` (lines 1–15): wait-free search from the root,
    /// inside a read-side critical section, returning
    /// `(prev, tag, curr, direction)`.
    ///
    /// Must be called inside an RCU read-side critical section (and with
    /// the EBR pin held in `Epoch` mode).
    ///
    /// Each level waits on one dependent load: the key compare selects
    /// between both already loaded children (DESIGN.md §3, *Branch-free
    /// descent*). The descent starts below the `∞` sentinel, which keeps
    /// its `citrus/search/step` point.
    fn search(&self, key: &K) -> (*mut Node<K, V>, u64, *mut Node<K, V>, Dir) {
        debug_assert!(self.rcu.in_read_section());
        // SAFETY: the root is never null (line 4's comment) and never
        // freed before the tree, nor is its right child, the ∞ sentinel;
        // nodes reached during the read-side section stay allocated
        // (RCU + reclamation protocol). Below ∞ every node is a leaf or a
        // successor copy, so it has an entry.
        unsafe {
            let mut prev = (*self.tree.root).child(Dir::Right);
            let mut dir = Dir::Left;
            chaos::point!("citrus/search/step");
            let mut curr = (*prev).child(dir);
            loop {
                chaos::point!("citrus/search/step");
                if curr.is_null() {
                    break;
                }
                let node = &*curr;
                let cmp = node.entry.as_ref().unwrap_unchecked().0.cmp(key);
                if cmp == CmpOrdering::Equal {
                    break;
                }
                let (left, right) = (node.child(Dir::Left), node.child(Dir::Right));
                prev = curr;
                dir = Dir::from_cmp(cmp);
                curr = core::hint::select_unpredictable(dir == Dir::Left, left, right);
            }
            // Line 13: save the tag inside the read-side critical section.
            let tag = (*prev).tag(dir);
            (prev, tag, curr, dir)
        }
    }

    /// The paper's `contains` (lines 16–20): returns the value stored with
    /// `key`, if present. Wait-free.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let _pin = self.ebr.as_ref().map(|h| h.pin());
        let _guard = self.rcu.read_lock();
        let (_prev, _tag, curr, _dir) = self.search(key);
        // Widens the window between locating the node and reading its
        // value, still inside the read-side section — the interval where
        // a stale read would manifest if the RCU protocol were broken
        // (exercised by the lincheck chaos sweeps).
        chaos::point!("citrus/get/after-search");
        if curr.is_null() {
            return None;
        }
        // SAFETY: `curr` was reachable during the read-side section
        // (Lemma 2) and its value never changes; it cannot be freed while
        // we are inside the section (Leak mode never frees; Epoch mode is
        // covered by the pin).
        unsafe { (*curr).value().cloned() }
    }

    /// Returns `true` iff `key` is present. Wait-free, and — unlike
    /// [`get`](Self::get) — never touches the value: a presence check must
    /// not pay for a `V::clone` it immediately drops.
    pub fn contains(&mut self, key: &K) -> bool {
        let _pin = self.ebr.as_ref().map(|h| h.pin());
        let _guard = self.rcu.read_lock();
        let (_prev, _tag, curr, _dir) = self.search(key);
        // Same window as `get`: the lincheck chaos sweeps drive both
        // operations through this point.
        chaos::point!("citrus/get/after-search");
        !curr.is_null()
    }

    /// Runs one ordered read to a validated completion: walk inside the
    /// read-side context, validate every crossed edge, extract —
    /// restarting from scratch whenever a concurrent update moved one.
    /// Restarts are bounded by interference: each one implies a
    /// concurrent update completed inside the attempt's window (DESIGN.md
    /// §6i), the same progress argument as the updaters' retry loops.
    ///
    /// The walk buffers come from the session and go back to it reset; a
    /// read whose buffers never come back (a panic during extraction)
    /// costs only an allocation: the next read starts from empty buffers.
    fn ordered_read<T>(
        &self,
        query: WalkQuery<'_, K>,
        extract: impl Fn(&ScanWalk<K, V>) -> T,
    ) -> T {
        let mut walk = self.walk.take();
        loop {
            let out = {
                let _pin = self.ebr.as_ref().map(|h| h.pin());
                let _guard = self.rcu.read_lock();
                // SAFETY: the guards hold this session's read-side context
                // from before the walk's first read until after extraction.
                unsafe {
                    walk.visit(self.tree.root, &query);
                    walk.run(&query);
                }
                chaos::point!("citrus/scan/validate");
                // SAFETY: as above.
                unsafe { walk.validate() }.then(|| extract(&walk))
            };
            walk.reset();
            if let Some(value) = out {
                self.walk.set(walk);
                self.tree.metrics.record_scan_op(self.stripe);
                return value;
            }
            self.stats
                .scan_restarts
                .set(self.stats.scan_restarts.get() + 1);
            self.tree.metrics.record_scan_restart(self.stripe);
            chaos::point!("citrus/scan/restart");
        }
    }

    /// Every `(key, value)` pair with `lo <= key <= hi`, in ascending key
    /// order, observed atomically: after the walk, every crossed edge is
    /// re-checked — all reads precede all re-checks, so success means the
    /// whole traversed region existed at one instant, the scan's
    /// linearization point — and the walk restarts when a concurrent
    /// update interfered (DESIGN.md §6i).
    pub fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        // SAFETY: `ordered_read` extracts under its read-side guard.
        self.ordered_read(WalkQuery::Range { lo, hi }, |walk| unsafe {
            walk.entries()
        })
    }

    /// The entry with the least key strictly greater than `key`, observed
    /// atomically (validated traversal, as in
    /// [`range_scan`](Self::range_scan)).
    pub fn successor(&mut self, key: &K) -> Option<(K, V)> {
        self.nearest(key, Dir::Right)
    }

    /// The entry with the greatest key strictly less than `key`, observed
    /// atomically (validated traversal, as in
    /// [`range_scan`](Self::range_scan)).
    pub fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        self.nearest(key, Dir::Left)
    }

    /// The nearest entry strictly beyond `key` on `side`.
    fn nearest(&mut self, key: &K, side: Dir) -> Option<(K, V)> {
        // SAFETY: `ordered_read` extracts under its read-side guard.
        self.ordered_read(WalkQuery::Directed { key, side }, |walk| unsafe {
            walk.nearest(side)
        })
    }

    /// Capacity, in entries, the session's walk buffers keep between
    /// ordered reads: at most [`WALK_BUF_RETAIN`].
    #[doc(hidden)]
    pub fn walk_capacity(&self) -> usize {
        let walk = self.walk.take();
        let capacity = walk.capacity();
        self.walk.set(walk);
        capacity
    }

    /// The paper's `insert` (lines 21–32). Returns `true` iff `key` was
    /// absent.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let _pin = self.ebr.as_ref().map(|h| h.pin());
        // The payload is moved out only on the path that returns, so every
        // retry still owns it — no `Option` dance needed.
        let payload = (key, value);
        loop {
            // Locks are acquired *outside* the read-side critical section
            // (avoiding RCU deadlock), so the guard is scoped to the search.
            let (prev, tag, curr, dir) = {
                let _guard = self.rcu.read_lock();
                self.search(&payload.0)
            };
            if !curr.is_null() {
                // Line 24: the key was found.
                return false;
            }
            // The search→lock window: `prev` may be unlinked or gain a
            // child before we lock it — exactly what validate re-checks.
            chaos::point!("citrus/insert/before-lock");
            // SAFETY: `prev` stays allocated (reclamation protocol); locking
            // an unlinked node is harmless — validation will fail.
            unsafe {
                let mut locks = LockSet::new();
                locks.acquire(prev);
                self.tree.metrics.record_locks(self.stripe, 1);
                if validate(prev, tag, ptr::null_mut(), dir)
                    && !chaos::should_fail!("citrus/insert/force-restart")
                {
                    chaos::point!("citrus/insert/after-validate");
                    let (key, value) = payload;
                    let node = Node::new_leaf(key, value);
                    // Line 29: publish the new leaf.
                    (*prev).set_child(dir, node);
                    return true;
                }
                // Line 32: validation failed; `locks` releases, retry.
            }
            self.stats
                .insert_retries
                .set(self.stats.insert_retries.get() + 1);
            self.tree.metrics.record_insert_retry(self.stripe);
        }
    }

    /// The paper's `delete` (lines 42–84). Returns `true` iff `key` was
    /// present.
    pub fn remove(&mut self, key: &K) -> bool {
        let _pin = self.ebr.as_ref().map(|h| h.pin());
        loop {
            let (prev, _tag, curr, dir) = {
                let _guard = self.rcu.read_lock();
                self.search(key)
            };
            if curr.is_null() {
                // Line 45: the key was not found.
                return false;
            }
            // The search→lock window, as in `insert`.
            chaos::point!("citrus/remove/before-lock");
            // SAFETY: nodes stay allocated for the whole operation (Leak
            // never frees; Epoch covered by `_pin`); every field write
            // below is to a node this thread has locked, and `locks`
            // releases them — in reverse acquisition order, matching the
            // paper's unlock sequence — on every exit, unwinding included.
            unsafe {
                let mut locks = LockSet::new();
                locks.acquire(prev);
                locks.acquire(curr);
                self.tree.metrics.record_locks(self.stripe, 2);
                if !validate(prev, 0, curr, dir)
                    || chaos::should_fail!("citrus/remove/force-restart")
                {
                    drop(locks);
                    self.stats
                        .remove_retries
                        .set(self.stats.remove_retries.get() + 1);
                    self.tree.metrics.record_remove_retry(self.stripe);
                    continue;
                }
                chaos::point!("citrus/remove/after-validate");
                let left = (*curr).child(Dir::Left);
                let right = (*curr).child(Dir::Right);
                if left.is_null() || right.is_null() {
                    // Lines 50–56: at most one child — bypass `curr`.
                    (*curr).mark();
                    let not_none_child = if !left.is_null() { left } else { right };
                    (*prev).set_child(dir, not_none_child);
                    // Bypass published, tag not yet bumped: a concurrent
                    // insert's validate must still catch the change.
                    chaos::point!("citrus/remove/before-increment-tag");
                    (*prev).increment_tag(dir);
                    drop(locks);
                    self.retire(curr);
                    return true;
                }

                // Lines 57–64: two children — find the successor by walking
                // the leftmost branch of `curr`'s right subtree. No
                // read-side critical section is needed: the traversal never
                // consults keys.
                let mut prev_succ = curr;
                let mut succ = right;
                let mut next = (*succ).child(Dir::Left);
                while !next.is_null() {
                    prev_succ = succ;
                    succ = next;
                    next = (*next).child(Dir::Left);
                }
                // Line 65.
                let succ_dir = if prev_succ == curr {
                    Dir::Right
                } else {
                    Dir::Left
                };
                // Lines 66–68: do not lock `curr` twice.
                if prev_succ != curr {
                    locks.acquire(prev_succ);
                }
                locks.acquire(succ);
                self.tree
                    .metrics
                    .record_locks(self.stripe, if prev_succ == curr { 1 } else { 2 });

                // Line 69.
                let succ_left_tag = (*succ).tag(Dir::Left);
                if validate(prev_succ, 0, succ, succ_dir)
                    && validate(succ, succ_left_tag, ptr::null_mut(), Dir::Left)
                {
                    // Line 70: a copy of the successor with `curr`'s
                    // children. The user `Clone` calls happen *before* any
                    // structural change: if one panics, `locks` unwinds and
                    // the tree is untouched.
                    let node = Node::new_replacement(
                        (*succ).entry.clone(),
                        (*curr).child(Dir::Left),
                        (*curr).child(Dir::Right),
                    );
                    // Line 71: ...locked before publication.
                    (*node).lock.lock();
                    locks.adopt(node);
                    self.tree.metrics.record_locks(self.stripe, 1);
                    // Lines 72–73: mark `curr`, splice the copy in. From
                    // here until line 75 two nodes carry the successor's
                    // key — the weak BST property (Definition 1).
                    (*curr).mark();
                    (*prev).set_child(dir, node);

                    // The weak-BST window: two nodes carry the successor's
                    // key until the grace period elapses.
                    chaos::point!("citrus/remove/before-synchronize");
                    // Line 74: wait for pre-existing searches, which may
                    // still be looking at the successor's *old* location.
                    // The mutant guard is a test-only bug switch (chaos
                    // builds only): skipping the grace period unlinks the
                    // old successor while a pre-existing reader may be
                    // about to traverse it — the exploration suite must
                    // find the resulting lost read.
                    if !chaos::mutant_enabled("citrus/remove/skip-synchronize") {
                        self.rcu.synchronize();
                    }
                    chaos::point!("citrus/remove/after-synchronize");
                    self.stats
                        .synchronize_calls
                        .set(self.stats.synchronize_calls.get() + 1);
                    self.tree.metrics.record_synchronize(self.stripe);

                    // Lines 75–81: unlink the old successor.
                    (*succ).mark();
                    if prev_succ == curr {
                        // Line 76: succ was the right child of curr, so its
                        // old position is now under the replacement copy.
                        (*node).set_child(Dir::Right, (*succ).child(Dir::Right));
                        (*node).increment_tag(Dir::Right);
                    } else {
                        (*prev_succ).set_child(Dir::Left, (*succ).child(Dir::Right));
                        (*prev_succ).increment_tag(Dir::Left);
                    }

                    // Lines 82–83: release all locks (reverse acquisition
                    // order: node, succ, prev_succ, curr, prev).
                    drop(locks);
                    self.retire(curr);
                    self.retire(succ);
                    return true;
                }

                // Line 84: validation failed; `locks` releases all five,
                // retry.
            }
            self.stats
                .remove_retries
                .set(self.stats.remove_retries.get() + 1);
            self.tree.metrics.record_remove_retry(self.stripe);
        }
    }

    /// Operation statistics for this session.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Hands an unlinked node to the tree's reclamation scheme.
    ///
    /// # Safety-relevant invariant
    ///
    /// `node` must be unreachable from the root (just unlinked by this
    /// thread while holding the relevant locks).
    fn retire(&self, node: *mut Node<K, V>) {
        match &self.ebr {
            Some(handle) => {
                // SAFETY: `node` is unlinked and came from a `Node`
                // constructor; concurrent holders are covered by their pins.
                unsafe { handle.retire_raw(node.cast(), Node::<K, V>::free_erased) };
            }
            None => {
                let mut local = self.graveyard.borrow_mut();
                local.push(node);
                if local.len() >= GRAVEYARD_FLUSH {
                    if let ReclaimInner::Leak(shared) = &self.tree.reclaim {
                        shared.lock().append(&mut local);
                    }
                }
            }
        }
    }
}

impl<K, V, F: RcuFlavor> CitrusSession<'_, K, V, F> {
    /// Enters the read-side context ordered reads walk under — the EBR
    /// pin (`Epoch` mode), then the RCU read lock — and returns the tree's
    /// root sentinel. Pair with exactly one
    /// [`read_side_exit`](Self::read_side_exit): a forest fan-out holds
    /// several shards' contexts at once and releases them together.
    pub(crate) fn read_side_enter(&self) -> *mut Node<K, V> {
        if let Some(ebr) = &self.ebr {
            ebr.raw_pin();
        }
        self.rcu.raw_read_lock();
        self.tree.root
    }

    /// Leaves the context [`read_side_enter`](Self::read_side_enter)
    /// entered.
    pub(crate) fn read_side_exit(&self) {
        self.rcu.raw_read_unlock();
        if let Some(ebr) = &self.ebr {
            ebr.raw_unpin();
        }
    }
}

impl<K, V, F: RcuFlavor> Drop for CitrusSession<'_, K, V, F> {
    fn drop(&mut self) {
        let mut local = self.graveyard.borrow_mut();
        if !local.is_empty() {
            if let ReclaimInner::Leak(shared) = &self.tree.reclaim {
                shared.lock().append(&mut local);
            }
        }
    }
}

impl<K, V, F: RcuFlavor> fmt::Debug for CitrusSession<'_, K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CitrusSession")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<K, V, F> MapSession<K, V> for CitrusSession<'_, K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn get(&mut self, key: &K) -> Option<V> {
        CitrusSession::get(self, key)
    }

    fn contains(&mut self, key: &K) -> bool {
        // Not the default `get(..).is_some()`: presence checks must not
        // clone the value.
        CitrusSession::contains(self, key)
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        CitrusSession::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> bool {
        CitrusSession::remove(self, key)
    }
}

impl<K, V, F> OrderedMapSession<K, V> for CitrusSession<'_, K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        CitrusSession::range_scan(self, lo, hi)
    }

    fn successor(&mut self, key: &K) -> Option<(K, V)> {
        CitrusSession::successor(self, key)
    }

    fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        CitrusSession::predecessor(self, key)
    }
}
