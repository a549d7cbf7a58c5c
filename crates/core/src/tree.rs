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
//!   the same read-side protocol (DESIGN.md §6i): collect an in-order
//!   traversal recording every crossed edge, re-check all of them after
//!   the walk, and restart from scratch when a concurrent update moved
//!   one.
//!
//! In **deferred-free mode** (`CITRUS_DEFERRED_FREE=1` or
//! [`CitrusTree::with_options`]; DESIGN.md §6g) the two-child delete does
//! not pay line 74's grace period inline: it splices the copy, transfers
//! the locks freezing the successor's old edge into an [`UnlinkRecord`],
//! and returns; a `call_rcu`-style batch ([`CallRcu`]) runs lines 75–83
//! after **one** shared grace period per batch.

use crate::metrics::TreeMetrics;
use crate::node::{Dir, Node};
use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos as chaos;
use citrus_obs::MetricsRegistry;
use citrus_rcu::{RcuFlavor, RcuHandle, RcuReadGuard, ScalableRcu};
use citrus_reclaim::{
    deferred_free_from_env, CallRcu, CallRcuConfig, EbrDomain, EbrGuard, EbrHandle,
};
use citrus_sync::SpinMutex;
use core::cell::{Cell, RefCell};
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::marker::PhantomData;
use core::ptr;
use std::sync::Arc;
use std::time::Duration;

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

// SAFETY: the graveyard pointers are owned (unlinked) allocations; handing
// them across threads is sound when the payloads are. The deferred-unlink
// machinery shares this sink across threads, hence the impls (guarded by
// the same bounds as the tree's own `Send`/`Sync`).
unsafe impl<K: Send + Sync, V: Send + Sync> Send for ReclaimInner<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for ReclaimInner<K, V> {}

impl<K, V> ReclaimInner<K, V> {
    /// Hands an unlinked node to the scheme, from any thread (the deferred
    /// flush callback runs wherever the flush does).
    ///
    /// # Safety
    ///
    /// `node` must come from a `Node` constructor and be unreachable from
    /// the root; threads may still hold references acquired while pinned
    /// (Epoch) or before tree drop (Leak).
    unsafe fn retire_node(&self, node: *mut Node<K, V>) {
        match self {
            ReclaimInner::Leak(graveyard) => graveyard.lock().push(node),
            // SAFETY: forwarded to the caller's contract.
            ReclaimInner::Epoch(domain) => unsafe {
                domain.retire_shared_raw(node.cast(), Node::<K, V>::free_erased)
            },
        }
    }
}

impl<K, V> Drop for ReclaimInner<K, V> {
    fn drop(&mut self) {
        // Runs when the last owner (the tree, or the final in-flight
        // deferred-unlink record) goes away: every graveyard node is
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
    /// Shared with the deferred machinery's flush path, which synchronizes
    /// on this domain from whichever thread flushes.
    rcu: Arc<F>,
    /// Shared with in-flight deferred-unlink records, which retire their
    /// successor into this sink when they run.
    reclaim: Arc<ReclaimInner<K, V>>,
    /// `Some` when two-child deletes defer their unlink to a `call_rcu`
    /// batch instead of synchronizing inline (DESIGN.md §6g).
    deferred: Option<CallRcu<F>>,
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
    ///
    /// Two-child deletes synchronize inline (the paper's algorithm) unless
    /// the `CITRUS_DEFERRED_FREE` environment variable turns on deferred
    /// unlinking ([`deferred_free_from_env`]); use
    /// [`with_options`](Self::with_options) to pick explicitly.
    pub fn new() -> Self {
        Self::with_reclaim(ReclaimMode::default())
    }

    /// Creates an empty tree with the given reclamation mode (deferred
    /// unlinking per `CITRUS_DEFERRED_FREE`).
    pub fn with_reclaim(mode: ReclaimMode) -> Self {
        Self::with_rcu(F::new(), mode)
    }

    /// Creates an empty tree over a caller-constructed RCU domain — lets
    /// tests and ablations pin a domain configuration (e.g.
    /// `ScalableRcu::with_sharing(false)`) regardless of environment
    /// knobs like `CITRUS_RCU_NO_SHARING` (deferred unlinking still per
    /// `CITRUS_DEFERRED_FREE`).
    pub fn with_rcu(rcu: F, mode: ReclaimMode) -> Self {
        Self::with_options(rcu, mode, deferred_free_from_env())
    }

    /// Creates an empty tree with every mode pinned explicitly: the RCU
    /// domain, the reclamation scheme, and whether two-child deletes defer
    /// their unlink to a [`CallRcu`] batch (`deferred = true`) or pay the
    /// paper's inline `synchronize_rcu` (`deferred = false`).
    ///
    /// The `K: Send + Sync, V: Send + Sync` bounds on this impl block are
    /// what make deferred mode sound: pending unlink records free their
    /// node — key and value included — on whichever thread flushes.
    pub fn with_options(rcu: F, mode: ReclaimMode, deferred: bool) -> Self {
        Self::with_deferred_config(rcu, mode, deferred.then(Self::deferred_config))
    }

    /// Like [`with_options`](Self::with_options) but with the deferred
    /// [`CallRcuConfig`] pinned by the caller (`Some` enables deferred
    /// unlinking with exactly that tuning, `None` keeps the paper's
    /// inline `synchronize_rcu`). Schedule-exploration scenarios use this
    /// to make every flush run inline on the enqueuing (scheduled) thread
    /// — `batch_threshold: 1`, `eager_flush: true`, `wake_on_first:
    /// false` — so the straggler worker never participates.
    pub fn with_deferred_config(
        rcu: F,
        mode: ReclaimMode,
        deferred: Option<CallRcuConfig>,
    ) -> Self {
        let inf = Node::new_sentinel(false);
        let root = Node::new_sentinel(true);
        // SAFETY: freshly allocated, exclusively owned until `Self` exists.
        unsafe { (*root).set_child(Dir::Right, inf) };
        let rcu = Arc::new(rcu);
        Self {
            root,
            rcu: Arc::clone(&rcu),
            reclaim: Arc::new(match mode {
                ReclaimMode::Leak => ReclaimInner::Leak(SpinMutex::new(Vec::new())),
                ReclaimMode::Epoch => ReclaimInner::Epoch(EbrDomain::new()),
            }),
            deferred: deferred.map(|config| CallRcu::with_config(rcu, config)),
            metrics: TreeMetrics::new(),
            _marker: PhantomData,
        }
    }

    /// The tree's `call_rcu` tuning. Unlink records freeze two node locks
    /// until they run, so the flush cadence trades lock-frozen time
    /// against flush overhead: `eager_flush` makes the deleting thread
    /// that fills a batch run the flush itself — one shared grace period
    /// per `batch_threshold` deletes, zero worker wakeups in the steady
    /// state (a wakeup is two context switches, expensive when cores are
    /// scarce), and a frozen window bounded by the time the batch takes
    /// to fill. The worker only catches stragglers: `wake_on_first` plus
    /// the batch-build delay bound a lone record's frozen window when the
    /// delete rate drops to zero. Flushing per record instead measures
    /// *slower* than the inline algorithm on a single-core host: a
    /// context switch plus a grace period per delete.
    ///
    /// `CITRUS_DEFERRED_BATCH` (records) and
    /// `CITRUS_DEFERRED_INTERVAL_US` (microseconds) override the two
    /// knobs for experiments; the defaults are tuned on the committed
    /// benchmark host.
    fn deferred_config() -> CallRcuConfig {
        // Malformed values abort loudly instead of silently falling back:
        // a typo'd knob would otherwise make the run *look* configured.
        let env_u64 = |name: &str, default: u64| match std::env::var(name) {
            Ok(raw) => raw.trim().parse().unwrap_or_else(|e| {
                panic!("invalid {name}={raw:?}: {e} (expected an unsigned integer)")
            }),
            Err(std::env::VarError::NotPresent) => default,
            Err(e) => panic!("invalid {name}: {e}"),
        };
        CallRcuConfig {
            batch_threshold: env_u64("CITRUS_DEFERRED_BATCH", 16) as usize,
            worker_interval: Duration::from_micros(env_u64("CITRUS_DEFERRED_INTERVAL_US", 200)),
            wake_on_first: true,
            eager_flush: true,
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
        if let ReclaimInner::Epoch(domain) = &*self.reclaim {
            domain
                .metrics()
                .register_into(registry, &format!("{prefix}reclaim"));
        }
        if let Some(deferred) = &self.deferred {
            deferred
                .metrics()
                .register_into(registry, &format!("{prefix}deferred"));
        }
    }

    /// The tree's reclamation mode.
    pub fn reclaim_mode(&self) -> ReclaimMode {
        match &*self.reclaim {
            ReclaimInner::Leak(_) => ReclaimMode::Leak,
            ReclaimInner::Epoch(_) => ReclaimMode::Epoch,
        }
    }

    /// Whether two-child deletes defer their unlink to a [`CallRcu`] batch
    /// instead of calling `synchronize_rcu` inline.
    pub fn deferred_free(&self) -> bool {
        self.deferred.is_some()
    }

    /// The deferred-reclamation domain, when
    /// [`deferred_free`](Self::deferred_free) is on (diagnostics: batch
    /// and execution counts for benchmarks and tests).
    pub fn deferred(&self) -> Option<&CallRcu<F>> {
        self.deferred.as_ref()
    }

    /// Runs every pending deferred unlink to completion (no-op in inline
    /// mode). One shared grace period per queued batch; on return — given
    /// no concurrently active sessions — no successor is left awaiting
    /// unlink, which is what the quiescent inspection helpers in
    /// [`crate::checks`] rely on.
    pub fn flush_deferred(&self) {
        if let Some(deferred) = &self.deferred {
            deferred.drain();
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
        match &*self.reclaim {
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
            ebr: match &*self.reclaim {
                ReclaimInner::Epoch(domain) => Some(domain.register()),
                ReclaimInner::Leak(_) => None,
            },
            graveyard: RefCell::new(Vec::new()),
            walk_bufs: Cell::default(),
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
        // reachable node is exclusively ours.
        //
        // Shut down the deferred machinery *first*: its drop joins the
        // worker and runs every pending unlink record, so by the time the
        // root sweep below starts, every deferred successor has been
        // unlinked and retired into `self.reclaim` — the sweep and the
        // reclamation sink are disjoint again (delete unlinks before
        // retiring).
        drop(self.deferred.take());
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
        // `EbrDomain`'s own Drop when the last `Arc` reference (normally
        // this one) goes away.
    }
}

impl<K: fmt::Debug, V, F: RcuFlavor> fmt::Debug for CitrusTree<K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CitrusTree")
            .field("rcu", &F::NAME)
            .field("reclaim", &self.reclaim_mode())
            .field("deferred", &self.deferred_free())
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
    deferred_unlinks: Cell<u64>,
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

    /// `synchronize_rcu` invocations (one per successful two-child delete
    /// in inline mode; deferred-mode deletes count under
    /// [`deferred_unlinks`](Self::deferred_unlinks) instead).
    pub fn synchronize_calls(&self) -> u64 {
        self.synchronize_calls.get()
    }

    /// Two-child deletes that enqueued their unlink on the deferred queue
    /// instead of synchronizing inline.
    pub fn deferred_unlinks(&self) -> u64 {
        self.deferred_unlinks.get()
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
    /// The ordered reads' walk buffers, empty between reads: a walk takes
    /// them and [`recycle`](Self::recycle) hands them back, so a warmed
    /// session's reads allocate nothing but their results.
    walk_bufs: Cell<ScanAttempt<K, V>>,
}

/// Batch size for flushing the session graveyard to the shared one.
const GRAVEYARD_FLUSH: usize = 256;

/// The most entries of capacity each walk buffer keeps between ordered
/// reads (at most 96 KiB per session in all): enough for a walk over a
/// few hundred keys, so one full-range scan does not leave megabytes
/// attached to the session.
const WALK_BUF_RETAIN: usize = 2048;

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

    /// Relinquishes responsibility for `node` *without* unlocking it — the
    /// caller (a deferred [`UnlinkRecord`]) now owns the unlock. `node`
    /// must be in the set.
    fn transfer(&mut self, node: *mut Node<K, V>) {
        for slot in self.nodes[..self.len].iter_mut() {
            if *slot == node {
                *slot = ptr::null_mut();
                return;
            }
        }
        debug_assert!(false, "transferred a node the lock set does not hold");
    }
}

impl<K, V> Drop for LockSet<K, V> {
    fn drop(&mut self) {
        for &node in self.nodes[..self.len].iter().rev() {
            // Nulled slots were transferred to a deferred unlink record.
            if node.is_null() {
                continue;
            }
            // SAFETY: locked by this thread via `acquire`/`adopt` and not
            // yet unlocked; nodes outlive the operation (reclamation
            // protocol).
            unsafe { (*node).lock.unlock() };
        }
    }
}

/// The deferred continuation of a two-child delete (DESIGN.md §6g): the
/// state needed to run the paper's lines 75–83 — mark the old successor,
/// swing the edge past it, retire it — once a grace period has elapsed.
///
/// The record *owns two spin locks*, transferred out of the operation's
/// [`LockSet`]: `edge_owner`'s (freezing the edge that still points at
/// `succ`) and `succ`'s own (freezing its children and its mark). Holding
/// them until [`run_unlink`] executes is what keeps the captured edge
/// valid: every structural mutation in the tree happens under the owning
/// node's lock, and neither node can be marked, bypassed, or retired while
/// locked. Updaters that reach the frozen edge spin or fail validation and
/// retry — bounded by the flush latency — while readers, who never take
/// locks, are unaffected.
struct UnlinkRecord<K, V> {
    /// The node owning the still-live edge to `succ`: the replacement copy
    /// when the successor was `curr`'s right child (paper line 76), else
    /// `prev_succ` (line 79).
    edge_owner: *mut Node<K, V>,
    edge_dir: Dir,
    /// The old successor: unmarked and reachable through `edge_owner`
    /// until the record runs (the weak-BST duplicate-key window).
    succ: *mut Node<K, V>,
    /// Where `succ` goes once unlinked. Keeps the sink alive even if the
    /// tree is mid-drop (tree drop drains the deferred queue first).
    sink: Arc<ReclaimInner<K, V>>,
}

/// Executes an [`UnlinkRecord`] (type-erased for the deferred queue).
///
/// # Safety
///
/// `data` must come from `Box::into_raw` of the record; a grace period
/// covering every read-side critical section that predates the record's
/// enqueue must have elapsed (the [`CallRcu`] contract).
unsafe fn run_unlink<K, V>(data: *mut u8) {
    // SAFETY: `data` is the Boxed record per this function's contract.
    let rec = unsafe { Box::from_raw(data.cast::<UnlinkRecord<K, V>>()) };
    chaos::point!("citrus/deferred-unlink/run");
    // SAFETY: both nodes are valid — `edge_owner` cannot be unlinked or
    // retired while its lock (held by this record) is taken, and `succ` is
    // retired only below. The grace period has elapsed, so no pre-existing
    // search can still be parked at `succ`'s old position: unlinking now
    // is exactly the paper's lines 75–81, executed late under the same
    // locks.
    unsafe {
        (*rec.succ).mark();
        // `succ` has no left child (validated under lock at delete time
        // and frozen by `succ`'s lock since), so bypassing it to its right
        // child removes exactly one node.
        (*rec.edge_owner).set_child(rec.edge_dir, (*rec.succ).child(Dir::Right));
        (*rec.edge_owner).increment_tag(rec.edge_dir);
        // Release in reverse acquisition order, as the inline path does.
        (*rec.succ).lock.unlock();
        (*rec.edge_owner).lock.unlock();
        // Into the reclamation sink, not a direct free: updaters may still
        // hold `succ` from before their pins/epochs expired.
        rec.sink.retire_node(rec.succ);
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

/// A collected, not-yet-validated ordered-read traversal: every edge the
/// walk crossed plus the nodes whose keys answered the query (in visit
/// order). Its buffers belong to the session that walked: they come from
/// and go back to [`CitrusSession::recycle`], so their capacity is reused.
///
/// Collection and validation are deliberately split: all edge *reads*
/// happen before all edge *re-checks*, so when [`validate`](Self::validate)
/// succeeds every per-edge constancy interval contains the instant the
/// collection ended — the entire traversed region existed simultaneously
/// at that instant, which is the read's linearization point. `pub(crate)`
/// so [`ForestSession`](crate::ForestSession) can collect one attempt per
/// shard and validate the whole fan-out together.
pub(crate) struct ScanAttempt<K, V> {
    edges: Vec<ScanEdge<K, V>>,
    hits: Vec<*mut Node<K, V>>,
    /// The walk's frame stack. Empty once the walk has finished; it rides
    /// along only so its capacity returns to the session with the rest.
    frames: Vec<Frame<K, V>>,
}

impl<K, V> Default for ScanAttempt<K, V> {
    fn default() -> Self {
        Self {
            edges: Vec::new(),
            hits: Vec::new(),
            frames: Vec::new(),
        }
    }
}

impl<K, V> ScanAttempt<K, V> {
    fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.hits.is_empty() && self.frames.is_empty()
    }

    /// Empties the buffers for the next walk, keeping at most
    /// [`WALK_BUF_RETAIN`] entries of capacity in each.
    fn reset(&mut self) {
        self.edges.clear();
        self.edges.shrink_to(WALK_BUF_RETAIN);
        self.hits.clear();
        self.hits.shrink_to(WALK_BUF_RETAIN);
        self.frames.clear();
        self.frames.shrink_to(WALK_BUF_RETAIN);
    }

    /// Loads and records `parent`'s `dir` edge, returning the child.
    ///
    /// # Safety
    ///
    /// `parent` must be a valid node.
    unsafe fn record_edge(&mut self, parent: *mut Node<K, V>, dir: Dir) -> *mut Node<K, V> {
        // SAFETY: valid per contract.
        let child = unsafe { (*parent).child(dir) };
        if child.is_null() {
            // SAFETY: valid per contract.
            let tag = unsafe { (*parent).tag(dir) };
            self.edges.push(ScanEdge::Null { parent, dir, tag });
        } else {
            self.edges.push(ScanEdge::Live { parent, dir, child });
        }
        child
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
    /// Every recorded node must still be allocated: the read-side section
    /// and pin the attempt was collected under must still be held.
    pub(crate) unsafe fn validate(&self) -> bool {
        self.edges.iter().all(|edge| match *edge {
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

    /// Whether the attempt recorded any candidate hit. Safe: only the hit
    /// list's emptiness is inspected, no node is dereferenced — the forest's
    /// widening directed probe uses this to decide whether to stop before
    /// the attempt has been validated.
    pub(crate) fn has_candidate(&self) -> bool {
        !self.hits.is_empty()
    }
}

impl<K: Ord + Clone, V: Clone> ScanAttempt<K, V> {
    /// Clones the matched entries of `attempts`, walks of trees whose key
    /// sets are disjoint, into one ascending list: a k-way merge of the
    /// attempts' hit lists, which are each ascending, that needs no heap
    /// or buffer beyond the result. It collapses the adjacent duplicate
    /// the two-child delete's replacement window can expose: between
    /// splice and unlink, the replacement copy and the old successor both
    /// carry the successor's key *and value*, and sit next to each other
    /// in visit order. The hit lists are consumed.
    ///
    /// # Safety
    ///
    /// As for [`validate`](Self::validate), for every attempt.
    pub(crate) unsafe fn merge_entries(attempts: &mut [Self]) -> Vec<(K, V)> {
        let total = attempts.iter().map(|a| a.hits.len()).sum();
        let mut out: Vec<(K, V)> = Vec::with_capacity(total);
        // Reversed, each list pops its least remaining hit from the end.
        for attempt in attempts.iter_mut() {
            attempt.hits.reverse();
        }
        loop {
            let mut least: Option<(usize, &(K, V))> = None;
            for (i, attempt) in attempts.iter().enumerate() {
                if let Some(&hit) = attempt.hits.last() {
                    // SAFETY: allocated per contract; hits are real
                    // (non-sentinel) nodes, whose key and value never
                    // change after construction.
                    let entry = unsafe { (*hit).entry.as_ref() }.expect("hits carry real entries");
                    if least.is_none_or(|(_, best)| entry.0 < best.0) {
                        least = Some((i, entry));
                    }
                }
            }
            let Some((i, (key, value))) = least else {
                return out;
            };
            attempts[i].hits.pop();
            if out.last().is_some_and(|(k, _)| k == key) {
                continue;
            }
            out.push((key.clone(), value.clone()));
        }
    }

    /// Clones the single candidate entry (successor / predecessor probes
    /// record at most one hit).
    ///
    /// # Safety
    ///
    /// As for [`validate`](Self::validate).
    pub(crate) unsafe fn candidate(&self) -> Option<(K, V)> {
        self.hits.last().map(|&hit| {
            // SAFETY: as in `entries`.
            let node = unsafe { &*hit };
            node.entry.clone().expect("candidates carry real entries")
        })
    }
}

/// What an ordered-read walk is looking for.
enum WalkQuery<'q, K> {
    /// Every node with `lo <= key <= hi`, in order.
    Range { lo: &'q K, hi: &'q K },
    /// The nearest real key strictly beyond `key` on `side`.
    Directed { key: &'q K, side: Dir },
}

/// In-order walk frames: descend left first, then emit and go right.
/// A directed walk only ever uses `Enter`.
enum Frame<K, V> {
    Enter(*mut Node<K, V>),
    Visit(*mut Node<K, V>),
}

/// A resumable ordered-read traversal of one tree: the only range-walk
/// implementation, shared by the single tree and the forest.
///
/// Each [`step`](Self::step) advances until it has recorded one new
/// non-null child edge, prefetches that child, and returns — so a forest
/// fan-out can step every shard's walk round-robin and keep one cache
/// miss per shard in flight instead of taking the shards' dependent miss
/// chains one after another. A single tree just runs the walk to
/// completion ([`finish`](Self::finish)). Either way each walk records
/// exactly the same edges and hits in the same order; only the order of
/// reads *across* walks changes, and joint validation needs no order
/// among the reads — only that all of them precede every re-check
/// (DESIGN.md §6i).
pub(crate) struct ScanWalk<'q, K, V> {
    query: WalkQuery<'q, K>,
    attempt: ScanAttempt<K, V>,
}

impl<'q, K: Ord, V> ScanWalk<'q, K, V> {
    /// Starts a walk at `start` that records into `attempt`, a session's
    /// emptied walk buffers.
    fn new(
        query: WalkQuery<'q, K>,
        start: Option<*mut Node<K, V>>,
        mut attempt: ScanAttempt<K, V>,
    ) -> Self {
        debug_assert!(attempt.is_empty(), "walk buffers are recycled empty");
        attempt.frames.extend(start.map(Frame::Enter));
        Self { query, attempt }
    }

    /// Advances the walk until it records a new non-null child edge (or
    /// runs out of frames). Returns `true` while work remains; stepping a
    /// finished walk is a cheap no-op returning `false`.
    ///
    /// # Safety
    ///
    /// The read-side context of the session that started the walk
    /// ([`CitrusSession::ordered_read_enter`]) must have been held
    /// continuously since the walk started.
    pub(crate) unsafe fn step(&mut self) -> bool {
        while let Some(frame) = self.attempt.frames.pop() {
            // SAFETY: every frame's pointer was read from a live edge
            // inside the read-side section the caller has held since, so
            // it stays allocated (Leak never frees; Epoch is covered by
            // the caller's pin).
            let child = unsafe { self.advance(frame) };
            if !child.is_null() {
                Node::prefetch(child);
                self.attempt.frames.push(Frame::Enter(child));
                return true;
            }
        }
        false
    }

    /// Processes one frame and returns the child edge it crossed (null
    /// when it crossed none, or crossed a null edge).
    ///
    /// # Safety
    ///
    /// The frame's node must still be allocated (see [`step`](Self::step)).
    unsafe fn advance(&mut self, frame: Frame<K, V>) -> *mut Node<K, V> {
        // SAFETY: valid per contract; `record_edge` reads only `n`.
        unsafe {
            match (frame, &self.query) {
                (Frame::Enter(n), &WalkQuery::Range { lo, .. }) => {
                    chaos::point!("citrus/scan/step");
                    self.attempt.frames.push(Frame::Visit(n));
                    // Keys below `n` can only matter when n.key > lo
                    // (sentinels prune themselves: −∞ is never greater,
                    // so the root's left edge is skipped).
                    if (*n).cmp_key(lo) == CmpOrdering::Greater {
                        self.attempt.record_edge(n, Dir::Left)
                    } else {
                        ptr::null_mut()
                    }
                }
                (Frame::Visit(n), &WalkQuery::Range { lo, hi }) => {
                    let node = &*n;
                    // Sentinels compare outside every [lo, hi].
                    if node.cmp_key(lo) != CmpOrdering::Less
                        && node.cmp_key(hi) != CmpOrdering::Greater
                    {
                        self.attempt.hits.push(n);
                    }
                    // Keys above `n` can only matter when n.key < hi.
                    if node.cmp_key(hi) == CmpOrdering::Less {
                        self.attempt.record_edge(n, Dir::Right)
                    } else {
                        ptr::null_mut()
                    }
                }
                (Frame::Enter(n), &WalkQuery::Directed { key, side }) => {
                    chaos::point!("citrus/scan/step");
                    let cmp = (*n).cmp_key(key);
                    // Successor: any node with key > probe is a candidate,
                    // and the search continues left toward smaller ones;
                    // otherwise right. Predecessor is the mirror image.
                    // Sentinels steer the walk but never become candidates.
                    let toward_probe = if side == Dir::Right {
                        cmp == CmpOrdering::Greater
                    } else {
                        cmp == CmpOrdering::Less
                    };
                    let dir = if toward_probe {
                        if (*n).as_key().is_some() {
                            self.attempt.hits.clear();
                            self.attempt.hits.push(n);
                        }
                        if side == Dir::Right {
                            Dir::Left
                        } else {
                            Dir::Right
                        }
                    } else {
                        side
                    };
                    self.attempt.record_edge(n, dir)
                }
                (Frame::Visit(_), WalkQuery::Directed { .. }) => {
                    unreachable!("directed walks push only Enter frames")
                }
            }
        }
    }

    /// Steps the walk to completion and hands back the collected,
    /// not-yet-validated attempt, whose buffers go back to the session
    /// through [`CitrusSession::recycle`] once it has been used.
    ///
    /// # Safety
    ///
    /// As for [`step`](Self::step).
    pub(crate) unsafe fn finish(mut self) -> ScanAttempt<K, V> {
        // SAFETY: forwarded to the caller's contract.
        while unsafe { self.step() } {}
        self.attempt
    }
}

/// Read-side guards for one ordered-read attempt: the session's EBR pin
/// (`Epoch` mode) plus its RCU read lock, bundled so the forest can hold
/// one per shard for the whole fan-out's collect-then-validate window.
pub(crate) struct OrderedReadGuard<'s, 't, F: RcuFlavor> {
    _pin: Option<EbrGuard<'s, 't>>,
    _rcu: RcuReadGuard<'s, F::Handle<'t>>,
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
    fn search(&self, key: &K) -> (*mut Node<K, V>, u64, *mut Node<K, V>, Dir) {
        debug_assert!(self.rcu.in_read_section());
        let mut prev = self.tree.root;
        // SAFETY: the root is never null (line 4's comment) and never
        // freed before the tree; nodes reached during the read-side
        // section stay allocated (RCU + reclamation protocol).
        unsafe {
            let mut dir = Dir::Right;
            let mut curr = (*prev).child(dir); // root's right child: the ∞ sentinel
            loop {
                chaos::point!("citrus/search/step");
                if curr.is_null() {
                    break;
                }
                let cmp = (*curr).cmp_key(key);
                if cmp == CmpOrdering::Equal {
                    break;
                }
                prev = curr;
                dir = Dir::from_cmp(cmp);
                curr = (*prev).child(dir);
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

    /// Enters the read-side context ordered reads traverse under — the
    /// EBR pin (`Epoch` mode) and the RCU read lock — bundled so the
    /// forest can hold one per shard across a fan-out scan.
    pub(crate) fn ordered_read_enter(&self) -> OrderedReadGuard<'_, 't, F> {
        OrderedReadGuard {
            _pin: self.ebr.as_ref().map(|h| h.pin()),
            _rcu: self.rcu.read_lock(),
        }
    }

    /// Starts an in-order walk over `[lo, hi]` that records every
    /// traversed edge and every in-range node. Collection only — the
    /// caller steps the walk (possibly interleaved with other shards'
    /// walks) and validates afterwards.
    ///
    /// Must be stepped inside this session's read-side context
    /// ([`ordered_read_enter`](Self::ordered_read_enter)).
    pub(crate) fn range_walk<'q>(&self, lo: &'q K, hi: &'q K) -> ScanWalk<'q, K, V> {
        debug_assert!(self.rcu.in_read_section());
        // An empty span starts finished: there is nothing to traverse.
        let start = if lo > hi { None } else { Some(self.tree.root) };
        ScanWalk::new(WalkQuery::Range { lo, hi }, start, self.walk_bufs.take())
    }

    /// Starts a walk down the successor (`side == Dir::Right`) or
    /// predecessor (`side == Dir::Left`) search path for `key`, recording
    /// every traversed edge; the attempt's hit list ends holding the
    /// candidate — the nearest real key strictly beyond the probe — if one
    /// exists.
    ///
    /// Must be stepped inside this session's read-side context, like
    /// [`range_walk`](Self::range_walk).
    pub(crate) fn directed_walk<'q>(&self, key: &'q K, side: Dir) -> ScanWalk<'q, K, V> {
        debug_assert!(self.rcu.in_read_section());
        ScanWalk::new(
            WalkQuery::Directed { key, side },
            Some(self.tree.root),
            self.walk_bufs.take(),
        )
    }

    /// Hands a walk's buffers back, emptied, for this session's next
    /// ordered read. Called after extraction on the validated path and
    /// on the restart path alike. A walk whose buffers never come back
    /// (a panic during extraction) costs only an allocation: the next
    /// walk then starts from empty buffers.
    pub(crate) fn recycle(&self, mut attempt: ScanAttempt<K, V>) {
        attempt.reset();
        self.walk_bufs.set(attempt);
    }

    /// Runs one ordered read to a validated completion: collect inside
    /// the read-side context, validate every crossed edge, extract —
    /// restarting from scratch whenever a concurrent update moved one.
    /// Restarts are bounded by interference: each one implies a
    /// concurrent update completed inside the attempt's window (DESIGN.md
    /// §6i), the same progress argument as the updaters' retry loops.
    fn ordered_read<'q, T>(
        &self,
        walk: impl Fn(&Self) -> ScanWalk<'q, K, V>,
        extract: impl Fn(&mut ScanAttempt<K, V>) -> T,
    ) -> T
    where
        K: 'q,
    {
        loop {
            let out = {
                let _guard = self.ordered_read_enter();
                // SAFETY: `_guard` has held this session's read-side
                // context since before the walk started.
                let mut attempt = unsafe { walk(self).finish() };
                chaos::point!("citrus/scan/validate");
                // The mutant is a test-only planted bug (chaos builds
                // only): skipping validation can tear the read across a
                // concurrent update — the exploration suite must find the
                // resulting non-linearizable result.
                // SAFETY: `_guard` still holds the read-side section and
                // pin `collect` ran under.
                let out = if chaos::mutant_enabled("citrus/scan/skip-validation")
                    || unsafe { attempt.validate() }
                {
                    Some(extract(&mut attempt))
                } else {
                    None
                };
                self.recycle(attempt);
                out
            };
            match out {
                Some(value) => {
                    self.tree.metrics.record_scan_op(self.stripe);
                    return value;
                }
                None => {
                    self.stats
                        .scan_restarts
                        .set(self.stats.scan_restarts.get() + 1);
                    self.tree.metrics.record_scan_restart(self.stripe);
                    chaos::point!("citrus/scan/restart");
                }
            }
        }
    }

    /// Every `(key, value)` pair with `lo <= key <= hi`, in ascending key
    /// order, observed atomically: after the in-order walk, every crossed
    /// edge is re-checked — all reads precede all re-checks, so success
    /// means the whole traversed region existed at one instant, the
    /// scan's linearization point — and the walk restarts when a
    /// concurrent update interfered (DESIGN.md §6i).
    pub fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        self.ordered_read(
            |s| s.range_walk(lo, hi),
            // SAFETY: `ordered_read` extracts under its read-side guard.
            |attempt| unsafe { ScanAttempt::merge_entries(core::slice::from_mut(attempt)) },
        )
    }

    /// The entry with the least key strictly greater than `key`, observed
    /// atomically (validated traversal, as in
    /// [`range_scan`](Self::range_scan)).
    pub fn successor(&mut self, key: &K) -> Option<(K, V)> {
        self.ordered_read(
            |s| s.directed_walk(key, Dir::Right),
            // SAFETY: `ordered_read` extracts under its read-side guard.
            |attempt| unsafe { attempt.candidate() },
        )
    }

    /// The entry with the greatest key strictly less than `key`, observed
    /// atomically (validated traversal, as in
    /// [`range_scan`](Self::range_scan)).
    pub fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        self.ordered_read(
            |s| s.directed_walk(key, Dir::Left),
            // SAFETY: `ordered_read` extracts under its read-side guard.
            |attempt| unsafe { attempt.candidate() },
        )
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

                    if let Some(deferred) = &self.tree.deferred {
                        // Deferred mode (DESIGN.md §6g): do not pay line
                        // 74's grace period here. The edge that still
                        // points at the old successor — the copy's right
                        // edge (line 76) or `prev_succ`'s left (line 79) —
                        // and `succ` itself stay locked, their locks
                        // transferred into an unlink record; `call_rcu`
                        // runs lines 75–83 after one shared grace period
                        // covering a whole batch of deletes.
                        let (edge_owner, edge_dir) = if prev_succ == curr {
                            (node, Dir::Right)
                        } else {
                            (prev_succ, Dir::Left)
                        };
                        locks.transfer(edge_owner);
                        locks.transfer(succ);
                        // Releases the rest — `prev`, the marked `curr`,
                        // and whichever of the copy / `prev_succ` does not
                        // own the frozen edge.
                        drop(locks);
                        // `curr` is unreachable already; its old holders
                        // are covered by their pins (Epoch) or by drop
                        // (Leak).
                        self.retire(curr);
                        let record = Box::into_raw(Box::new(UnlinkRecord {
                            edge_owner,
                            edge_dir,
                            succ,
                            sink: Arc::clone(&self.tree.reclaim),
                        }));
                        chaos::point!("citrus/remove/defer-unlink");
                        // SAFETY: the record exclusively owns the two
                        // transferred locks; the constructor's
                        // `K/V: Send + Sync` bounds make running it — node
                        // frees included — on another thread sound.
                        deferred.defer(record.cast(), run_unlink::<K, V>);
                        self.stats
                            .deferred_unlinks
                            .set(self.stats.deferred_unlinks.get() + 1);
                        self.tree.metrics.record_deferred_unlink(self.stripe);
                        return true;
                    }

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
                    if let ReclaimInner::Leak(shared) = &*self.tree.reclaim {
                        shared.lock().append(&mut local);
                    }
                }
            }
        }
    }
}

impl<K, V, F: RcuFlavor> Drop for CitrusSession<'_, K, V, F> {
    fn drop(&mut self) {
        let mut local = self.graveyard.borrow_mut();
        if !local.is_empty() {
            if let ReclaimInner::Leak(shared) = &*self.tree.reclaim {
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
