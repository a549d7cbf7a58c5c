//! `CitrusForest`: key-sharded Citrus trees with per-shard RCU and
//! reclamation domains.
//!
//! The paper's two-child `delete` calls `synchronize_rcu` while holding
//! node locks, so every updater of a single tree ultimately queues behind
//! one grace-period domain: a reader of key `1` delays a deleter of key
//! `10⁶` because both live in one RCU domain, and each deleter's
//! `synchronize_rcu` must scan every reader slot of that domain.
//!
//! A forest partitions the key space over a fixed power-of-two array of
//! independent [`CitrusTree`] shards. Each shard owns a **private** RCU
//! flavor instance and (in [`ReclaimMode::Epoch`]) a **private**
//! epoch-reclamation domain, so `synchronize_rcu` and epoch advancement in
//! one shard never wait on readers or updaters of another. This is the
//! same partition-to-scale move as Linux Tree RCU's per-CPU hierarchy,
//! applied at the data-structure level.
//!
//! # Routing
//!
//! A forest routes each key through one of two pluggable policies
//! ([`RouterKind`]); both are pure functions of the key and the forest's
//! configuration, and under both `get`/`contains` stay wait-free — one
//! shard lookup, then one RCU read-side section in that shard alone.
//!
//! * **Hash** (the default): a *seeded hash*. The key's standard
//!   [`Hash`] input is folded into an in-crate hasher whose state starts
//!   at the forest's sharding seed (one multiply per word, then the
//!   splitmix64 finalizer), and the result's high bits select the shard (a
//!   multiply-shift, which for power-of-two shard counts equals taking the
//!   top `log2(n)` bits — no shift-by-64 edge case at `n = 1`). The hash
//!   is defined here rather than taken from std, so a key's shard is the
//!   same on every platform and toolchain. Skew-resistant: adversarial or
//!   hot adjacent keys scatter across shards. The cost shows up in ordered
//!   reads, which must fan out to every shard (next section).
//! * **Range** ([`with_range_router`](CitrusForest::with_range_router)):
//!   a strictly ascending splitter array partitions the key space into
//!   contiguous per-shard ranges — with splitters `s₀ < s₁ < … < sₘ`,
//!   shard `0` owns `(-∞, s₀)`, shard `i` owns `[sᵢ₋₁, sᵢ)`, and shard
//!   `m+1` owns `[sₘ, ∞)` (a key equal to a splitter routes to the upper
//!   shard). Ordered reads now enter **only** the shards their span
//!   overlaps, at the price of hash routing's skew resistance: hot
//!   adjacent keys all land in one shard.
//!
//! The library takes the policy as a constructor choice only. Callers
//! that compare the two routers on one workload build both explicitly,
//! the range arm with evenly spaced splitters ([`even_splitters`]) over
//! the workload's key range.
//!
//! # What stays per-shard vs. global
//!
//! Per-shard: BST invariants, per-node locks, grace periods, epochs,
//! retired-node lifetimes, metric components. Global: the routing
//! function, plus the *combined* read-side window a concurrent ordered
//! read holds across every shard (next section). Aggregate views
//! ([`len_quiescent`], [`to_vec_quiescent`]) remain **quiescent-only**
//! operations, same as on a single tree;
//! [`range_scan`](ForestSession::range_scan) /
//! [`successor`](ForestSession::successor) /
//! [`predecessor`](ForestSession::predecessor) are their concurrent,
//! linearizable counterparts.
//!
//! # Concurrent ordered reads
//!
//! To stay linearizable a multi-shard read cannot scan shards one after
//! another — shard A's snapshot would predate shard B's, and a writer
//! completing two inserts between them could be observed half-done.
//! Instead the session enters the relevant shards' read-side contexts,
//! collects a traversal per shard, and only then re-checks all recorded
//! edges across those shards, restarting the whole fan-out if any moved.
//! All reads precede all re-checks, so a successful pass observed every
//! entered shard simultaneously at one instant; the hits of every shard
//! are gathered into the one result list and sorted there, and the
//! session reuses its walk buffers from read to read. The shards are
//! walked together, breadth-first, with a prefetch of every pending
//! node, so their cache misses are in flight at once instead of running
//! back to back as one chain per shard. Joint validation only needs
//! every read before every re-check, not any order among the reads.
//!
//! Which shards are "relevant" is the routers' big divergence. Under hash
//! routing *every* shard can hold keys in any key range, so a scan fans
//! out to all shards — Ω(shard count) work no matter how few keys match,
//! the price paid for skew resistance (DESIGN.md §6i); the shared walk
//! overlaps the shards' miss latency but does not shrink the work. Under
//! range routing a span `[lo, hi]` overlaps exactly the contiguous shard
//! run `shard_for(lo) ..= shard_for(hi)`, so the fan-out (grace-period
//! domains entered, edges validated, roots walked) shrinks to the overlap
//! — restricting the joint validation to a subset is sound because the
//! routing invariant guarantees the skipped shards hold no key in the
//! span (DESIGN.md §6j). `successor`/`predecessor` probe outward from the
//! key's home shard one adjacent shard at a time, and almost always stop
//! after one or two.
//!
//! [`len_quiescent`]: CitrusForest::len_quiescent
//! [`to_vec_quiescent`]: CitrusForest::to_vec_quiescent

use crate::checks::{InvariantViolation, TreeStats};
use crate::node::{Dir, Node};
use crate::tree::{CitrusSession, CitrusTree, ReclaimMode, ScanWalk, WalkQuery};
use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos as chaos;
use citrus_obs::{Counter, Log2Histogram, MetricsRegistry};
use citrus_rcu::{RcuFlavor, ScalableRcu};
use core::fmt;
use core::mem;
use core::ops::Range;
use core::sync::atomic::{AtomicUsize, Ordering};
use std::hash::{Hash, Hasher};

/// Default shard count for [`CitrusForest::new`].
const DEFAULT_SHARDS: usize = 8;

/// Stripe count for the forest's routing counters.
const STRIPES: usize = 32;

/// 64-bit golden-ratio multiplier (`⌊2⁶⁴/φ⌋`, odd), the standard
/// Fibonacci-hashing constant and splitmix64's increment; each word
/// [`RouteHasher`] folds in is multiplied by it.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The hash router's [`Hasher`]: a seeded multiply fold with the
/// splitmix64 finalizer, defined here so that routing is a fixed function
/// of `(key, seed, shard count)` — std leaves `DefaultHasher`'s algorithm
/// unspecified, and it costs a SipHash per point operation.
///
/// The state starts at the sharding seed. Each fixed-width integer is
/// folded in with one multiply, `state ← (state ⊕ word)·γ`; byte strings
/// are folded eight bytes at a time, little-endian, the last (partial)
/// word carrying its byte count in its top byte. `finish` applies the
/// splitmix64 finalizer, so the high bits the multiply-shift reads depend
/// on every input bit. Integers are folded by value, not by their
/// native-endian bytes, so the result is the same on every platform.
struct RouteHasher(u64);

impl RouteHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(GOLDEN_GAMMA);
    }
}

impl Hasher for RouteHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        last[7] = rest.len() as u8;
        self.fold(u64::from_le_bytes(last));
    }

    fn write_u8(&mut self, n: u8) {
        self.fold(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.fold(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn write_u128(&mut self, n: u128) {
        self.fold(n as u64);
        self.fold((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Which routing policy a [`CitrusForest`] maps keys to shards with (see
/// the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Seeded hash (the default): skew-resistant, but ordered reads fan
    /// out to every shard.
    Hash,
    /// Ordered splitter array: each shard owns a contiguous key range, so
    /// ordered reads enter only the shards their span overlaps — at the
    /// price of hash routing's skew resistance.
    Range,
}

impl RouterKind {
    /// Stable label used in bench JSON identity rows and test messages.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Hash => "hash",
            Self::Range => "range",
        }
    }
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The routing policy instance behind [`CitrusForest::shard_for`].
enum Router<K> {
    /// Seeded [`RouteHasher`] over the key's [`Hash`] input.
    Hash {
        /// The hasher's initial state.
        seed: u64,
    },
    /// Strictly ascending splitters: shard `i` owns
    /// `[splitters[i-1], splitters[i])`, with the first and last shards
    /// unbounded below and above. `splitters.len() + 1 == shard count`.
    Range { splitters: Box<[K]> },
}

/// Evenly spaced splitters partitioning `[0, key_range)` into `shards`
/// contiguous ranges — the benchmark harness's default splitter set for
/// range routing. Keys at or above `key_range` all land in the last
/// shard, which additionally owns `[key_range · (shards-1)/shards, ∞)`.
///
/// # Panics
///
/// Panics if `shards == 0`, or if `key_range < shards` (the splitters
/// would collide instead of ascending strictly).
#[must_use]
pub fn even_splitters(shards: usize, key_range: u64) -> Vec<u64> {
    assert!(shards > 0, "even_splitters: at least one shard required");
    assert!(
        key_range >= shards as u64,
        "even_splitters: key range {key_range} cannot split into {shards} non-empty shard ranges"
    );
    (1..shards as u64)
        .map(|i| ((u128::from(i) * u128::from(key_range)) / shards as u128) as u64)
        .collect()
}

/// Routing metrics for a [`CitrusForest`]: how many operations each shard
/// received, and a [`Log2Histogram`] of per-shard occupancy to expose
/// routing skew. No-ops unless built with the `stats` feature.
#[derive(Debug)]
pub struct ForestMetrics {
    /// One routed-operations counter per shard.
    routed: Box<[Counter]>,
    /// Completed fan-out ordered reads (scans, successors, predecessors).
    scans: Counter,
    /// Fan-outs that failed cross-shard validation and restarted.
    scan_restarts: Counter,
    /// Total shards entered by completed fan-out ordered reads; divided
    /// by `scans` this is the mean fan-out width — the quantity range
    /// routing exists to shrink.
    fanout_shards: Counter,
    /// Per-shard key counts observed by
    /// [`CitrusForest::record_occupancy`].
    shard_occupancy: Log2Histogram,
    /// Round-robin stripe allocator for sessions.
    next_stripe: AtomicUsize,
}

impl ForestMetrics {
    fn new(shards: usize) -> Self {
        Self {
            routed: (0..shards).map(|_| Counter::new(STRIPES)).collect(),
            scans: Counter::new(STRIPES),
            scan_restarts: Counter::new(STRIPES),
            fanout_shards: Counter::new(STRIPES),
            shard_occupancy: Log2Histogram::new(),
            next_stripe: AtomicUsize::new(0),
        }
    }

    /// Assigns the next session its counter stripe.
    fn assign_stripe(&self) -> usize {
        self.next_stripe.fetch_add(1, Ordering::Relaxed) % STRIPES
    }

    /// Records one operation routed to `shard`.
    #[inline]
    fn record_route(&self, shard: usize, stripe: usize) {
        self.routed[shard].incr(stripe);
    }

    /// Records one completed fan-out ordered read.
    #[inline]
    fn record_scan(&self, stripe: usize) {
        self.scans.incr(stripe);
    }

    /// Records a fan-out that failed cross-shard validation and restarted.
    #[inline]
    fn record_scan_restart(&self, stripe: usize) {
        self.scan_restarts.incr(stripe);
    }

    /// Records the shard width of one completed fan-out.
    #[inline]
    fn record_fanout(&self, shards: usize, stripe: usize) {
        self.fanout_shards.add(stripe, shards as u64);
    }

    /// Operations routed to `shard` so far (`0` with stats off).
    #[must_use]
    pub fn routed_to(&self, shard: usize) -> u64 {
        self.routed[shard].get()
    }

    /// Completed fan-out ordered reads (`0` with stats off).
    #[must_use]
    pub fn scans(&self) -> u64 {
        self.scans.get()
    }

    /// Fan-out ordered reads that failed cross-shard validation and
    /// restarted (`0` with stats off).
    #[must_use]
    pub fn scan_restarts(&self) -> u64 {
        self.scan_restarts.get()
    }

    /// Total shards entered by completed fan-out ordered reads (`0` with
    /// stats off). `fanout_shards() / scans()` is the mean fan-out width:
    /// always the shard count under hash routing, the span overlap under
    /// range routing.
    #[must_use]
    pub fn fanout_shards(&self) -> u64 {
        self.fanout_shards.get()
    }

    /// The per-shard occupancy histogram.
    #[must_use]
    pub fn shard_occupancy(&self) -> &Log2Histogram {
        &self.shard_occupancy
    }

    /// Registers the forest-level instruments under `component`.
    fn register_into(&self, registry: &MetricsRegistry, component: &str) {
        for (i, counter) in self.routed.iter().enumerate() {
            registry.register_counter(component, &format!("routed_shard{i}"), counter);
        }
        registry.register_counter(component, "scans", &self.scans);
        registry.register_counter(component, "scan_restarts", &self.scan_restarts);
        registry.register_counter(component, "fanout_shards", &self.fanout_shards);
        registry.register_histogram(component, "shard_occupancy", &self.shard_occupancy);
    }
}

/// A fixed array of independent [`CitrusTree`] shards routed by a seeded
/// key hash or by a splitter array.
///
/// Each shard owns a private RCU domain and a private reclamation domain;
/// see the [module docs](self) for why. Threads operate through
/// per-thread [`ForestSession`]s, which create per-shard tree sessions
/// lazily on first touch.
///
/// # Example
///
/// ```
/// use citrus::CitrusForest;
///
/// let forest: CitrusForest<u64, &str> = CitrusForest::with_shards(4);
/// let mut session = forest.session();
/// assert!(session.insert(1, "one"));
/// assert_eq!(session.get(&1), Some("one"));
/// assert!(session.remove(&1));
/// assert_eq!(session.get(&1), None);
/// ```
pub struct CitrusForest<K, V, F: RcuFlavor = ScalableRcu> {
    /// The shard trees; `len()` is a power of two under hash routing,
    /// `splitters.len() + 1` under range routing.
    shards: Box<[CitrusTree<K, V, F>]>,
    /// How keys map to shard indices.
    router: Router<K>,
    metrics: ForestMetrics,
}

impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> CitrusForest<K, V, F> {
    /// Creates a forest with the default shard count (8) and
    /// [`ReclaimMode::Epoch`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates a forest with (at least) `n` shards and the default
    /// reclamation mode. `n` is rounded **up** to the next power of two
    /// (minimum 1) so the multiply-shift router stays bias-free.
    #[must_use]
    pub fn with_shards(n: usize) -> Self {
        Self::with_config(n, 0, ReclaimMode::default())
    }

    /// Like [`with_shards`](Self::with_shards) but with an explicit
    /// sharding seed, for de-correlating routing from adversarial key
    /// patterns (and for the routing-determinism tests).
    #[must_use]
    pub fn with_sharding_seed(n: usize, seed: u64) -> Self {
        Self::with_config(n, seed, ReclaimMode::default())
    }

    /// Explicit constructor: shard count (rounded up to a power of two),
    /// sharding seed, and reclamation mode for every shard.
    #[must_use]
    pub fn with_config(n: usize, seed: u64, mode: ReclaimMode) -> Self {
        let n = n.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| CitrusTree::with_reclaim(mode)).collect(),
            router: Router::Hash { seed },
            metrics: ForestMetrics::new(n),
        }
    }

    /// [`with_config`](Self::with_config) with the former deferred-unlink
    /// switch, which must be `false`: deferred unlinking was removed and
    /// every two-child delete synchronizes inline. Kept only because the
    /// benchmark program still calls it; the next change to the benchmark
    /// deletes it.
    ///
    /// # Panics
    ///
    /// Panics if `deferred` is `true`.
    #[must_use]
    pub fn with_options(n: usize, seed: u64, mode: ReclaimMode, deferred: bool) -> Self {
        assert!(
            !deferred,
            "deferred unlinking was removed: two-child deletes always synchronize inline"
        );
        Self::with_config(n, seed, mode)
    }
}

impl<K: Ord + Send + Sync, V: Send + Sync, F: RcuFlavor> CitrusForest<K, V, F> {
    /// Creates a range-routed forest: `splitters.len() + 1` shards, each
    /// owning a contiguous key range (see the [module docs](self)), with
    /// the default reclamation mode. An empty splitter list is the
    /// degenerate single-shard forest.
    ///
    /// # Panics
    ///
    /// Panics unless `splitters` is strictly ascending.
    #[must_use]
    pub fn with_range_router(splitters: Vec<K>) -> Self {
        Self::with_range_router_config(splitters, ReclaimMode::default())
    }

    /// Range-routed constructor with an explicit reclamation mode for
    /// every shard.
    ///
    /// # Panics
    ///
    /// Panics unless `splitters` is strictly ascending.
    #[must_use]
    pub fn with_range_router_config(splitters: Vec<K>, mode: ReclaimMode) -> Self {
        assert!(
            splitters.windows(2).all(|w| w[0] < w[1]),
            "range-router splitters must be strictly ascending"
        );
        let n = splitters.len() + 1;
        Self {
            shards: (0..n).map(|_| CitrusTree::with_reclaim(mode)).collect(),
            router: Router::Range {
                splitters: splitters.into_boxed_slice(),
            },
            metrics: ForestMetrics::new(n),
        }
    }
}

impl<K, V, F: RcuFlavor> CitrusForest<K, V, F> {
    /// Number of shards (a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The hash router's sharding seed (`0` under range routing, which
    /// has no seed).
    #[must_use]
    pub fn sharding_seed(&self) -> u64 {
        match self.router {
            Router::Hash { seed } => seed,
            Router::Range { .. } => 0,
        }
    }

    /// Which routing policy this forest was built with.
    #[must_use]
    pub fn router_kind(&self) -> RouterKind {
        match self.router {
            Router::Hash { .. } => RouterKind::Hash,
            Router::Range { .. } => RouterKind::Range,
        }
    }

    /// The range router's splitter array (`None` under hash routing).
    #[must_use]
    pub fn splitters(&self) -> Option<&[K]> {
        match &self.router {
            Router::Hash { .. } => None,
            Router::Range { splitters } => Some(splitters),
        }
    }

    /// Borrows shard `i` (diagnostics and tests).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    #[must_use]
    pub fn shard(&self, i: usize) -> &CitrusTree<K, V, F> {
        &self.shards[i]
    }

    /// The forest-level routing metrics.
    #[must_use]
    pub fn metrics(&self) -> &ForestMetrics {
        &self.metrics
    }

    /// The shards' reclamation mode (identical across shards).
    #[must_use]
    pub fn reclaim_mode(&self) -> ReclaimMode {
        self.shards[0].reclaim_mode()
    }

    /// One zero per shard: deferred unlinking was removed, so no shard
    /// ever defers an unlink. Kept only because the benchmark program
    /// still reports it; the next change to the benchmark deletes it.
    #[must_use]
    pub fn deferred_unlinks_per_shard(&self) -> Vec<u64> {
        vec![0; self.shards.len()]
    }

    /// Total removed nodes already freed across all shards:
    /// `Some(sum)` in [`ReclaimMode::Epoch`], `None` in
    /// [`ReclaimMode::Leak`].
    #[must_use]
    pub fn reclaimed_count(&self) -> Option<u64> {
        self.shards.iter().map(CitrusTree::reclaimed_count).sum()
    }

    /// `synchronize_rcu` calls issued by each shard (tree metrics; all
    /// zeros with stats off). Grace periods in one shard never wait on
    /// another — these counters plus
    /// [`grace_periods_per_shard`](Self::grace_periods_per_shard) make
    /// that independence observable.
    #[must_use]
    pub fn synchronize_calls_per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|t| t.metrics().synchronize_calls())
            .collect()
    }

    /// Grace periods completed by each shard's private RCU domain
    /// (always-on, independent of the `stats` feature).
    #[must_use]
    pub fn grace_periods_per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|t| t.rcu().grace_periods())
            .collect()
    }

    /// Registers every shard's full instrument stack plus the forest's
    /// routing metrics into `registry`. Shard `i`'s components are
    /// prefixed `shard{i}/` (e.g. `shard0/citrus`, `shard0/rcu-scalable`),
    /// the forest's own live under `forest`.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.register_metrics_prefixed(registry, "");
    }

    /// Like [`register_metrics`](Self::register_metrics) with every
    /// component name additionally prefixed.
    pub fn register_metrics_prefixed(&self, registry: &MetricsRegistry, prefix: &str) {
        for (i, tree) in self.shards.iter().enumerate() {
            tree.register_metrics_prefixed(registry, &format!("{prefix}shard{i}/"));
        }
        self.metrics
            .register_into(registry, &format!("{prefix}forest"));
    }

    /// Creates a session for the calling thread. Per-shard tree sessions
    /// are created lazily on first touch, so a thread that only ever
    /// operates on a few shards never registers with the other shards'
    /// RCU/reclamation domains.
    pub fn session(&self) -> ForestSession<'_, K, V, F> {
        ForestSession {
            forest: self,
            sessions: (0..self.shards.len()).map(|_| None).collect(),
            stripe: self.metrics.assign_stripe(),
            walk: ScanWalk::default(),
        }
    }
}

impl<K: Hash + Ord, V, F: RcuFlavor> CitrusForest<K, V, F> {
    /// Routes `key` to its shard index. Hash router: the key's [`Hash`]
    /// fed to a `RouteHasher` started at the seed → multiply-shift by
    /// the shard count, pure in `(key, seed, shard_count)` and the same
    /// on every platform and toolchain. Range router: binary search of the
    /// splitter array, pure in `(key, splitters)` — a key equal to a
    /// splitter routes to the upper shard (splitter ranges are
    /// low-inclusive).
    #[must_use]
    pub fn shard_for(&self, key: &K) -> usize {
        match &self.router {
            Router::Hash { seed } => {
                let mut hasher = RouteHasher(*seed);
                key.hash(&mut hasher);
                // Lemire multiply-shift: maps the 64-bit hash uniformly
                // onto [0, n). For power-of-two n this is exactly the top
                // log2(n) bits, with no undefined shift at n = 1.
                ((u128::from(hasher.finish()) * self.shards.len() as u128) >> 64) as usize
            }
            // Shard i owns [splitters[i-1], splitters[i]): the key's
            // shard is the count of splitters at or below it.
            Router::Range { splitters } => splitters.partition_point(|s| s <= key),
        }
    }

    /// The contiguous shard index range `[first, last]` an ordered read
    /// over `[lo, hi]` must enter: every shard under hash routing, only
    /// the overlapping run under range routing (contiguity is what makes
    /// the subset fan-out a simple slice).
    fn shards_for_span(&self, lo: &K, hi: &K) -> (usize, usize) {
        match &self.router {
            Router::Hash { .. } => (0, self.shards.len() - 1),
            Router::Range { .. } => (self.shard_for(lo), self.shard_for(hi)),
        }
    }
}

impl<K, V, F: RcuFlavor> CitrusForest<K, V, F>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Total key count across shards. Quiescent-only, like
    /// [`CitrusTree::len_quiescent`].
    pub fn len_quiescent(&mut self) -> usize {
        self.shards.iter_mut().map(CitrusTree::len_quiescent).sum()
    }

    /// Whether every shard is empty. Quiescent-only.
    pub fn is_empty_quiescent(&mut self) -> bool {
        self.shards.iter_mut().all(CitrusTree::is_empty_quiescent)
    }

    /// All key–value pairs across shards in ascending key order.
    /// Quiescent-only.
    pub fn to_vec_quiescent(&mut self) -> Vec<(K, V)> {
        let mut all: Vec<(K, V)> = self
            .shards
            .iter_mut()
            .flat_map(CitrusTree::to_vec_quiescent)
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Validates every shard's structural invariants **and** the forest's
    /// cross-shard ones, returning aggregate stats (total length, maximum
    /// shard height) or the first violation. Quiescent-only.
    ///
    /// Per-shard validation alone cannot back
    /// [`to_vec_quiescent`](Self::to_vec_quiescent)'s promise of one
    /// duplicate-free ascending view: a routing bug could land the same
    /// key in two (individually valid) shards and silently double-count
    /// it. So this also checks that no key appears in more than one shard
    /// and that every key lives in the shard the router assigns it to.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] found in any shard, or a
    /// [`CrossShardDuplicate`](InvariantViolation::CrossShardDuplicate) /
    /// [`MisroutedKey`](InvariantViolation::MisroutedKey) across shards.
    pub fn validate_structure(&mut self) -> Result<TreeStats, InvariantViolation>
    where
        K: Hash,
    {
        let mut len = 0;
        let mut height = 0;
        let mut seen: Vec<(K, usize)> = Vec::new();
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            let stats = shard.validate_structure()?;
            len += stats.len;
            height = height.max(stats.height);
            for (key, _) in shard.to_vec_quiescent() {
                seen.push((key, idx));
            }
        }
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        for pair in seen.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(InvariantViolation::CrossShardDuplicate {
                    shards: (pair[0].1, pair[1].1),
                });
            }
        }
        for (key, found_in) in &seen {
            let routed_to = self.shard_for(key);
            if routed_to != *found_in {
                return Err(InvariantViolation::MisroutedKey {
                    found_in: *found_in,
                    routed_to,
                });
            }
        }
        Ok(TreeStats { len, height })
    }

    /// Samples each shard's current key count into the `shard_occupancy`
    /// histogram and returns the counts (skew diagnostics).
    /// Quiescent-only.
    pub fn record_occupancy(&mut self) -> Vec<usize> {
        // Split the borrow: occupancy lives next to the shards.
        let metrics = &self.metrics;
        self.shards
            .iter_mut()
            .map(|shard| {
                let len = shard.len_quiescent();
                metrics.shard_occupancy.record(len as u64);
                len
            })
            .collect()
    }
}

impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Default for CitrusForest<K, V, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, F: RcuFlavor> fmt::Debug for CitrusForest<K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CitrusForest")
            .field("shards", &self.shards.len())
            .field("router", &self.router_kind().as_str())
            .field("seed", &self.sharding_seed())
            .field("rcu", &F::NAME)
            .field("reclaim", &self.reclaim_mode())
            .finish_non_exhaustive()
    }
}

impl<K, V, F> ConcurrentMap<K, V> for CitrusForest<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    type Session<'a>
        = ForestSession<'a, K, V, F>
    where
        Self: 'a;

    const NAME: &'static str = "citrus-forest";

    fn session(&self) -> ForestSession<'_, K, V, F> {
        CitrusForest::session(self)
    }
}

/// A per-thread handle to a [`CitrusForest`].
///
/// Holds lazily-created per-shard [`CitrusSession`]s: a shard's session —
/// and with it the thread's reader slot in that shard's private RCU domain
/// and its slot in the shard's reclamation domain — is only created the
/// first time an operation routes there. Not `Send`.
pub struct ForestSession<'t, K, V, F: RcuFlavor> {
    forest: &'t CitrusForest<K, V, F>,
    sessions: Vec<Option<CitrusSession<'t, K, V, F>>>,
    /// This session's forest-metric counter stripe.
    stripe: usize,
    /// The ordered reads' walk buffers, one set for every shard a read
    /// enters: a read takes them and hands them back reset.
    walk: ScanWalk<K, V>,
}

impl<'t, K, V, F> ForestSession<'t, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    /// Creates shard `idx`'s session if this thread hasn't touched the
    /// shard yet.
    fn ensure_session(&mut self, idx: usize) {
        let slot = &mut self.sessions[idx];
        if slot.is_none() {
            chaos::point!("forest/session/lazy-init");
            *slot = Some(self.forest.shards[idx].session());
        }
    }

    /// Routes `key` and returns the shard's session, creating it on first
    /// touch.
    fn session_for(&mut self, key: &K) -> &mut CitrusSession<'t, K, V, F> {
        chaos::point!("forest/route/before-shard");
        let idx = self.forest.shard_for(key);
        self.forest.metrics.record_route(idx, self.stripe);
        self.ensure_session(idx);
        self.sessions[idx].as_mut().expect("ensured above")
    }

    /// Returns the value associated with `key`, if present. Wait-free:
    /// one shard lookup, one RCU read-side section in that shard.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.session_for(key).get(key)
    }

    /// Returns `true` iff `key` is present. Wait-free, like
    /// [`get`](Self::get).
    pub fn contains(&mut self, key: &K) -> bool {
        self.session_for(key).contains(key)
    }

    /// Inserts `(key, value)` into the key's shard; returns `true` iff
    /// the key was absent.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.session_for(&key).insert(key, value)
    }

    /// Removes `key` from its shard; returns `true` iff it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        self.session_for(key).remove(key)
    }

    /// Runs one fan-out ordered read over shards `first..=last` to a
    /// validated completion: enter every shard's read-side context, walk
    /// all of them as one frontier walk, then re-check every recorded
    /// edge across all of them — restarting the **whole** fan-out when
    /// any moved. Scanning shards one after another would not be
    /// linearizable (shard A's snapshot would predate shard B's); holding
    /// all contexts and validating after all reads extends the
    /// single-tree common-instant argument across the entered subset.
    /// Restricting to a subset is only sound when the router guarantees
    /// the skipped shards cannot answer the query (see the module docs).
    ///
    /// The walk is seeded with every entered shard's root and visits
    /// breadth-first across all of them ([`ScanWalk`]), prefetching each
    /// pending node: the shards' boundary paths and in-range subtrees
    /// have their misses in flight together instead of one chain at a
    /// time. Every edge read still precedes every re-check, which is all
    /// the joint validation needs.
    fn fan_out<T>(
        &mut self,
        first: usize,
        last: usize,
        query: WalkQuery<'_, K>,
        extract: impl Fn(&ScanWalk<K, V>) -> T,
    ) -> T {
        chaos::point!("forest/scan/fan-out");
        for idx in first..=last {
            self.ensure_session(idx);
        }
        let mut walk = mem::take(&mut self.walk);
        loop {
            let out = {
                let mut guard = FanOutGuard::new(&self.sessions);
                // SAFETY: `guard` holds each shard's read-side context
                // from before the walk's first read in that shard until
                // after extraction.
                unsafe {
                    for idx in first..=last {
                        walk.visit(guard.enter(idx), &query);
                    }
                    walk.run(&query);
                }
                chaos::point!("forest/scan/validate");
                // SAFETY: as above.
                unsafe { walk.validate() }.then(|| extract(&walk))
            };
            walk.reset();
            if let Some(out) = out {
                self.walk = walk;
                self.forest.metrics.record_scan(self.stripe);
                self.forest
                    .metrics
                    .record_fanout(last - first + 1, self.stripe);
                return out;
            }
            self.forest.metrics.record_scan_restart(self.stripe);
            chaos::point!("forest/scan/restart");
        }
    }

    /// Every `(key, value)` pair with `lo <= key <= hi`, in ascending key
    /// order, observed atomically. Hash routing scatters any key range
    /// over every shard, so the fan-out enters all of them — Ω(shard
    /// count) work per scan no matter how narrow the range, though one
    /// walk covers the shards together so their cache misses overlap;
    /// range routing enters only the shards `[lo, hi]` overlaps (module
    /// docs). The hits of every shard are gathered into the result `Vec`
    /// and sorted there, which is the only allocation a warmed session's
    /// scan makes.
    pub fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        if lo > hi {
            // An empty span holds at every instant; no shard need be
            // entered (and `shards_for_span` would invert on it).
            return Vec::new();
        }
        let (first, last) = self.forest.shards_for_span(lo, hi);
        // SAFETY: `fan_out` extracts while every shard guard is still
        // held.
        self.fan_out(first, last, WalkQuery::Range { lo, hi }, |walk| unsafe {
            walk.entries()
        })
    }

    /// The entry with the least key strictly greater than `key`, observed
    /// atomically. Hash routing fans out to every shard (one candidate
    /// path per shard, validated together, least candidate wins); range
    /// routing probes outward from the key's home shard and usually stops
    /// after one or two shards ([`directed_probe`](Self::directed_probe)).
    pub fn successor(&mut self, key: &K) -> Option<(K, V)> {
        self.nearest(key, Dir::Right)
    }

    /// The entry with the greatest key strictly less than `key`, observed
    /// atomically (mirror of [`successor`](Self::successor)).
    pub fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        self.nearest(key, Dir::Left)
    }

    /// The nearest entry strictly beyond `key` on `side`.
    fn nearest(&mut self, key: &K, side: Dir) -> Option<(K, V)> {
        match self.forest.router_kind() {
            RouterKind::Range => self.directed_probe(key, side),
            RouterKind::Hash => self.fan_out(
                0,
                self.forest.shard_count() - 1,
                WalkQuery::Directed { key, side },
                // SAFETY: `fan_out` extracts while every shard guard is
                // still held.
                |walk| unsafe { walk.nearest(side) },
            ),
        }
    }

    /// Range-router successor/predecessor: probe the key's home shard,
    /// then widen one adjacent shard at a time in the probe direction
    /// until a jointly validated walk either holds a candidate or the
    /// forest is exhausted. Shards are ordered under range routing, so
    /// the first shard in probe order with any qualifying key owns the
    /// answer — almost always the home shard or its neighbor, vs. hash
    /// routing's unconditional all-shard fan-out.
    ///
    /// Each widened round re-walks **every** probed shard under one
    /// guard and validates them jointly: probing shards one after
    /// another would not be linearizable, because a writer could insert a
    /// closer key into an already-probed shard and the eventually-found
    /// answer into a later one between probes, making the returned entry
    /// wrong at every single instant. Only the final validated round
    /// establishes the linearization point; earlier rounds merely steer
    /// the widening. Unlike [`fan_out`](Self::fan_out), a round walks its
    /// shards one after another, each to completion: whether the next
    /// shard is entered at all depends on the previous one's candidate.
    /// A round cannot create a shard session while its guard borrows
    /// them, so when `width` shards hold no candidate the next round
    /// creates one more and re-walks from the home shard.
    fn directed_probe(&mut self, key: &K, side: Dir) -> Option<(K, V)> {
        chaos::point!("forest/scan/fan-out");
        let start = self.forest.shard_for(key);
        let max_width = match side {
            Dir::Right => self.forest.shard_count() - start,
            Dir::Left => start + 1,
        };
        let shard_at = |step: usize| match side {
            Dir::Right => start + step,
            Dir::Left => start - step,
        };
        let query = WalkQuery::Directed { key, side };
        let mut walk = mem::take(&mut self.walk);
        let mut width = 1;
        loop {
            self.ensure_session(shard_at(width - 1));
            let mut probed = 0;
            let (ok, out) = {
                let mut guard = FanOutGuard::new(&self.sessions);
                while probed < width && !walk.has_candidate() {
                    // SAFETY: `guard` holds this shard's read-side context
                    // from here until after extraction.
                    unsafe {
                        walk.visit(guard.enter(shard_at(probed)), &query);
                        walk.run(&query);
                    }
                    probed += 1;
                }
                chaos::point!("forest/scan/validate");
                // SAFETY: `guard` still holds every probed shard's
                // read-side context.
                let ok = unsafe { walk.validate() };
                // The last probed shard is the first in probe order with
                // a candidate (or the probe exhausted the forest empty);
                // range partitioning orders whole shards, so its
                // candidate beats every key in the shards beyond it.
                let done = ok && (walk.has_candidate() || width == max_width);
                // SAFETY: as above.
                (ok, done.then(|| unsafe { walk.nearest(side) }))
            };
            walk.reset();
            if !ok {
                self.forest.metrics.record_scan_restart(self.stripe);
                chaos::point!("forest/scan/restart");
                continue;
            }
            if let Some(out) = out {
                self.walk = walk;
                self.forest.metrics.record_scan(self.stripe);
                self.forest.metrics.record_fanout(probed, self.stripe);
                return out;
            }
            width += 1;
        }
    }

    /// How many shard sessions this session has actually created.
    #[must_use]
    pub fn live_shard_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.is_some()).count()
    }

    /// Capacity, in entries, the session's walk buffers keep between
    /// ordered reads: at most [`WALK_BUF_RETAIN`](crate::WALK_BUF_RETAIN).
    #[doc(hidden)]
    #[must_use]
    pub fn walk_capacity(&self) -> usize {
        self.walk.capacity()
    }
}

/// The read-side contexts of the shards one ordered read has entered, a
/// contiguous run of a forest session's shard sessions. Dropping the guard
/// exits every one of them, on normal exit and during unwinding alike, so
/// a panicking extraction leaves no shard's grace periods waiting on it.
struct FanOutGuard<'a, 't, K, V, F: RcuFlavor> {
    sessions: &'a [Option<CitrusSession<'t, K, V, F>>],
    entered: Range<usize>,
}

impl<'a, 't, K, V, F: RcuFlavor> FanOutGuard<'a, 't, K, V, F> {
    fn new(sessions: &'a [Option<CitrusSession<'t, K, V, F>>]) -> Self {
        Self {
            sessions,
            entered: 0..0,
        }
    }

    /// Enters shard `idx` — the first, or one next to the run entered so
    /// far — and returns its tree's root sentinel.
    fn enter(&mut self, idx: usize) -> *mut Node<K, V> {
        let root = self.sessions[idx]
            .as_ref()
            .expect("fan-out shards have sessions")
            .read_side_enter();
        self.entered = if self.entered.is_empty() {
            idx..idx + 1
        } else {
            debug_assert!(idx + 1 == self.entered.start || idx == self.entered.end);
            self.entered.start.min(idx)..self.entered.end.max(idx + 1)
        };
        root
    }
}

impl<K, V, F: RcuFlavor> Drop for FanOutGuard<'_, '_, K, V, F> {
    fn drop(&mut self) {
        for session in self.sessions[self.entered.clone()].iter().flatten() {
            session.read_side_exit();
        }
    }
}

impl<K, V, F: RcuFlavor> fmt::Debug for ForestSession<'_, K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForestSession")
            .field("shards", &self.sessions.len())
            .field(
                "live",
                &self.sessions.iter().filter(|s| s.is_some()).count(),
            )
            .finish_non_exhaustive()
    }
}

impl<K, V, F> MapSession<K, V> for ForestSession<'_, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn get(&mut self, key: &K) -> Option<V> {
        ForestSession::get(self, key)
    }

    fn contains(&mut self, key: &K) -> bool {
        ForestSession::contains(self, key)
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        ForestSession::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> bool {
        ForestSession::remove(self, key)
    }
}

impl<K, V, F> OrderedMapSession<K, V> for ForestSession<'_, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        ForestSession::range_scan(self, lo, hi)
    }

    fn successor(&mut self, key: &K) -> Option<(K, V)> {
        ForestSession::successor(self, key)
    }

    fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        ForestSession::predecessor(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citrus_rcu::GlobalLockRcu;

    type Forest = CitrusForest<u64, u64>;

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        for (requested, expect) in [(0, 1), (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16)] {
            let f = Forest::with_shards(requested);
            assert_eq!(f.shard_count(), expect, "requested {requested}");
        }
    }

    #[test]
    #[should_panic(expected = "deferred unlinking was removed")]
    fn with_options_rejects_deferred_unlinking() {
        let _ = Forest::with_options(2, 0, ReclaimMode::Epoch, true);
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let a = Forest::with_sharding_seed(8, 0xDEAD);
        let b = Forest::with_sharding_seed(8, 0xDEAD);
        let c = Forest::with_sharding_seed(8, 0xBEEF);
        let mut differs = false;
        for key in 0u64..4096 {
            let s = a.shard_for(&key);
            assert!(s < 8);
            assert_eq!(s, b.shard_for(&key), "same seed must route identically");
            differs |= s != c.shard_for(&key);
        }
        assert!(differs, "different seeds should shuffle at least one key");
    }

    /// Pins the hash router's output, so that a hasher edit or a
    /// toolchain bump cannot silently move keys to other shards. The
    /// 8-byte string covers the whole-word path of `RouteHasher::write`,
    /// the 6-byte one its partial last word.
    #[test]
    fn hash_routing_matches_golden_values() {
        let keys = [0u64, 1, 2, 7, 1 << 32, 0xDEAD_BEEF, u64::MAX - 1, u64::MAX];
        let strings = ["citrus", "key-0001"];
        for (seed, want_ints, want_strs) in [
            (0, [0, 7, 3, 1, 5, 7, 3, 1], [0, 7]),
            (0x5EED, [7, 4, 0, 0, 2, 4, 3, 1], [6, 4]),
        ] {
            let ints = Forest::with_sharding_seed(8, seed);
            let strs = CitrusForest::<String, u64>::with_sharding_seed(8, seed);
            assert_eq!(
                keys.map(|k| ints.shard_for(&k)),
                want_ints,
                "u64 keys, seed {seed:#x}"
            );
            assert_eq!(
                strings.map(|k| strs.shard_for(&k.to_string())),
                want_strs,
                "string keys, seed {seed:#x}"
            );
        }
    }

    /// Routes `keys` over a `shards`-shard hash forest (seed 0) and
    /// asserts that every shard receives within ±10% of the mean.
    fn assert_spread<K: Hash + Ord + Send + Sync>(
        shards: usize,
        name: &str,
        keys: impl Iterator<Item = K>,
    ) {
        let forest = CitrusForest::<K, u64>::with_shards(shards);
        let mut counts = vec![0u64; shards];
        for key in keys {
            counts[forest.shard_for(&key)] += 1;
        }
        let mean = counts.iter().sum::<u64>() as f64 / shards as f64;
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (n as f64 - mean).abs() <= 0.10 * mean,
                "{name} keys at {shards} shards: shard {shard} got {n}, mean {mean}"
            );
        }
    }

    /// Sequential, strided, random and string keys, 2^16 of each, spread
    /// evenly over 8 and 64 shards.
    #[test]
    fn hash_routing_spreads_structured_keys() {
        const KEYS: u64 = 1 << 16;
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let random: Vec<u64> = (0..KEYS)
            .map(|_| {
                // xorshift64*
                rng ^= rng >> 12;
                rng ^= rng << 25;
                rng ^= rng >> 27;
                rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
            })
            .collect();
        for shards in [8, 64] {
            assert_spread(shards, "sequential", 0..KEYS);
            for shift in [3, 12, 32] {
                assert_spread(
                    shards,
                    &format!("stride 2^{shift}"),
                    (0..KEYS).map(|i| i << shift),
                );
            }
            assert_spread(shards, "random", random.iter().copied());
            assert_spread(shards, "string", (0..KEYS).map(|i| format!("k{i}")));
        }
    }

    #[test]
    fn single_shard_forest_routes_everything_to_zero() {
        let f = Forest::with_shards(1);
        for key in 0u64..256 {
            assert_eq!(f.shard_for(&key), 0);
        }
    }

    #[test]
    fn lifecycle_and_aggregates() {
        let mut f = Forest::with_shards(4);
        {
            let mut s = f.session();
            for k in 0..100u64 {
                assert!(s.insert(k, k * 10));
                assert!(!s.insert(k, 0), "duplicate insert must fail");
            }
            for k in 0..100u64 {
                assert_eq!(s.get(&k), Some(k * 10));
                assert!(s.contains(&k));
            }
            for k in (0..100u64).step_by(2) {
                assert!(s.remove(&k));
                assert!(!s.remove(&k));
            }
        }
        assert_eq!(f.len_quiescent(), 50);
        assert!(!f.is_empty_quiescent());
        let v = f.to_vec_quiescent();
        assert_eq!(v.len(), 50);
        assert!(v.windows(2).all(|w| w[0].0 < w[1].0), "sorted by key");
        let stats = f.validate_structure().unwrap();
        assert_eq!(stats.len, 50);
    }

    #[test]
    fn inserted_keys_land_in_their_routed_shard() {
        let mut f = Forest::with_shards(8);
        let keys: Vec<u64> = (0..200).collect();
        {
            let mut s = f.session();
            for &k in &keys {
                s.insert(k, k);
            }
        }
        for &k in &keys {
            let idx = f.shard_for(&k);
            for i in 0..f.shard_count() {
                let present = f.shards[i]
                    .to_vec_quiescent()
                    .iter()
                    .any(|(kk, _)| *kk == k);
                assert_eq!(present, i == idx, "key {k} in shard {i}");
            }
        }
    }

    #[test]
    fn ordered_reads_fan_out_and_merge() {
        let f = Forest::with_shards(4);
        let mut s = f.session();
        for k in 0..100u64 {
            assert!(s.insert(k, k * 10));
        }
        let mid = s.range_scan(&10, &19);
        assert_eq!(mid.len(), 10);
        assert!(mid.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        assert_eq!(mid[0], (10, 100));
        assert_eq!(mid[9], (19, 190));
        assert_eq!(s.range_scan(&200, &300), vec![]);
        assert_eq!(s.range_scan(&19, &10), vec![], "empty range");
        assert_eq!(s.successor(&41), Some((42, 420)));
        assert_eq!(s.successor(&99), None);
        assert_eq!(s.predecessor(&1), Some((0, 0)));
        assert_eq!(s.predecessor(&0), None);
        assert_eq!(s.live_shard_sessions(), 4, "fan-out touches every shard");
    }

    #[test]
    fn range_router_routes_by_splitters() {
        let f: Forest = Forest::with_range_router(vec![100, 200, 300]);
        assert_eq!(f.shard_count(), 4);
        assert_eq!(f.router_kind(), RouterKind::Range);
        assert_eq!(f.splitters(), Some(&[100u64, 200, 300][..]));
        assert_eq!(f.shard_for(&u64::MIN), 0);
        assert_eq!(f.shard_for(&99), 0);
        // A key exactly at a splitter belongs to the upper shard: shard
        // ranges are low-inclusive.
        assert_eq!(f.shard_for(&100), 1);
        assert_eq!(f.shard_for(&199), 1);
        assert_eq!(f.shard_for(&200), 2);
        assert_eq!(f.shard_for(&300), 3);
        assert_eq!(f.shard_for(&u64::MAX), 3);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn range_router_rejects_unsorted_splitters() {
        let _: Forest = Forest::with_range_router(vec![10, 10]);
    }

    #[test]
    fn degenerate_empty_splitter_list_is_single_shard() {
        let f: Forest = Forest::with_range_router(vec![]);
        assert_eq!(f.shard_count(), 1);
        for key in [0u64, 1, 1000, u64::MAX] {
            assert_eq!(f.shard_for(&key), 0);
        }
        let mut s = f.session();
        assert!(s.insert(5, 50));
        assert!(s.insert(u64::MAX, 1));
        assert_eq!(
            s.range_scan(&0, &u64::MAX),
            vec![(5, 50), (u64::MAX, 1)],
            "degenerate forest still scans"
        );
    }

    #[test]
    fn even_splitters_partition_evenly() {
        assert_eq!(even_splitters(1, 100), vec![]);
        assert_eq!(even_splitters(4, 100), vec![25, 50, 75]);
        assert_eq!(even_splitters(4, 4), vec![1, 2, 3]);
        let s = even_splitters(8, 1 << 20);
        assert_eq!(s.len(), 7);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn even_splitters_reject_too_small_key_range() {
        let _ = even_splitters(8, 4);
    }

    #[test]
    fn range_scans_enter_only_overlapping_shards() {
        let f: Forest = Forest::with_range_router(vec![100, 200, 300]);
        let mut writer = f.session();
        for k in 0..400u64 {
            assert!(writer.insert(k, k * 10));
        }
        drop(writer);

        // A span inside one shard's range touches exactly that shard.
        let mut s = f.session();
        let mid = s.range_scan(&120, &180);
        assert_eq!(mid.len(), 61);
        assert_eq!(mid[0], (120, 1200));
        assert_eq!(mid[60], (180, 1800));
        assert_eq!(s.live_shard_sessions(), 1, "narrow span: one shard");

        // A span crossing two splitters touches exactly three shards.
        let mut s = f.session();
        let wide = s.range_scan(&50, &250);
        assert_eq!(wide.len(), 201);
        assert!(wide.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        assert_eq!(s.live_shard_sessions(), 3, "wide span: three shards");

        // Span edges exactly on a shard boundary: [100, 199] lives wholly
        // in shard 1; [100, 200] additionally touches shard 2.
        let mut s = f.session();
        assert_eq!(s.range_scan(&100, &199).len(), 100);
        assert_eq!(s.live_shard_sessions(), 1, "boundary-to-boundary span");
        assert_eq!(s.range_scan(&100, &200).len(), 101);
        assert_eq!(s.live_shard_sessions(), 2, "span ending on a splitter");

        // Inverted span: no shard entered at all.
        let mut s = f.session();
        assert_eq!(s.range_scan(&19, &10), vec![]);
        assert_eq!(s.live_shard_sessions(), 0, "empty span enters nothing");
    }

    #[test]
    fn directed_probes_widen_only_as_needed() {
        let f: Forest = Forest::with_range_router(vec![100, 200]);
        let mut writer = f.session();
        assert!(writer.insert(50, 1));
        assert!(writer.insert(150, 2));
        drop(writer);

        // Successor answered by the home shard: one session.
        let mut s = f.session();
        assert_eq!(s.successor(&10), Some((50, 1)));
        assert_eq!(s.live_shard_sessions(), 1);

        // Home shard exhausted rightward: widen to the next shard.
        let mut s = f.session();
        assert_eq!(s.successor(&50), Some((150, 2)));
        assert_eq!(s.live_shard_sessions(), 2);

        // Predecessor mirrors: home shard 1 has nothing below 150, so the
        // probe widens down to shard 0.
        let mut s = f.session();
        assert_eq!(s.predecessor(&150), Some((50, 1)));
        assert_eq!(s.live_shard_sessions(), 2);

        // Probes that exhaust the forest still answer correctly.
        let mut s = f.session();
        assert_eq!(s.successor(&150), None);
        assert_eq!(s.predecessor(&50), None);
        assert_eq!(s.successor(&u64::MAX), None);
        assert_eq!(s.predecessor(&u64::MIN), None);

        // A key exactly at a splitter probes from the upper shard.
        let mut s = f.session();
        assert_eq!(s.successor(&100), Some((150, 2)));
        assert_eq!(s.live_shard_sessions(), 1, "splitter key: upper shard");
        assert_eq!(s.predecessor(&100), Some((50, 1)));
    }

    #[test]
    fn range_router_boundary_keys_round_trip() {
        let f: Forest = Forest::with_range_router(vec![100, 200]);
        let mut s = f.session();
        for k in [u64::MIN, 99, 100, 101, 199, 200, u64::MAX] {
            assert!(s.insert(k, k.wrapping_add(1)));
        }
        for k in [u64::MIN, 99, 100, 101, 199, 200, u64::MAX] {
            assert_eq!(s.get(&k), Some(k.wrapping_add(1)), "key {k}");
        }
        assert_eq!(s.successor(&u64::MIN), Some((99, 100)));
        assert_eq!(s.predecessor(&u64::MAX), Some((200, 201)));
        let all = s.range_scan(&u64::MIN, &u64::MAX);
        assert_eq!(all.len(), 7);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        drop(s);
        let mut f = f;
        let stats = f.validate_structure().unwrap();
        assert_eq!(stats.len, 7);
    }

    #[test]
    fn cross_shard_validation_catches_range_misroutes() {
        // Plant a key in a shard outside its `[low, high)` range — what a
        // splitter-comparison bug would do.
        let mut f: Forest = Forest::with_range_router(vec![100, 200, 300]);
        f.shards[0].session().insert(250, 1);
        match f.validate_structure() {
            Err(InvariantViolation::MisroutedKey {
                found_in,
                routed_to,
            }) => {
                assert_eq!(found_in, 0);
                assert_eq!(routed_to, 2, "250 belongs to [200, 300)");
            }
            other => panic!("expected a misrouted key, got {other:?}"),
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn fanout_width_metric_tracks_router() {
        let hash: Forest = Forest::with_shards(4);
        let mut s = hash.session();
        s.insert(1, 1);
        s.range_scan(&0, &3);
        assert_eq!(hash.metrics().fanout_shards(), 4, "hash: all shards");
        drop(s);

        let range: Forest = Forest::with_range_router(vec![100, 200, 300]);
        let mut s = range.session();
        s.insert(1, 1);
        s.range_scan(&0, &3);
        assert_eq!(range.metrics().fanout_shards(), 1, "range: overlap only");
    }

    #[test]
    fn cross_shard_validation_catches_duplicates() {
        // Plant a duplicate by writing into two shards' trees directly,
        // bypassing routing — exactly what a routing bug would do.
        let mut f = Forest::with_shards(4);
        let key = 7u64;
        let home = f.shard_for(&key);
        let other = (home + 1) % f.shard_count();
        f.shards[home].session().insert(key, 1);
        f.shards[other].session().insert(key, 2);
        match f.validate_structure() {
            Err(InvariantViolation::CrossShardDuplicate { .. }) => {}
            other => panic!("expected a cross-shard duplicate, got {other:?}"),
        }
    }

    #[test]
    fn cross_shard_validation_catches_misroutes() {
        let mut f = Forest::with_shards(4);
        let key = 9u64;
        let home = f.shard_for(&key);
        let wrong = (home + 1) % f.shard_count();
        f.shards[wrong].session().insert(key, 1);
        match f.validate_structure() {
            Err(InvariantViolation::MisroutedKey {
                found_in,
                routed_to,
            }) => {
                assert_eq!(found_in, wrong);
                assert_eq!(routed_to, home);
            }
            other => panic!("expected a misrouted key, got {other:?}"),
        }
    }

    #[test]
    fn sessions_are_lazy() {
        let f = Forest::with_shards(8);
        let mut s = f.session();
        assert_eq!(s.live_shard_sessions(), 0);
        s.insert(7, 7);
        assert_eq!(s.live_shard_sessions(), 1);
        s.get(&7);
        assert_eq!(s.live_shard_sessions(), 1, "reuse, don't re-create");
    }

    #[test]
    fn per_shard_grace_periods_are_independent() {
        let f = Forest::with_shards(4);
        let before = f.grace_periods_per_shard();
        // Force a grace period in exactly one shard via its own domain.
        let target = f.shard_for(&42u64);
        {
            let handle = f.shard(target).rcu().register();
            citrus_rcu::RcuHandle::synchronize(&handle);
        }
        let after = f.grace_periods_per_shard();
        assert!(after[target] > before[target]);
        for i in 0..4 {
            if i != target {
                assert_eq!(after[i], before[i], "shard {i} must not advance");
            }
        }
    }

    #[test]
    fn works_with_global_lock_flavor() {
        let forest: CitrusForest<u64, u64, GlobalLockRcu> = CitrusForest::with_shards(2);
        let mut s = forest.session();
        assert!(s.insert(1, 1));
        assert!(s.remove(&1));
    }

    #[test]
    fn leak_mode_reports_no_reclaimed_count() {
        let f: Forest = CitrusForest::with_config(2, 0, ReclaimMode::Leak);
        assert_eq!(f.reclaimed_count(), None);
        let f: Forest = CitrusForest::with_config(2, 0, ReclaimMode::Epoch);
        assert_eq!(f.reclaimed_count(), Some(0));
    }

    #[cfg(feature = "stats")]
    #[test]
    fn metrics_roll_up_with_shard_labels() {
        let mut f = Forest::with_shards(2);
        let registry = MetricsRegistry::new();
        f.register_metrics(&registry);
        {
            let mut s = f.session();
            for k in 0..64u64 {
                s.insert(k, k);
            }
        }
        f.record_occupancy();
        let snap = registry.snapshot();
        let locks: u64 = (0..2)
            .map(|i| {
                snap.counter(&format!("shard{i}/citrus"), "lock_acquisitions")
                    .unwrap()
            })
            .sum();
        assert!(locks >= 64, "every insert locks at least one node");
        let routed: u64 = (0..2)
            .map(|i| snap.counter("forest", &format!("routed_shard{i}")).unwrap())
            .sum();
        assert_eq!(routed, 64);
        let occupancy = snap.histogram("forest", "shard_occupancy").unwrap();
        assert_eq!(occupancy.count, 2, "one occupancy sample per shard");
    }
}
