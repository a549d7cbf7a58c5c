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
//! A forest routes each key by a *seeded hash*, a pure function of the
//! key, the forest's sharding seed and its shard count, so
//! `get`/`contains` stay wait-free — one shard lookup, then one RCU
//! read-side section in that shard alone. The key's standard [`Hash`]
//! input is folded into an in-crate hasher whose state starts at the
//! sharding seed (one multiply per word, then the splitmix64 finalizer),
//! and the result's high bits select the shard (a multiply-shift, which
//! for power-of-two shard counts equals taking the top `log2(n)` bits —
//! no shift-by-64 edge case at `n = 1`). The hash is defined here rather
//! than taken from std, so a key's shard is the same on every platform
//! and toolchain. Skew-resistant: adversarial or hot adjacent keys
//! scatter across shards. The cost shows up in ordered reads, which must
//! fan out to every shard (next sections).
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
//! Instead the session enters every shard's read-side context, collects
//! a traversal per shard, and only then re-checks all recorded edges
//! across the shards, restarting the whole fan-out if any moved.
//! All reads precede all re-checks, so a successful pass observed every
//! entered shard simultaneously at one instant; the hits of every shard
//! are gathered into the one result list and sorted there, and the
//! session reuses its walk buffers from read to read. The shards are
//! walked together, breadth-first, with a prefetch of every pending
//! node, so their cache misses are in flight at once instead of running
//! back to back as one chain per shard. Joint validation only needs
//! every read before every re-check, not any order among the reads.
//!
//! Hash routing scatters any key range over every shard, so every
//! ordered read — scan, successor or predecessor — fans out to all of
//! them: Ω(shard count) work no matter how few keys match, the price paid
//! for skew resistance (DESIGN.md §6i). The shared walk overlaps the
//! shards' miss latency but does not shrink the work.
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
    /// stats off): every fan-out enters every shard, so this is
    /// [`scans`](Self::scans) times the shard count. Kept only because the
    /// benchmark program still reports it; the next change to the
    /// benchmark deletes it.
    #[must_use]
    pub fn fanout_shards(&self) -> u64 {
        self.scans() * self.routed.len() as u64
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
        registry.register_histogram(component, "shard_occupancy", &self.shard_occupancy);
    }
}

/// A fixed power-of-two array of independent [`CitrusTree`] shards routed
/// by a seeded key hash.
///
/// Each shard owns a private RCU domain and a private reclamation domain,
/// so a grace period in one shard never waits on readers of another.
/// Threads operate through per-thread [`ForestSession`]s, which create
/// per-shard tree sessions lazily on first touch.
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
    /// The shard trees; `len()` is a power of two.
    shards: Box<[CitrusTree<K, V, F>]>,
    /// The routing hasher's initial state (see [`shard_for`](Self::shard_for)).
    seed: u64,
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
            seed,
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

impl<K, V, F: RcuFlavor> CitrusForest<K, V, F> {
    /// Number of shards (a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router's sharding seed.
    #[must_use]
    pub fn sharding_seed(&self) -> u64 {
        self.seed
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

impl<K: Hash, V, F: RcuFlavor> CitrusForest<K, V, F> {
    /// Routes `key` to its shard index: a pure function of the key, the
    /// sharding seed and the shard count (see the module docs' *Routing*
    /// section).
    #[must_use]
    pub fn shard_for(&self, key: &K) -> usize {
        Self::route(self.seed, self.shards.len(), key)
    }

    /// [`shard_for`](Self::shard_for) without `&self`: callable while a shard is borrowed `&mut`.
    fn route(seed: u64, shards: usize, key: &K) -> usize {
        let mut hasher = RouteHasher(seed);
        key.hash(&mut hasher);
        // Lemire multiply-shift: maps the 64-bit hash uniformly onto
        // [0, n). For power-of-two n this is exactly the top log2(n)
        // bits, with no undefined shift at n = 1.
        ((u128::from(hasher.finish()) * shards as u128) >> 64) as usize
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
    /// cross-shard one, returning aggregate stats (total length, maximum
    /// shard height) or the first violation. Quiescent-only.
    ///
    /// Per-shard validation alone cannot back
    /// [`to_vec_quiescent`](Self::to_vec_quiescent)'s promise of one
    /// duplicate-free ascending view, so this also checks, one shard at a
    /// time, that every key lives in its routed shard. Routing is a
    /// function of the key, so no key can then be in two shards.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] in any shard. The first key found
    /// outside its routed shard is a `CrossShardDuplicate` (lower shard
    /// first) if another shard holds it too, else a `MisroutedKey`.
    pub fn validate_structure(&mut self) -> Result<TreeStats, InvariantViolation>
    where
        K: Hash,
    {
        let mut total = TreeStats::default();
        let n = self.shards.len();
        let (seed, shards) = (self.seed, &mut self.shards);
        for found_in in 0..n {
            let TreeStats { len, height } = shards[found_in].validate_structure()?;
            (total.len, total.height) = (total.len + len, total.height.max(height));
            let mut stray = None;
            shards[found_in].for_each_quiescent(|key, _| {
                if stray.is_none() && Self::route(seed, n, key) != found_in {
                    stray = Some(key.clone());
                }
            });
            let Some(key) = stray else { continue };
            // Error path only: does another shard hold the stray key too?
            for other in (0..n).filter(|&i| i != found_in) {
                let mut held = false;
                shards[other].for_each_quiescent(|k, _| held |= *k == key);
                if held {
                    let shards = (found_in.min(other), found_in.max(other));
                    return Err(InvariantViolation::CrossShardDuplicate { shards });
                }
            }
            let routed_to = Self::route(seed, n, &key);
            return Err(InvariantViolation::MisroutedKey {
                found_in,
                routed_to,
            });
        }
        Ok(total)
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

    /// Runs one fan-out ordered read to a validated completion: enter
    /// every shard's read-side context, walk all of them as one frontier
    /// walk, then re-check every recorded edge across all of them —
    /// restarting the **whole** fan-out when any moved. Scanning shards one
    /// after another would not be linearizable (shard A's snapshot would
    /// predate shard B's); holding all contexts and validating after all
    /// reads extends the single-tree common-instant argument across the
    /// forest.
    ///
    /// The walk is seeded with every shard's root and visits breadth-first
    /// across all of them ([`ScanWalk`]), prefetching each pending node:
    /// the shards' boundary paths and in-range subtrees have their misses
    /// in flight together instead of one chain at a time. Every edge read
    /// still precedes every re-check, which is all the joint validation
    /// needs.
    fn fan_out<T>(&mut self, query: WalkQuery<'_, K>, extract: impl Fn(&ScanWalk<K, V>) -> T) -> T {
        chaos::point!("forest/scan/fan-out");
        let n = self.sessions.len();
        for idx in 0..n {
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
                    for _ in 0..n {
                        walk.visit(guard.enter_next(), &query);
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
    /// walk covers the shards together so their cache misses overlap. The
    /// hits of every shard are gathered into the result `Vec` and sorted
    /// there, which is the only allocation a warmed session's scan makes.
    pub fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        if lo > hi {
            // An empty span holds at every instant; no shard need be
            // entered.
            return Vec::new();
        }
        // SAFETY: `fan_out` extracts while every shard guard is still
        // held.
        self.fan_out(WalkQuery::Range { lo, hi }, |walk| unsafe {
            walk.entries()
        })
    }

    /// The entry with the least key strictly greater than `key`, observed
    /// atomically: a fan-out to every shard (one candidate path per
    /// shard, validated together, least candidate wins).
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
        // SAFETY: `fan_out` extracts while every shard guard is still
        // held.
        self.fan_out(WalkQuery::Directed { key, side }, |walk| unsafe {
            walk.nearest(side)
        })
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

/// The read-side contexts of the shards one ordered read has entered: the
/// first `entered` of a forest session's shard sessions. Dropping the
/// guard exits every one of them, on normal exit and during unwinding
/// alike, so a panicking extraction leaves no shard's grace periods
/// waiting on it.
struct FanOutGuard<'a, 't, K, V, F: RcuFlavor> {
    sessions: &'a [Option<CitrusSession<'t, K, V, F>>],
    entered: usize,
}

impl<'a, 't, K, V, F: RcuFlavor> FanOutGuard<'a, 't, K, V, F> {
    fn new(sessions: &'a [Option<CitrusSession<'t, K, V, F>>]) -> Self {
        Self {
            sessions,
            entered: 0,
        }
    }

    /// Enters the next shard in index order and returns its tree's root
    /// sentinel.
    fn enter_next(&mut self) -> *mut Node<K, V> {
        let root = self.sessions[self.entered]
            .as_ref()
            .expect("fan-out shards have sessions")
            .read_side_enter();
        self.entered += 1;
        root
    }
}

impl<K, V, F: RcuFlavor> Drop for FanOutGuard<'_, '_, K, V, F> {
    fn drop(&mut self) {
        for session in self.sessions[..self.entered].iter().flatten() {
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

    #[cfg(feature = "stats")]
    #[test]
    fn fanout_width_metric_counts_every_shard() {
        let f = Forest::with_shards(4);
        let mut s = f.session();
        s.insert(1, 1);
        s.range_scan(&0, &3);
        s.successor(&0);
        assert_eq!(
            f.metrics().fanout_shards(),
            2 * 4,
            "every read enters all shards"
        );
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
    fn cross_shard_validation_names_both_stray_copies() {
        // Neither copy sits in the key's routed shard: both are strays,
        // and the report names the two shards holding them.
        let mut f = Forest::with_shards(4);
        let key = 11u64;
        let home = f.shard_for(&key);
        let (a, b) = ((home + 1) % 4, (home + 2) % 4);
        f.shards[a].session().insert(key, 1);
        f.shards[b].session().insert(key, 2);
        assert_eq!(
            f.validate_structure(),
            Err(InvariantViolation::CrossShardDuplicate {
                shards: (a.min(b), a.max(b))
            })
        );
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
