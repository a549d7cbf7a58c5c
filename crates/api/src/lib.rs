//! Common dictionary API for the Citrus reproduction.
//!
//! The paper evaluates six concurrent dictionaries (Citrus plus five
//! baselines) under one methodology. This crate defines the uniform
//! interface the benchmark harness drives — [`ConcurrentMap`] /
//! [`MapSession`] — and a [`testkit`] of reusable correctness checks
//! (sequential model conformance, lost-update detection, partitioned
//! concurrent determinism) that every implementation's test suite runs.
//!
//! # Dictionary semantics (paper §2)
//!
//! A dictionary is a set of key–value pairs with totally ordered keys:
//!
//! * `insert(k, v)` adds `(k, v)`; returns `true` iff `k` was absent.
//! * `delete(k)` removes `(k, v)`; returns `true` iff `k` was present.
//! * `contains(k)` returns the associated value, or nothing.
//!
//! Values are immutable once inserted: inserting an existing key returns
//! `false` and leaves the old value in place.
//!
//! # Sessions
//!
//! Every structure here keeps *per-thread* state (RCU reader slots, epoch
//! pins, retired-node bags), so threads interact with a map through a
//! [`MapSession`] obtained from [`ConcurrentMap::session`]. Sessions are
//! cheap, not `Send`, and any number may be live concurrently.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
pub(crate) mod coarse;
pub mod explore;
pub mod lincheck;
pub mod testkit;

/// A concurrent ordered dictionary (the paper's `insert` / `delete` /
/// `contains` API).
///
/// Implementations are linearizable. Threads operate through per-thread
/// [`MapSession`]s.
///
/// # Example
///
/// ```
/// use citrus_api::{ConcurrentMap, MapSession};
///
/// fn fill<M: ConcurrentMap<u64, u64>>(map: &M, n: u64) {
///     let mut session = map.session();
///     for k in 0..n {
///         session.insert(k, k * 10);
///     }
/// }
/// ```
pub trait ConcurrentMap<K, V>: Send + Sync {
    /// Per-thread access handle; see [`MapSession`].
    type Session<'a>: MapSession<K, V>
    where
        Self: 'a;

    /// Short structure name used in benchmark reports (e.g. `"citrus"`).
    const NAME: &'static str;

    /// Creates a session for the calling thread.
    fn session(&self) -> Self::Session<'_>;
}

/// A per-thread handle to a [`ConcurrentMap`].
///
/// Methods take `&mut self` because sessions own per-thread scratch state
/// (retire bags, RNG-free validation buffers); the *map* itself is shared
/// and fully concurrent.
pub trait MapSession<K, V> {
    /// Returns the value associated with `key`, if present.
    ///
    /// For Citrus this is the paper's wait-free `contains` that runs inside
    /// an RCU read-side critical section.
    fn get(&mut self, key: &K) -> Option<V>;

    /// Returns `true` iff `key` is present.
    fn contains(&mut self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `(key, value)`. Returns `true` iff `key` was absent
    /// (the paper's `insert`); on `false` the map is unchanged.
    fn insert(&mut self, key: K, value: V) -> bool;

    /// Removes `key`. Returns `true` iff `key` was present
    /// (the paper's `delete`).
    fn remove(&mut self, key: &K) -> bool;
}

/// Ordered reads over a [`MapSession`]: range scans and nearest-neighbour
/// queries.
///
/// A dictionary is a *search tree* here, so readers can traverse
/// multi-node regions, not just probe single keys. Every method is
/// linearizable like the point operations: the returned entries are the
/// map's contents over the queried region at one instant between
/// invocation and response. Implementations that traverse live structure
/// (Citrus) validate the traversal and restart on interference;
/// snapshot-based structures (Bonsai) read one immutable root.
pub trait OrderedMapSession<K, V>: MapSession<K, V> {
    /// Returns every `(key, value)` pair with `lo <= key <= hi`, in
    /// ascending key order. An empty range (`lo > hi`) yields no entries.
    fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)>;

    /// Returns the entry with the least key **strictly greater** than
    /// `key`, if any.
    fn successor(&mut self, key: &K) -> Option<(K, V)>;

    /// Returns the entry with the greatest key **strictly less** than
    /// `key`, if any.
    fn predecessor(&mut self, key: &K) -> Option<(K, V)>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::{CoarseMap, CoarseSession};

    #[test]
    fn ordered_session_contract_on_the_reference_map() {
        let m = CoarseMap::default();
        let mut s = m.session();
        for k in [5u64, 1, 9, 3] {
            assert!(s.insert(k, k * 10));
        }
        assert_eq!(s.range_scan(&2, &8), vec![(3, 30), (5, 50)]);
        assert_eq!(s.range_scan(&8, &2), vec![]);
        assert_eq!(s.successor(&3), Some((5, 50)));
        assert_eq!(s.successor(&9), None);
        assert_eq!(s.predecessor(&3), Some((1, 10)));
        assert_eq!(s.predecessor(&1), None);
    }

    #[test]
    fn contains_defaults_to_get() {
        let m = CoarseMap::default();
        let mut s = m.session();
        assert!(!s.contains(&1));
        assert!(s.insert(1, 10));
        assert!(s.contains(&1));
    }

    #[test]
    fn testkit_accepts_a_correct_map() {
        // Fresh map per check: the checks assume they own the key ranges
        // they exercise.
        testkit::check_sequential_model(&CoarseMap::default(), 4_000, 128, 0xC17A05);
        testkit::check_duplicate_inserts(&CoarseMap::default());
        testkit::check_lost_updates(&CoarseMap::default(), 4, 500);
        testkit::check_partitioned_determinism(&CoarseMap::default(), 4, 2_000, 64);
        testkit::check_mixed_quiescent_consistency(&CoarseMap::default(), 4, 2_000, 64);
    }

    #[test]
    #[should_panic]
    fn testkit_rejects_a_broken_map() {
        /// Broken map: `insert` always reports success.
        #[derive(Default, Debug)]
        struct Broken(CoarseMap);
        struct BrokenSession<'a>(CoarseSession<'a>);

        impl ConcurrentMap<u64, u64> for Broken {
            type Session<'a> = BrokenSession<'a>;
            const NAME: &'static str = "broken";
            fn session(&self) -> BrokenSession<'_> {
                BrokenSession(self.0.session())
            }
        }
        impl MapSession<u64, u64> for BrokenSession<'_> {
            fn get(&mut self, key: &u64) -> Option<u64> {
                self.0.get(key)
            }
            fn insert(&mut self, key: u64, value: u64) -> bool {
                self.0.insert(key, value);
                true // lie
            }
            fn remove(&mut self, key: &u64) -> bool {
                self.0.remove(key)
            }
        }

        let m = Broken::default();
        testkit::check_sequential_model(&m, 1_000, 16, 7);
    }
}
