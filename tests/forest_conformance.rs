//! Forest ↔ tree conformance: a [`CitrusForest`] with any shard count
//! must be observationally indistinguishable from a single [`CitrusTree`]
//! oracle, operation for operation, under chaos-schedule perturbation.
//!
//! Each sweep runs `CITRUS_CHAOS_SEEDS` (default 3) consecutive seeds;
//! every seed installs a chaos plan (a no-op without the `chaos` cargo
//! feature, so this file is green under default features too), builds a
//! fresh forest and oracle, and drives both through the same random
//! operation stream via `testkit::check_map_agreement`. Shard counts
//! cover the boundary cases: 1 (degenerate single-tree forest), 3
//! (rounds up to 4 — non-power-of-two request), and 8.
//!
//! Every sweep's forest is hash-routed, seeded by the chaos seed.

use citrus_repro::citrus_api::testkit;
use citrus_repro::prelude::*;

/// Sweeps chaos seeds over forest-vs-oracle agreement for one flavor and
/// shard count. The chaos seed doubles as sharding seed and stream seed,
/// so a failure replays from the one number in the panic message.
fn agreement_sweep<F: RcuFlavor>(shards: usize, base_seed: u64) {
    let _watchdog = testkit::stress_watchdog("forest_conformance::agreement_sweep");
    for i in 0..testkit::chaos_seeds(3) {
        let seed = base_seed.wrapping_add(i);
        let _chaos = testkit::install_chaos(testkit::ChaosPlan::from_seed(seed));
        let mut forest: CitrusForest<u64, u64, F> =
            CitrusForest::with_config(shards, seed, ReclaimMode::Epoch);
        let mut oracle: CitrusTree<u64, u64, F> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
        testkit::check_map_agreement(&forest, &oracle, 600, 128, seed);
        let case = format!("seed {seed:#x}, {shards} shards");

        // The quiescent views must agree too, and the forest must still
        // satisfy every per-shard structural invariant.
        assert_eq!(
            forest.to_vec_quiescent(),
            oracle.to_vec_quiescent(),
            "quiescent contents diverged ({case})"
        );
        let stats = forest
            .validate_structure()
            .unwrap_or_else(|v| panic!("forest invariant violation ({case}): {v:?}"));
        assert_eq!(stats.len, oracle.len_quiescent());

        // Ordered reads must agree too: the forest's one walk over all
        // shards, sorted, must reproduce the oracle's in-order view.
        let mut fs = forest.session();
        let mut os = oracle.session();
        assert_eq!(
            fs.range_scan(&0, &127),
            os.range_scan(&0, &127),
            "full-range scan diverged ({case})"
        );
        for probe in [0u64, 31, 64, 97, 127] {
            assert_eq!(
                fs.successor(&probe),
                os.successor(&probe),
                "successor({probe}) ({case})"
            );
            assert_eq!(
                fs.predecessor(&probe),
                os.predecessor(&probe),
                "predecessor({probe}) ({case})"
            );
        }
    }
}

#[test]
fn scalable_one_shard_agrees() {
    agreement_sweep::<ScalableRcu>(1, 0xF0_0001);
}

#[test]
fn scalable_three_shards_agrees() {
    agreement_sweep::<ScalableRcu>(3, 0xF0_0003);
}

#[test]
fn scalable_eight_shards_agrees() {
    agreement_sweep::<ScalableRcu>(8, 0xF0_0008);
}

#[test]
fn global_lock_one_shard_agrees() {
    agreement_sweep::<GlobalLockRcu>(1, 0xF1_0001);
}

#[test]
fn global_lock_three_shards_agrees() {
    agreement_sweep::<GlobalLockRcu>(3, 0xF1_0003);
}

#[test]
fn global_lock_eight_shards_agrees() {
    agreement_sweep::<GlobalLockRcu>(8, 0xF1_0008);
}

/// DESIGN.md §6e claims each shard owns a *private* grace-period domain —
/// one shard's `synchronize_rcu` never waits on another shard's readers.
/// This pins that independence directly: a reader sits pinned inside
/// shard 0's read-side critical section for the whole duration of a
/// `synchronize_rcu` on shard 1's domain. If the domains were secretly
/// shared, the synchronize would wait on the pinned reader forever and
/// the stress watchdog would reap the test with exit code 124.
fn shard_grace_periods_are_independent<F: RcuFlavor>(test: &str) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let _watchdog = testkit::stress_watchdog(test);
    let forest: CitrusForest<u64, u64, F> = CitrusForest::with_shards(4);
    let pinned = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (forest, pinned, release) = (&forest, &pinned, &release);
        scope.spawn(move || {
            let handle = forest.shard(0).rcu().register();
            let guard = handle.read_lock();
            pinned.store(true, Ordering::Release);
            while !release.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            drop(guard);
        });
        while !pinned.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Reader is inside shard 0's read-side section. Shard 1's grace
        // period must complete anyway.
        let before = forest.shard(1).rcu().grace_periods();
        let handle = forest.shard(1).rcu().register();
        handle.synchronize();
        assert!(
            forest.shard(1).rcu().grace_periods() > before,
            "shard 1 must run its own grace period"
        );
        assert_eq!(
            forest.shard(0).rcu().grace_periods(),
            0,
            "shard 0's domain must not be driven by shard 1's synchronize"
        );
        release.store(true, Ordering::Release);
    });
}

#[test]
fn scalable_shard_grace_periods_are_independent() {
    shard_grace_periods_are_independent::<ScalableRcu>("scalable_shard_gp_independent");
}

#[test]
fn global_lock_shard_grace_periods_are_independent() {
    shard_grace_periods_are_independent::<GlobalLockRcu>("global_lock_shard_gp_independent");
}

#[test]
fn three_shards_rounds_up_to_four() {
    let forest: CitrusForest<u64, u64> = CitrusForest::with_shards(3);
    assert_eq!(forest.shard_count(), 4);
}

#[test]
fn routing_is_a_pure_function_of_the_seed() {
    for seed in [0u64, 1, 0xDEADBEEF, u64::MAX] {
        let a: CitrusForest<u64, u64> = CitrusForest::with_sharding_seed(8, seed);
        let b: CitrusForest<u64, u64> = CitrusForest::with_sharding_seed(8, seed);
        for key in 0u64..2048 {
            assert_eq!(
                a.shard_for(&key),
                b.shard_for(&key),
                "same seed {seed:#x} must route key {key} identically"
            );
        }
    }
}

/// The validator's cross-shard pass has teeth at the conformance level:
/// a key smuggled into a shard the router would never pick (here via
/// direct shard access, standing in for a routing bug) must surface as a
/// `MisroutedKey` — and as `CrossShardDuplicate` once the routed copy
/// exists too, since per-shard BSTs can't see each other's keys.
#[test]
fn validator_catches_cross_shard_leaks() {
    use citrus_repro::citrus::InvariantViolation;

    let mut forest: CitrusForest<u64, u64> = CitrusForest::with_sharding_seed(4, 0x5EED);
    {
        let mut s = forest.session();
        for k in 0u64..64 {
            s.insert(k, k);
        }
    }
    let k = 1_000_001u64;
    let routed = forest.shard_for(&k);
    let wrong = (routed + 1) % forest.shard_count();
    assert!(forest.shard(wrong).session().insert(k, 1));

    match forest.validate_structure() {
        Err(InvariantViolation::MisroutedKey {
            found_in,
            routed_to,
        }) => {
            assert_eq!((found_in, routed_to), (wrong, routed));
        }
        other => panic!("expected MisroutedKey, got {other:?}"),
    }

    // Add the correctly-routed copy: the same key now lives in two
    // shards, which the disjointness pass must flag.
    assert!(forest.shard(routed).session().insert(k, 2));
    match forest.validate_structure() {
        Err(InvariantViolation::CrossShardDuplicate { shards }) => {
            let mut found = [shards.0, shards.1];
            found.sort_unstable();
            let mut expected = [wrong, routed];
            expected.sort_unstable();
            assert_eq!(
                found, expected,
                "duplicate must name the two offending shards"
            );
        }
        other => panic!("expected CrossShardDuplicate, got {other:?}"),
    }

    // Repairing the leak restores a valid forest.
    assert!(forest.shard(wrong).session().remove(&k));
    forest
        .validate_structure()
        .expect("repaired forest validates");
}

/// Boundary-key battery: keys exactly at the routing boundaries,
/// `u64::MIN`/`u64::MAX`, and spans starting/ending exactly on those
/// boundaries must round-trip identically to a `BTreeMap` oracle.
/// `boundaries` names the keys to probe around.
fn boundary_battery(mut forest: CitrusForest<u64, u64>, boundaries: &[u64]) {
    use std::collections::BTreeMap;
    use std::ops::Bound;

    let mut keys: Vec<u64> = vec![u64::MIN, 1, u64::MAX - 1, u64::MAX];
    for &s in boundaries {
        keys.extend([s - 1, s, s + 1]);
    }
    keys.sort_unstable();
    keys.dedup();

    let mut oracle = BTreeMap::new();
    {
        let mut sess = forest.session();
        for &k in &keys {
            assert!(sess.insert(k, !k), "insert {k}");
            assert!(!sess.insert(k, !k), "duplicate insert {k} must fail");
            oracle.insert(k, !k);
        }
    }
    forest
        .validate_structure()
        .expect("boundary-key forest validates");

    let mut sess = forest.session();
    for &k in &keys {
        assert_eq!(sess.get(&k), Some(!k), "get {k}");
    }

    // Spans whose endpoints sit exactly on routing boundaries, plus the
    // full key space, single-point spans, and an inverted span.
    let mut spans: Vec<(u64, u64)> = vec![(u64::MIN, u64::MAX), (u64::MAX, u64::MIN)];
    for &s in boundaries {
        spans.extend([(u64::MIN, s), (s, u64::MAX), (s, s), (s - 1, s + 1)]);
    }
    for w in boundaries.windows(2) {
        spans.push((w[0], w[1]));
    }
    for (lo, hi) in spans {
        let want: Vec<(u64, u64)> = if lo <= hi {
            oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
        } else {
            Vec::new()
        };
        assert_eq!(sess.range_scan(&lo, &hi), want, "range_scan({lo}, {hi})");
    }

    // Directed probes at and around every boundary (strict on both sides).
    for &k in &keys {
        let suc = oracle
            .range((Bound::Excluded(k), Bound::Unbounded))
            .next()
            .map(|(&a, &b)| (a, b));
        assert_eq!(sess.successor(&k), suc, "successor({k})");
        let pred = oracle.range(..k).next_back().map(|(&a, &b)| (a, b));
        assert_eq!(sess.predecessor(&k), pred, "predecessor({k})");
    }
    drop(sess);

    // Draining through fresh sessions exercises the same routing again.
    let mut sess = forest.session();
    for &k in &keys {
        assert!(sess.remove(&k), "remove {k}");
    }
    drop(sess);
    forest
        .validate_structure()
        .expect("drained forest validates");
}

#[test]
fn hash_router_boundary_battery() {
    boundary_battery(
        CitrusForest::with_sharding_seed(4, 0x5EED),
        &[100u64, 200, 300],
    );
}

#[test]
fn routed_shard_is_where_the_key_lives() {
    let mut forest: CitrusForest<u64, u64> = CitrusForest::with_sharding_seed(8, 0x5EED);
    {
        let mut s = forest.session();
        for k in 0u64..300 {
            assert!(s.insert(k, k));
        }
    }
    for k in 0u64..300 {
        let routed = forest.shard_for(&k);
        let occupancy = forest.record_occupancy();
        assert_eq!(occupancy.iter().sum::<usize>(), 300);
        // The routed shard must contain the key; sessions re-route
        // deterministically, so removing through a fresh session drains
        // the same shard.
        let before = occupancy[routed];
        assert!(forest.session().remove(&k));
        let after = forest.record_occupancy()[routed];
        assert_eq!(after, before - 1, "key {k} was not in its routed shard");
        assert!(forest.session().insert(k, k));
    }
}

/// Keys for the interleaved-vs-sequential checks are drawn below this;
/// query endpoints reach a little past it.
const INTERLEAVE_KEY_RANGE: u64 = 1000;

/// Interleaved fan-out equals sequential: a forest's ordered reads walk
/// all entered shards together, breadth-first, so on a quiescent forest
/// every `range_scan` / `successor` / `predecessor` must return exactly
/// what one tree holding the same entries returns — over seeded random
/// spans and probes plus the edge cases (inverted span, single-point
/// span, the full key space, probes at both ends of `u64`).
fn ordered_reads_match_single_tree(forest: &CitrusForest<u64, u64>, keys: &[u64], label: &str) {
    let oracle: CitrusTree<u64, u64> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
    {
        let mut f = forest.session();
        let mut t = oracle.session();
        for &k in keys {
            assert_eq!(
                f.insert(k, k ^ 0xA5A5),
                t.insert(k, k ^ 0xA5A5),
                "{label}: insert {k}"
            );
        }
    }
    let mut f = forest.session();
    let mut t = oracle.session();

    let mut spans: Vec<(u64, u64)> = vec![
        (0, u64::MAX),
        (u64::MAX, 0),
        (7, 3),
        (5, 5),
        (u64::MAX, u64::MAX),
    ];
    let mut probes: Vec<u64> = vec![0, 1, u64::MAX - 1, u64::MAX];
    probes.extend(keys.iter().take(16).copied());
    spans.extend(keys.iter().take(16).map(|&k| (k, k)));
    let mut rng = testkit::SplitMix64::new(0x1_4EAF ^ keys.len() as u64);
    for _ in 0..200 {
        let lo = rng.below(INTERLEAVE_KEY_RANGE + 100);
        let hi = lo
            .saturating_add(rng.below(300))
            .saturating_sub(rng.below(20));
        spans.push((lo, hi));
        probes.push(rng.below(INTERLEAVE_KEY_RANGE + 100));
    }
    for (lo, hi) in spans {
        assert_eq!(
            f.range_scan(&lo, &hi),
            t.range_scan(&lo, &hi),
            "{label}: range_scan({lo}, {hi})"
        );
    }
    for k in probes {
        assert_eq!(f.successor(&k), t.successor(&k), "{label}: successor({k})");
        assert_eq!(
            f.predecessor(&k),
            t.predecessor(&k),
            "{label}: predecessor({k})"
        );
    }
}

/// The populations each shard count is checked on: an empty forest, a
/// few small keys (most shards empty at 8 shards), and a dense random
/// fill.
fn interleave_populations(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = testkit::SplitMix64::new(seed);
    let dense: Vec<u64> = (0..400).map(|_| rng.below(INTERLEAVE_KEY_RANGE)).collect();
    vec![Vec::new(), vec![3, 9, 12], dense]
}

#[test]
fn interleaved_hash_fan_out_matches_single_tree() {
    for shards in [1, 3, 8] {
        for (i, keys) in interleave_populations(0x1A7E + shards as u64)
            .iter()
            .enumerate()
        {
            let forest = CitrusForest::with_config(shards, 0x5EED, ReclaimMode::Epoch);
            let label = format!("hash router, {shards} shards, population {i}");
            ordered_reads_match_single_tree(&forest, keys, &label);
        }
    }
}
