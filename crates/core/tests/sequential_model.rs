//! Sequential-model tests: seeded random operation sequences checked
//! against a `BTreeMap` model, return value by return value, for both RCU
//! flavors and both reclamation modes, with a structural audit of every
//! tree afterwards.
//!
//! Each test runs [`CASES`] fresh trees. A case's length (1–399
//! operations) and its operation seed come from the test's own
//! [`SplitMix64`], so a rerun replays every case, and a divergence names
//! the case's seed.

use citrus::{CitrusTree, GlobalLockRcu, ReclaimMode, ScalableRcu};
use citrus_api::testkit::{check_sequential_model, SplitMix64};
use citrus_rcu::RcuFlavor;
use std::collections::BTreeSet;

/// Fresh trees per test.
const CASES: usize = 64;

/// A small key space maximizes collisions, duplicate inserts, and
/// two-child deletions.
const KEY_RANGE: u64 = 256;

/// Runs [`CASES`] random operation sequences against fresh trees and a
/// model each, then audits every tree's structure and final contents.
fn run_against_model<F: RcuFlavor>(mode: ReclaimMode, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..CASES {
        let ops = 1 + rng.below(399) as usize;
        let mut tree: CitrusTree<u64, u64, F> = CitrusTree::with_reclaim(mode);
        let model = check_sequential_model(&tree, ops, KEY_RANGE, rng.next_u64());
        let stats = tree.validate_structure().expect("structure invariants");
        assert_eq!(stats.len, model.len());
        let expected: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(tree.to_vec_quiescent(), expected);
    }
}

#[test]
fn model_scalable_epoch() {
    run_against_model::<ScalableRcu>(ReclaimMode::Epoch, 0x5EC0_0001);
}

#[test]
fn model_scalable_leak() {
    run_against_model::<ScalableRcu>(ReclaimMode::Leak, 0x5EC0_0002);
}

#[test]
fn model_global_lock_epoch() {
    run_against_model::<GlobalLockRcu>(ReclaimMode::Epoch, 0x5EC0_0003);
}

#[test]
fn insert_all_then_remove_all() {
    let mut rng = SplitMix64::new(0x5EC0_0004);
    for _ in 0..CASES {
        let len = 1 + rng.below(64) as usize;
        let mut keys = BTreeSet::new();
        while keys.len() < len {
            keys.insert(rng.below(KEY_RANGE));
        }
        let mut tree: CitrusTree<u64, u64> = CitrusTree::new();
        let mut s = tree.session();
        for &k in &keys {
            assert!(s.insert(k, k), "insert({k}) of absent key failed");
        }
        // Remove in a rotated order so interior nodes go first sometimes.
        let order: Vec<u64> = keys.into_iter().collect();
        let pivot = order.len() / 2;
        for &k in order[pivot..].iter().chain(&order[..pivot]) {
            assert!(s.remove(&k), "remove({k}) of present key failed");
            assert!(!s.contains(&k), "removed key {k} still present");
        }
        drop(s);
        assert!(tree.is_empty_quiescent());
        tree.validate_structure().expect("structure invariants");
    }
}
