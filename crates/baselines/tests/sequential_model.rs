//! Sequential-model tests for every baseline structure: seeded random
//! operation sequences checked against a `BTreeMap`, return value by
//! return value, with a final full-range sweep.
//!
//! Each test runs [`CASES`] fresh maps. A case's length (1–399
//! operations) and its operation seed come from the test's own
//! [`SplitMix64`], so a rerun replays every case, and a divergence names
//! the case's seed.

use citrus_api::testkit::{check_sequential_model, SplitMix64};
use citrus_api::ConcurrentMap;
use citrus_baselines::{
    BonsaiTree, LazySkipList, LockFreeBst, OptimisticAvlTree, RelativisticRbTree,
};

/// Fresh maps per test.
const CASES: usize = 48;

/// A small key space maximizes collisions and duplicate inserts.
const KEY_RANGE: u64 = 256;

fn run_against_model<M: ConcurrentMap<u64, u64>>(make: impl Fn() -> M, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..CASES {
        let ops = 1 + rng.below(399) as usize;
        check_sequential_model(&make(), ops, KEY_RANGE, rng.next_u64());
    }
}

#[test]
fn model_rbtree() {
    run_against_model(RelativisticRbTree::<u64, u64>::new, 0xBA5E_0001);
}

#[test]
fn model_bonsai() {
    run_against_model(BonsaiTree::<u64, u64>::new, 0xBA5E_0002);
}

#[test]
fn model_avl() {
    run_against_model(OptimisticAvlTree::<u64, u64>::new, 0xBA5E_0003);
}

#[test]
fn model_lockfree() {
    run_against_model(LockFreeBst::<u64, u64>::new, 0xBA5E_0004);
}

#[test]
fn model_skiplist() {
    run_against_model(LazySkipList::<u64, u64>::new, 0xBA5E_0005);
}
