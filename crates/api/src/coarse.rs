//! A trivial coarse-locked reference map (a `BTreeMap` behind one
//! `Mutex`), shared by this crate's unit tests to sanity check the trait
//! contracts, the testkit, the lincheck recorder and the schedule
//! explorer against a map that is correct by construction.

use crate::{ConcurrentMap, MapSession, OrderedMapSession};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Mutex;

#[derive(Default, Debug)]
pub(crate) struct CoarseMap {
    inner: Mutex<BTreeMap<u64, u64>>,
}

pub(crate) struct CoarseSession<'a>(&'a CoarseMap);

impl ConcurrentMap<u64, u64> for CoarseMap {
    type Session<'a> = CoarseSession<'a>;
    const NAME: &'static str = "coarse-btreemap";

    fn session(&self) -> CoarseSession<'_> {
        CoarseSession(self)
    }
}

impl MapSession<u64, u64> for CoarseSession<'_> {
    fn get(&mut self, key: &u64) -> Option<u64> {
        self.0.inner.lock().unwrap().get(key).copied()
    }

    fn insert(&mut self, key: u64, value: u64) -> bool {
        match self.0.inner.lock().unwrap().entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(e) => {
                e.insert(value);
                true
            }
        }
    }

    fn remove(&mut self, key: &u64) -> bool {
        self.0.inner.lock().unwrap().remove(key).is_some()
    }
}

impl OrderedMapSession<u64, u64> for CoarseSession<'_> {
    fn range_scan(&mut self, lo: &u64, hi: &u64) -> Vec<(u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        self.0
            .inner
            .lock()
            .unwrap()
            .range(*lo..=*hi)
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    fn successor(&mut self, key: &u64) -> Option<(u64, u64)> {
        self.0
            .inner
            .lock()
            .unwrap()
            .range((Bound::Excluded(*key), Bound::Unbounded))
            .next()
            .map(|(k, v)| (*k, *v))
    }

    fn predecessor(&mut self, key: &u64) -> Option<(u64, u64)> {
        self.0
            .inner
            .lock()
            .unwrap()
            .range(..*key)
            .next_back()
            .map(|(k, v)| (*k, *v))
    }
}
