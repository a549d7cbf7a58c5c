//! `citrus-serve` owns no thread: requests run on the threads that submit
//! them. This binary holds a single test, so no other test's threads can
//! come or go while it counts the process's threads.

use citrus_repro::citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_repro::citrus_serve::{ServeConfig, Server};
use citrus_repro::prelude::*;

/// The process's thread count, from `/proc/self/task`.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

#[test]
fn server_spawns_no_thread() {
    let forest: CitrusForest<u64, u64> = CitrusForest::with_config(8, 0x5EED, ReclaimMode::Epoch);
    let before = threads();
    let server = Server::with_config(forest, ServeConfig::default());
    assert_eq!(threads(), before, "with_config spawned a thread");
    {
        let mut s = server.session();
        for k in 0..64u64 {
            assert!(s.insert(k, k));
        }
        assert_eq!(s.get(&9), Some(9));
        assert_eq!(s.range_scan(&10, &12).len(), 3);
    }
    let ticket = server
        .submit(citrus_repro::citrus_serve::Request::Remove(3))
        .expect("admitted");
    assert!(ticket.is_ready());
    server.shutdown();
    assert_eq!(threads(), before, "serving or shutdown spawned a thread");
}
