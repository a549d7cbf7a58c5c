//! Backpressure and shutdown semantics of `citrus-serve`, pinned by
//! deterministic unit tests: admission control rejects exactly at the
//! high-water mark and returns the request for retry, sessions honor the
//! server's retry-after back-off, graceful shutdown drains every queued
//! request, and — the load-bearing guarantee — **no acknowledged write is
//! ever lost**: everything a client saw acked is present in (or absent
//! from) the forest recovered after shutdown, verified by replaying the
//! acked stream against a model.
//!
//! Determinism comes from `pause()`: while a server is paused every
//! admitted request queues and nothing executes, so queue depths are
//! exact functions of the submits issued and the high-water tests assert
//! exact rejection points rather than racing the executors.

use citrus_repro::citrus_api::{testkit, ConcurrentMap, MapSession};
use citrus_repro::citrus_serve::{Request, Response, ServeConfig, Server, SubmitError};
use citrus_repro::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

fn server_with(config: ServeConfig) -> Server<u64, u64> {
    Server::with_config(
        CitrusForest::with_config(2, 0x5EED, ReclaimMode::Epoch),
        config,
    )
}

// ---- Admission control -------------------------------------------------

/// With the server paused, the queue admits exactly `high_water` requests
/// and rejects the next one, reporting the configured retry-after and
/// the observed depth, and handing the request back intact for retry.
#[test]
fn rejects_exactly_at_high_water() {
    let high_water = 3;
    let server = server_with(ServeConfig::default().with_high_water(high_water));
    server.pause();

    // Key 1 pins every submit to one shard, so its depth is exact.
    let shard = server.shard_for(&1);
    for i in 0..high_water {
        let ticket = server
            .submit(Request::Insert(1, i as u64))
            .unwrap_or_else(|_| panic!("submit {i} within high-water must be admitted"));
        assert!(!ticket.is_ready(), "the server is paused");
    }
    assert_eq!(server.queue_len(shard), high_water);

    match server.submit(Request::Insert(1, 99)) {
        Err(SubmitError::Rejected {
            req,
            retry_after,
            depth,
        }) => {
            assert_eq!(req, Request::Insert(1, 99), "request comes back for retry");
            assert_eq!(retry_after, server.config().retry_after);
            assert_eq!(depth, high_water, "rejection reports the full queue");
        }
        other => panic!("expected rejection at high water, got {other:?}"),
    }
    assert_eq!(server.counters().rejected(), 1);
    assert_eq!(server.counters().accepted(), high_water as u64);

    // Draining reopens admission: resume, wait for the queue to empty,
    // and the same submit now succeeds.
    server.resume();
    let ticket = loop {
        match server.submit(Request::Insert(1, 99)) {
            Ok(t) => break t,
            Err(SubmitError::Rejected { retry_after, .. }) => std::thread::sleep(retry_after),
            Err(SubmitError::Closed(_)) => panic!("server closed unexpectedly"),
        }
    };
    // The first paused insert won the key; this one must report a duplicate.
    assert_eq!(ticket.wait(), Response::Flag(false));
}

/// A session-level operation retries through rejection transparently:
/// while the server is saturated it backs off by the server's
/// retry-after, and once capacity frees the operation completes. The
/// session reports how many times it was pushed back.
#[test]
fn session_retries_honor_retry_after() {
    let _watchdog = testkit::stress_watchdog("serve_backpressure::session_retries");
    let server = server_with(
        ServeConfig::default()
            .with_high_water(1)
            .with_retry_after(Duration::from_micros(200)),
    );
    server.pause();
    // Saturate the single admission slot of key 1's shard.
    let filler = server.submit(Request::Get(1)).expect("first submit fits");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut session = server.session();
            // Blocks in the retry loop until the server drains.
            let fresh = session.insert(1, 7);
            (fresh, session.rejections())
        });
        // Give the session time to hit the full queue at least once,
        // then open the floodgates.
        while server.counters().rejected() == 0 {
            std::thread::yield_now();
        }
        server.resume();
        let (fresh, rejections) = handle.join().expect("session thread");
        assert!(fresh, "insert must eventually land");
        assert!(
            rejections >= 1,
            "the session must have been pushed back at least once"
        );
    });
    assert_eq!(filler.wait(), Response::Value(None));
    assert!(server.counters().rejected() >= 1);
}

// ---- Graceful shutdown -------------------------------------------------

/// Shutdown drains: requests queued on a paused server are all
/// executed and answered before shutdown returns, and the recovered
/// forest reflects them.
#[test]
fn shutdown_drains_queued_requests() {
    let server = server_with(ServeConfig::default());
    server.pause();
    let tickets: Vec<_> = (0..16u64)
        .map(|k| {
            server
                .submit(Request::Insert(k, k * 10))
                .expect("queue is large enough")
        })
        .collect();
    assert!(
        tickets.iter().all(|t| !t.is_ready()),
        "the server is paused"
    );

    // Shutdown resumes paused queues, closes admission, and joins the
    // workers only after every queued request is answered.
    server.shutdown();
    for (k, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(
            ticket.wait(),
            Response::Flag(true),
            "queued insert {k} must be executed during drain"
        );
    }
    assert_eq!(server.counters().acked_writes(), 16);

    match server.submit(Request::Get(1)) {
        Err(SubmitError::Closed(req)) => assert_eq!(req, Request::Get(1)),
        other => panic!("post-shutdown submit must report Closed, got {other:?}"),
    }

    let mut forest = server.into_forest();
    assert_eq!(forest.to_vec_quiescent().len(), 16);
}

/// The zero-acked-write-loss replay check: concurrent clients hammer
/// disjoint key blocks with seeded insert/remove streams while recording
/// every acknowledgment; shutdown races the tail of the traffic; then
/// replaying each client's acked stream against a `BTreeMap` model must
/// reproduce the recovered forest exactly. Disjoint blocks make each
/// client's replay a total order, so the expected final state is exact —
/// any acked-but-dropped write (or dropped-but-acked remove) diverges.
#[test]
fn shutdown_loses_zero_acked_writes() {
    let _watchdog = testkit::stress_watchdog("serve_backpressure::zero_acked_write_loss");
    const CLIENTS: u64 = 4;
    const BLOCK: u64 = 64;
    const OPS: u64 = 400;

    let server = server_with(ServeConfig::default().with_batch_max(4));
    let models: Vec<BTreeMap<u64, u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    let mut session = server.session();
                    let mut rng = testkit::SplitMix64::new(0x5E_5000 + c);
                    let mut model = BTreeMap::new();
                    for _ in 0..OPS {
                        let key = c * BLOCK + rng.below(BLOCK);
                        if rng.below(2) == 0 {
                            let value = rng.next_u64();
                            if session.insert(key, value) {
                                model.insert(key, value);
                            }
                        } else if session.remove(&key) {
                            model.remove(&key);
                        }
                    }
                    model
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total_writes: u64 = server.counters().acked_writes();
    let mut forest = server.into_forest();
    let mut expected: Vec<(u64, u64)> = models.into_iter().flatten().collect();
    expected.sort_unstable();
    assert_eq!(
        forest.to_vec_quiescent(),
        expected,
        "recovered forest must equal the replay of every acked write"
    );
    forest
        .validate_structure()
        .unwrap_or_else(|v| panic!("forest invariant violation after drain: {v:?}"));
    // Sanity: the run actually exercised the write path.
    assert!(total_writes >= CLIENTS * OPS / 4);
}

/// Shutdown is idempotent and `Drop` is safe after it: double shutdown,
/// then drop, without touching the (already recovered) forest.
#[test]
fn shutdown_is_idempotent() {
    let server = server_with(ServeConfig::default());
    {
        let mut session = server.session();
        assert!(session.insert(3, 33));
    }
    server.shutdown();
    server.shutdown();
    drop(server);
}
