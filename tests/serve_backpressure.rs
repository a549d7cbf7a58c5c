//! Admission, shutdown and isolation semantics of `citrus-serve`, pinned
//! by deterministic tests: a request never waits for another client's
//! request on its shard, admission control rejects exactly at the
//! high-water mark and returns the request for retry, sessions honor the
//! server's retry-after back-off, graceful shutdown waits for every
//! request in flight, and — the load-bearing guarantee — **no
//! acknowledged write is ever lost**: everything a client saw acked is
//! present in (or absent from) the forest recovered after shutdown,
//! verified by replaying the acked stream against a model.
//!
//! Determinism comes from held requests: the value type's `Clone` can be
//! armed to block on a [`Gate`], and a `get` clones its value while it
//! runs, so an armed `get` stays in flight until the test opens the gate.
//! In-flight counts are then exact functions of the requests issued.

use citrus_repro::citrus_api::{testkit, ConcurrentMap, MapSession};
use citrus_repro::citrus_serve::{Request, Response, ServeConfig, Server, SubmitError};
use citrus_repro::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Once armed for `n` clones, the next `n` clones of [`Gated`] values
/// block until the holder of `hold` lets go.
#[derive(Debug, Default)]
struct Gate {
    armed: AtomicUsize,
    hold: Mutex<()>,
}

impl Gate {
    /// Arms the gate for `clones` clones and returns the guard that keeps
    /// it shut.
    fn arm(&self, clones: usize) -> MutexGuard<'_, ()> {
        let guard = self.hold.lock().unwrap_or_else(PoisonError::into_inner);
        self.armed.store(clones, Ordering::SeqCst);
        guard
    }

    /// Whether every armed clone has started blocking.
    fn tripped(&self) -> bool {
        self.armed.load(Ordering::SeqCst) == 0
    }

    /// Waits until every armed clone has started blocking.
    fn wait_tripped(&self) {
        while !self.tripped() {
            std::thread::yield_now();
        }
    }
}

/// A value whose clone can be made to block (see [`Gate`]), or, for the
/// value `EXPLODES`, to panic.
#[derive(Debug)]
struct Gated {
    value: u64,
    gate: Arc<Gate>,
}

/// The value whose clone panics.
const EXPLODES: u64 = 666;

impl Clone for Gated {
    fn clone(&self) -> Self {
        assert_ne!(self.value, EXPLODES, "cloned an exploding value");
        let armed = &self.gate.armed;
        if armed
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            drop(
                self.gate
                    .hold
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
        Self {
            value: self.value,
            gate: Arc::clone(&self.gate),
        }
    }
}

/// A one-shard server, so every request meets on the same shard, holding
/// `key * 10` under each key of `keys`.
fn one_shard_with(
    config: ServeConfig,
    gate: &Arc<Gate>,
    keys: std::ops::Range<u64>,
) -> Server<u64, Gated> {
    let server = Server::with_config(
        CitrusForest::with_config(1, 0x5EED, ReclaimMode::Epoch),
        config,
    );
    {
        let mut s = server.session();
        for k in keys {
            let v = Gated {
                value: k * 10,
                gate: Arc::clone(gate),
            };
            assert!(s.insert(k, v));
        }
    }
    server
}

fn value(v: Option<Gated>) -> Option<u64> {
    v.map(|g| g.value)
}

fn server_with(config: ServeConfig) -> Server<u64, u64> {
    Server::with_config(
        CitrusForest::with_config(2, 0x5EED, ReclaimMode::Epoch),
        config,
    )
}

// ---- Isolation -----------------------------------------------------------

/// The forest's reads never wait, and the server must not make them:
/// while client A's `get` is held in flight on the only shard, client B's
/// `get` and `contains` on that shard return. A server that runs a
/// shard's requests one at a time hangs here until the watchdog fires.
#[test]
fn a_request_does_not_wait_for_another_clients_request_on_its_shard() {
    let _watchdog = testkit::stress_watchdog("serve_backpressure::no_waiting");
    let gate = Arc::new(Gate::default());
    let server = one_shard_with(ServeConfig::default(), &gate, 0..4);
    let guard = gate.arm(1);
    std::thread::scope(|scope| {
        let a = scope.spawn(|| value(server.session().get(&0)));
        gate.wait_tripped();
        let mut b = server.session();
        assert_eq!(value(b.get(&1)), Some(10));
        assert!(b.contains(&2));
        assert_eq!(value(b.get(&9)), None);
        assert_eq!(server.queue_len(0), 1, "A is still in flight");
        drop(guard);
        assert_eq!(a.join().expect("client A"), Some(0));
    });
    assert_eq!(server.queue_len(0), 0);
}

// ---- Admission control -------------------------------------------------

/// With `high_water` requests held in flight, the shard rejects the next
/// one, reporting the configured retry-after and the observed in-flight
/// count, and handing the request back intact for retry.
#[test]
fn rejects_exactly_at_high_water() {
    let _watchdog = testkit::stress_watchdog("serve_backpressure::high_water");
    let high_water = 3;
    let gate = Arc::new(Gate::default());
    let server = one_shard_with(
        ServeConfig::default().with_high_water(high_water),
        &gate,
        0..4,
    );
    let prefill = server.counters().accepted();
    let guard = gate.arm(high_water);
    std::thread::scope(|scope| {
        let held: Vec<_> = (0..high_water as u64)
            .map(|k| {
                let server = &server;
                scope.spawn(move || value(server.session().get(&k)))
            })
            .collect();
        gate.wait_tripped();
        assert_eq!(server.queue_len(0), high_water);

        match server.submit(Request::Get(3)) {
            Err(SubmitError::Rejected {
                req,
                retry_after,
                depth,
            }) => {
                assert!(
                    matches!(req, Request::Get(3)),
                    "request comes back for retry"
                );
                assert_eq!(retry_after, server.config().retry_after);
                assert_eq!(depth, high_water, "rejection reports the full shard");
            }
            other => panic!("expected rejection at high water, got {other:?}"),
        }
        assert_eq!(server.counters().rejected(), 1);
        assert_eq!(server.counters().accepted(), prefill + high_water as u64);

        // Finishing the held requests reopens admission.
        drop(guard);
        for (k, h) in held.into_iter().enumerate() {
            assert_eq!(h.join().expect("held client"), Some(k as u64 * 10));
        }
    });
    assert_eq!(server.queue_len(0), 0);
    match server.submit(Request::Get(3)).map(|t| t.wait()) {
        Ok(Response::Value(v)) => assert_eq!(value(v), Some(30)),
        other => panic!("expected the retried get to run, got {other:?}"),
    }
}

/// A session-level operation retries through rejection transparently:
/// while its shard is full it backs off by the server's retry-after, and
/// once the held request finishes the operation completes. The session
/// reports how many times it was pushed back.
#[test]
fn session_retries_honor_retry_after() {
    let _watchdog = testkit::stress_watchdog("serve_backpressure::session_retries");
    let gate = Arc::new(Gate::default());
    let server = one_shard_with(
        ServeConfig::default()
            .with_high_water(1)
            .with_retry_after(Duration::from_micros(200)),
        &gate,
        0..1,
    );
    let guard = gate.arm(1);
    std::thread::scope(|scope| {
        // Fills the shard's single admission slot.
        let held = scope.spawn(|| value(server.session().get(&0)));
        gate.wait_tripped();
        let retrier = scope.spawn(|| {
            let mut session = server.session();
            // Retries until the held request finishes.
            let fresh = session.insert(
                1,
                Gated {
                    value: 7,
                    gate: Arc::clone(&gate),
                },
            );
            (fresh, session.rejections())
        });
        // Let the session hit the full shard at least once, then let the
        // held request go.
        while server.counters().rejected() == 0 {
            std::thread::yield_now();
        }
        drop(guard);
        let (fresh, rejections) = retrier.join().expect("session thread");
        assert!(fresh, "insert must eventually land");
        assert!(
            rejections >= 1,
            "the session must have been pushed back at least once"
        );
        assert_eq!(held.join().expect("held client"), Some(0));
    });
    assert!(server.counters().rejected() >= 1);
}

// ---- Graceful shutdown -------------------------------------------------

/// Shutdown waits for requests in flight: with one client's `get` held,
/// admission closes at once (later submits get `Closed`, with the request
/// handed back) but `shutdown` returns only after the held request has
/// finished and answered. That client's next request is refused too.
#[test]
fn shutdown_drains_queued_requests() {
    let _watchdog = testkit::stress_watchdog("serve_backpressure::shutdown_drains");
    let gate = Arc::new(Gate::default());
    let server = one_shard_with(ServeConfig::default(), &gate, 0..16);
    let shut = AtomicBool::new(false);
    let guard = gate.arm(1);
    std::thread::scope(|scope| {
        let held = scope.spawn(|| {
            let mut session = server.session();
            let got = value(session.get(&3));
            (got, session.try_call(Request::Remove(3)).is_err())
        });
        gate.wait_tripped();
        let shutdown = scope.spawn(|| {
            server.shutdown();
            shut.store(true, Ordering::SeqCst);
        });
        // Reads until shutdown has closed admission.
        loop {
            match server.submit(Request::Get(4)) {
                Err(SubmitError::Closed(req)) => {
                    assert!(matches!(req, Request::Get(4)), "request comes back");
                    break;
                }
                Ok(_) => std::thread::yield_now(),
                Err(SubmitError::Rejected { .. }) => panic!("the shard is not full"),
            }
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !shut.load(Ordering::SeqCst),
            "shutdown returned while a request was in flight"
        );
        drop(guard);
        shutdown.join().expect("shutdown thread");
        let (got, refused) = held.join().expect("held client");
        assert_eq!(got, Some(30), "the held request finished and answered");
        assert!(refused, "a request after shutdown is refused");
    });
    assert!(shut.load(Ordering::SeqCst));
    let c = server.counters();
    assert_eq!(c.executed(), c.accepted());
    assert_eq!(c.acked_writes(), 16, "only the prefill's inserts ran");

    let mut forest = server.into_forest();
    assert_eq!(forest.to_vec_quiescent().len(), 16);
}

/// The zero-acked-write-loss replay check: concurrent clients hammer
/// disjoint key blocks with seeded insert/remove streams while recording
/// every acknowledgment; then replaying each client's acked stream
/// against a `BTreeMap` model must reproduce the recovered forest
/// exactly. Disjoint blocks make each client's replay a total order, so
/// the expected final state is exact — any acked-but-dropped write (or
/// dropped-but-acked remove) diverges.
#[test]
fn shutdown_loses_zero_acked_writes() {
    let _watchdog = testkit::stress_watchdog("serve_backpressure::zero_acked_write_loss");
    const CLIENTS: u64 = 4;
    const BLOCK: u64 = 64;
    const OPS: u64 = 400;

    let server = server_with(ServeConfig::default());
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

// ---- Failure and contention ----------------------------------------------

/// A request that panics panics on the client that made it, through a
/// session or through `submit`. Its shard's in-flight count is given back
/// on the unwind, so the shard keeps serving and shutdown returns.
#[test]
fn a_panicking_request_panics_on_its_own_client() {
    let _watchdog = testkit::stress_watchdog("serve_backpressure::panic");
    let gate = Arc::new(Gate::default());
    let server = one_shard_with(ServeConfig::default(), &gate, 0..4);
    let boom = Gated {
        value: EXPLODES,
        gate: Arc::clone(&gate),
    };
    assert!(server.session().insert(9, boom));
    let message = |payload: Box<dyn std::any::Any + Send>| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    };
    let caught = catch_unwind(AssertUnwindSafe(|| server.session().get(&9)));
    let payload = caught.expect_err("the session's get panics");
    assert!(message(payload).contains("exploding"));
    let caught = catch_unwind(AssertUnwindSafe(|| server.submit(Request::Get(9))));
    let payload = caught.expect_err("the submit panics");
    assert!(message(payload).contains("exploding"));
    assert_eq!(server.queue_len(0), 0, "the unwinds gave their counts back");
    // The shard still serves reads and writes, by both entry points.
    let mut s = server.session();
    assert!(s.remove(&9));
    assert_eq!(value(s.get(&2)), Some(20));
    match server.submit(Request::Get(1)).map(|t| t.wait()) {
        Ok(Response::Value(v)) => assert_eq!(value(v), Some(10)),
        other => panic!("expected a value, got {other:?}"),
    }
    drop(s);
    server.shutdown();
}

/// Four clients hammer one key, so every request meets on one shard:
/// every call returns, the counters balance, and the shard's in-flight
/// count ends at zero.
#[test]
fn four_clients_on_one_key_all_return_and_counters_balance() {
    let _watchdog = testkit::stress_watchdog("serve_backpressure::hammer");
    const CLIENTS: u64 = 4;
    const OPS: u64 = 2_000;
    let server = server_with(ServeConfig::default().with_high_water(2));
    let (writes, rejections): (u64, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    let mut session = server.session();
                    let mut rng = testkit::SplitMix64::new(0x5E_8000 + c);
                    let mut writes = 0;
                    for i in 0..OPS {
                        match rng.below(3) {
                            0 => {
                                session.insert(7, c * OPS + i);
                                writes += 1;
                            }
                            1 => {
                                session.remove(&7);
                                writes += 1;
                            }
                            _ => {
                                let _ = session.get(&7);
                            }
                        }
                    }
                    (writes, session.rejections())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .fold((0, 0), |(w, r), (cw, cr)| (w + cw, r + cr))
    });
    let c = server.counters();
    assert_eq!(c.accepted(), CLIENTS * OPS);
    assert_eq!(c.executed(), CLIENTS * OPS, "every call returned");
    assert_eq!(c.acked_writes(), writes);
    assert_eq!(c.rejected(), rejections, "every rejection was retried");
    assert_eq!(server.queue_len(server.shard_for(&7)), 0);
}
