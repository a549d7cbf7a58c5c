//! The combining rules of `citrus-serve`, pinned deterministically.
//!
//! The server owns no thread: a submitter that finds its shard idle runs
//! its own request and then serves at most `batch_max` requests that
//! queued behind it. It then releases the shard and wakes the oldest
//! queued request whose holder is blocked in `wait`; any unresolved
//! ticket's `wait`/`is_ready`/drop also takes over an idle shard with
//! queued work. A request whose ticket was dropped is still executed,
//! and a request that panics in a combining pass panics in its own
//! ticket's `wait`, not on the combiner.
//!
//! To make "the shard is busy" exact instead of racy, the value type's
//! `Clone` can be armed to block on a gate: a `get` clones its value
//! while holding the executor, so an armed `get` holds the shard until
//! the test opens the gate, and everything submitted meanwhile queues.

use citrus_repro::citrus_api::{testkit, ConcurrentMap, MapSession};
use citrus_repro::citrus_serve::{Request, Response, ServeConfig, Server, Ticket};
use citrus_repro::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A one-shot gate: once armed, the next clone of a [`Gated`] value
/// blocks until the holder of `hold` lets go.
#[derive(Debug, Default)]
struct Gate {
    armed: AtomicBool,
    hold: Mutex<()>,
}

impl Gate {
    /// Arms the gate and returns the guard that keeps it shut.
    fn arm(&self) -> MutexGuard<'_, ()> {
        let guard = self.hold.lock().unwrap_or_else(PoisonError::into_inner);
        self.armed.store(true, Ordering::SeqCst);
        guard
    }

    /// Whether an armed clone has started blocking.
    fn tripped(&self) -> bool {
        !self.armed.load(Ordering::SeqCst)
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
        if self.gate.armed.swap(false, Ordering::SeqCst) {
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

/// A one-shard server, so every request meets on the same executor.
fn one_shard(batch_max: usize) -> Server<u64, Gated> {
    Server::with_config(
        CitrusForest::with_config(1, 0x5EED, ReclaimMode::Epoch),
        ServeConfig::default().with_batch_max(batch_max),
    )
}

fn value(resp: Response<u64, Gated>) -> Option<u64> {
    match resp {
        Response::Value(v) => v.map(|g| g.value),
        other => panic!("expected a value, got {other:?}"),
    }
}

/// Runs `get(key)` on another thread and holds the shard's executor
/// inside it while `busy` runs on this thread; returns what `busy`
/// returned once that `get` has come back with the value.
fn while_shard_is_held<T>(
    server: &Server<u64, Gated>,
    gate: &Gate,
    key: u64,
    busy: impl FnOnce() -> T,
) -> T {
    let guard = gate.arm();
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| server.submit(Request::Get(key)).map(|t| t.wait()));
        while !gate.tripped() {
            std::thread::yield_now();
        }
        let out = busy();
        drop(guard);
        let resp = holder.join().expect("holder thread").expect("admitted");
        assert_eq!(value(resp), Some(key * 10), "the holder's own get");
        out
    })
}

/// A one-shard server holding `key * 10` under each key of `keys`.
fn one_shard_with(
    batch_max: usize,
    gate: &Arc<Gate>,
    keys: std::ops::Range<u64>,
) -> Server<u64, Gated> {
    let server = one_shard(batch_max);
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

/// The combiner's `submit` returns after serving exactly `batch_max`
/// queued requests. With no holder blocked, the shard waits for the next
/// ticket to act: its `is_ready` takes over, from the front of the queue.
#[test]
fn combiner_serves_at_most_batch_max_then_hands_off() {
    let _watchdog = testkit::stress_watchdog("serve_combining::hand_off");
    let gate = Arc::new(Gate::default());
    let server = one_shard_with(2, &gate, 0..8);
    let tickets = while_shard_is_held(&server, &gate, 0, || {
        let tickets: Vec<_> = (1..=5u64)
            .map(|k| server.submit(Request::Get(k)).expect("admitted"))
            .collect();
        assert_eq!(server.queue_len(0), 5, "a held shard queues everything");
        tickets
    });
    // The holder served two queued requests for others, then stopped.
    assert_eq!(server.counters().most_served_for_others(), 2);
    assert_eq!(server.queue_len(0), 3);
    assert!(tickets[0].is_ready() && tickets[1].is_ready());
    // The fourth ticket's poll takes over and runs a bounded pass from
    // the front: the third request, then its own.
    assert!(tickets[3].is_ready());
    assert_eq!(server.queue_len(0), 1);
    assert!(tickets[2].is_ready());
    let mut tickets = tickets.into_iter();
    for k in 1..=4u64 {
        assert_eq!(value(tickets.next().unwrap().wait()), Some(k * 10));
    }
    // The last one is still queued; its `wait` takes over.
    assert_eq!(value(tickets.next().unwrap().wait()), Some(50));
    assert_eq!(server.queue_len(0), 0);
    assert_eq!(server.counters().most_served_for_others(), 2);
    let c = server.counters();
    assert_eq!(c.executed(), c.accepted());
}

/// A holder blocked on a later ticket is not stranded behind its own
/// earlier ticket, which it does not touch while it waits: with
/// `batch_max(1)` the combiner serves one request and releases, and the
/// blocked holder takes over, serving the earlier request first.
#[test]
fn waiting_on_a_later_ticket_first_does_not_hang() {
    let _watchdog = testkit::stress_watchdog("serve_combining::later_first");
    let gate = Arc::new(Gate::default());
    let server = one_shard_with(1, &gate, 0..4);
    let guard = gate.arm();
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| server.submit(Request::Get(0)).map(|t| t.wait()));
        while !gate.tripped() {
            std::thread::yield_now();
        }
        let other = scope.spawn(|| server.submit(Request::Get(1)).map(|t| t.wait()));
        while server.queue_len(0) < 1 {
            std::thread::yield_now();
        }
        let first = server.submit(Request::Get(2)).expect("admitted");
        let second = server.submit(Request::Get(3)).expect("admitted");
        assert_eq!(server.queue_len(0), 3);
        let waiter = scope.spawn(move || second.wait());
        // Let the shard go while `waiter` waits (or is about to) and
        // nobody touches `first`.
        drop(guard);
        assert_eq!(value(waiter.join().expect("waiter")), Some(30));
        // `first` was never touched, yet it ran, ahead of `second`.
        assert_eq!(server.queue_len(0), 0);
        assert_eq!(value(first.wait()), Some(20));
        let other = other.join().expect("other").expect("admitted");
        assert_eq!(value(other), Some(10));
        let held = holder.join().expect("holder").expect("admitted");
        assert_eq!(value(held), Some(0));
    });
    assert_eq!(server.counters().most_served_for_others(), 1);
}

/// A queued request that panics in a combining pass panics in its own
/// ticket's `wait`. The combiner's caller returns normally, and the
/// requests queued behind the panicking one still execute.
#[test]
fn a_panicking_request_panics_in_its_own_wait() {
    let _watchdog = testkit::stress_watchdog("serve_combining::panic");
    let gate = Arc::new(Gate::default());
    let server = one_shard_with(4, &gate, 0..4);
    let boom = Gated {
        value: EXPLODES,
        gate: Arc::clone(&gate),
    };
    assert!(server.session().insert(9, boom));
    let (victim, after) = while_shard_is_held(&server, &gate, 0, || {
        let victim = server.submit(Request::Get(9)).expect("admitted");
        let after = server.submit(Request::Get(1)).expect("admitted");
        (victim, after)
    });
    // `while_shard_is_held` joined the combiner without a panic.
    assert_eq!(server.queue_len(0), 0);
    assert!(victim.is_ready() && after.is_ready());
    assert_eq!(value(after.wait()), Some(10));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| victim.wait()));
    let payload = caught.expect_err("the victim's wait resumes its panic");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(message.contains("exploding"), "{message}");
    // The shard still serves reads and writes.
    let mut s = server.session();
    assert!(s.remove(&9));
    assert_eq!(s.get(&2).map(|g| g.value), Some(20));
    assert!(s.insert(
        5,
        Gated {
            value: 50,
            gate: Arc::clone(&gate),
        }
    ));
}

/// Queued requests whose tickets were dropped are still executed, even
/// though nobody waits to take the shard over: the combiner runs them
/// itself, past its bound. `acked_writes` counts them exactly.
#[test]
fn dropped_tickets_still_execute_and_acked_writes_stay_exact() {
    let _watchdog = testkit::stress_watchdog("serve_combining::dropped");
    let gate = Arc::new(Gate::default());
    let server = one_shard(1);
    let gated = |value| Gated {
        value,
        gate: Arc::clone(&gate),
    };
    assert!(server.session().insert(0, gated(0)));
    while_shard_is_held(&server, &gate, 0, || {
        for k in 1..=3u64 {
            drop(
                server
                    .submit(Request::Insert(k, gated(k * 10)))
                    .expect("admitted"),
            );
        }
        assert_eq!(server.queue_len(0), 3);
    });
    assert_eq!(server.queue_len(0), 0, "nothing is stranded");
    assert_eq!(
        server.counters().most_served_for_others(),
        3,
        "with nobody to hand off to, the combiner ran them all"
    );
    assert_eq!(server.counters().acked_writes(), 4);
    let forest = server.into_forest();
    let mut s = forest.session();
    for k in 1..=3u64 {
        assert_eq!(
            s.get(&k).map(|g| g.value),
            Some(k * 10),
            "dropped insert {k}"
        );
    }
}

/// Four clients hammer one key, so every request meets on one shard:
/// every call returns, no combining pass serves more than `batch_max`
/// requests for others, and the counters balance.
#[test]
fn four_clients_on_one_key_all_return_within_the_bound() {
    let _watchdog = testkit::stress_watchdog("serve_combining::hammer");
    const CLIENTS: u64 = 4;
    const OPS: u64 = 2_000;
    let batch_max = 3;
    let server: Server<u64, u64> = Server::with_config(
        CitrusForest::with_config(4, 0x5EED, ReclaimMode::Epoch),
        ServeConfig::default().with_batch_max(batch_max),
    );
    let writes: u64 = std::thread::scope(|scope| {
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
                    writes
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let c = server.counters();
    assert_eq!(c.accepted(), CLIENTS * OPS);
    assert_eq!(c.executed(), CLIENTS * OPS, "every call returned");
    assert_eq!(c.acked_writes(), writes);
    assert!(
        c.most_served_for_others() <= batch_max as u64,
        "a combining pass served {} requests for others (bound {batch_max})",
        c.most_served_for_others()
    );
    println!(
        "passes {}, requests {}, most served for others in one pass {}",
        c.batches(),
        c.executed(),
        c.most_served_for_others()
    );
    assert_eq!(server.queue_len(server.shard_for(&7)), 0);
}

/// A ticket leaked with `mem::forget` never acts for its request, and
/// tickets nobody polls do not either: a combiner that stops at its bound
/// releases with them queued, and they stay queued. The next submit to
/// the shard runs them from the front, up to its bound, and shutdown
/// drains the rest. No acknowledged write is lost.
#[test]
fn leaked_ticket_leaves_work_for_the_next_submit_and_shutdown() {
    let _watchdog = testkit::stress_watchdog("serve_combining::leaked");
    let gate = Arc::new(Gate::default());
    let server = one_shard_with(2, &gate, 0..1);
    let insert = |k: u64| {
        let v = Gated {
            value: k * 10,
            gate: Arc::clone(&gate),
        };
        server.submit(Request::Insert(k, v)).expect("admitted")
    };
    // Reads a ticket's state through `Debug`, which never takes over.
    let ready = |t: &Ticket<u64, Gated>| format!("{t:?}").contains("ready: true");
    let flag = |t: Ticket<u64, Gated>| matches!(t.wait(), Response::Flag(true));
    let mut tickets = while_shard_is_held(&server, &gate, 0, || {
        let mut tickets = vec![insert(1), insert(2)];
        std::mem::forget(insert(3));
        tickets.extend((4..=6).map(insert));
        assert_eq!(server.queue_len(0), 6);
        tickets
    });
    // The holder served inserts 1 and 2, then released: the leaked ticket
    // and the unpolled ones all still "hold" their requests.
    assert!(ready(&tickets[0]) && ready(&tickets[1]));
    assert_eq!(server.queue_len(0), 4, "queued work stays queued");
    assert!(!tickets[2..].iter().any(ready), "nobody acted for 4–6");
    // The next submit takes the idle shard and runs the queue from the
    // front within its bound: the leaked insert 3, then insert 4.
    std::mem::forget(insert(7));
    assert_eq!(server.queue_len(0), 3);
    assert!(ready(&tickets[2]));
    assert!(!ready(&tickets[3]) && !ready(&tickets[4]));
    // Shutdown drains inserts 5, 6 and the leaked 7.
    server.shutdown();
    assert_eq!(server.queue_len(0), 0);
    assert!(tickets.iter().all(ready));
    assert!(tickets.drain(..).all(flag));
    let c = server.counters();
    assert_eq!(c.executed(), c.accepted());
    assert_eq!(c.acked_writes(), 8, "the prefill and seven inserts");
    let forest = server.into_forest();
    let mut s = forest.session();
    for k in 1..=7u64 {
        assert_eq!(s.get(&k).map(|g| g.value), Some(k * 10), "insert {k}");
    }
}
