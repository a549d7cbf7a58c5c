//! Thread/session churn through the serve boundary (ROADMAP item 4
//! slice): waves of client threads open sessions (each registers its own
//! forest session), hammer the server, and die mid-run, while another
//! client submits through the server's shared session and drops every
//! ticket unread.
//!
//! The invariants: the server never wedges or panics under churn, every
//! acknowledged write survives into the recovered forest (replay check,
//! as in `tests/serve_backpressure.rs`), and dropped tickets lose nothing
//! and block nothing.

use citrus_repro::citrus_api::{testkit, ConcurrentMap, MapSession, OrderedMapSession};
use citrus_repro::citrus_serve::{Request, Server};
use citrus_repro::prelude::*;
use std::collections::BTreeMap;

const WAVES: u64 = 3;
const WRITERS_PER_WAVE: u64 = 3;
const OPS_PER_CLIENT: u64 = 120;
const BLOCK: u64 = 24;

/// One writer client: a short-lived thread with its own session, a
/// private key block (so its acked stream replays to an exact model),
/// and a mixed get/insert/remove/scan workload.
fn writer(server: &Server<u64, u64>, block: u64, seed: u64) -> BTreeMap<u64, u64> {
    let mut session = server.session();
    let mut rng = testkit::SplitMix64::new(seed);
    let mut model = BTreeMap::new();
    let base = block * BLOCK;
    for _ in 0..OPS_PER_CLIENT {
        let key = base + rng.below(BLOCK);
        match rng.below(5) {
            0 | 1 => {
                let value = rng.next_u64();
                if session.insert(key, value) {
                    model.insert(key, value);
                }
            }
            2 => {
                if session.remove(&key) {
                    model.remove(&key);
                }
            }
            3 => {
                // A read of our own block must agree with the model:
                // no other client writes here.
                assert_eq!(session.get(&key), model.get(&key).copied(), "key {key}");
            }
            _ => {
                // Scans cross every client's block; just exercise them.
                let lo = rng.below(WAVES * WRITERS_PER_WAVE * BLOCK);
                let _ = session.range_scan(&lo, &(lo + 16));
            }
        }
    }
    model
}

/// A disconnecting client: submits read requests and drops the tickets
/// without ever reading them — then dies.
fn dropper(server: &Server<u64, u64>, seed: u64) {
    let mut rng = testkit::SplitMix64::new(seed);
    for _ in 0..OPS_PER_CLIENT {
        let key = rng.below(WAVES * WRITERS_PER_WAVE * BLOCK);
        let _abandoned = server.submit(Request::Get(key));
    }
}

#[test]
fn client_churn_loses_no_acked_writes() {
    let _watchdog = testkit::stress_watchdog("serve_churn::client_churn");
    let server: Server<u64, u64> =
        Server::new(CitrusForest::with_config(4, 0x5EED, ReclaimMode::Epoch));

    let mut models: Vec<BTreeMap<u64, u64>> = Vec::new();
    for wave in 0..WAVES {
        // Each wave spawns a fresh set of clients and joins them all
        // before the next — registration and death mid-run, repeatedly.
        let wave_models: Vec<BTreeMap<u64, u64>> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS_PER_WAVE)
                .map(|c| {
                    let server = &server;
                    let block = wave * WRITERS_PER_WAVE + c;
                    scope.spawn(move || writer(server, block, 0x5E_6000 + block))
                })
                .collect();
            let dr = {
                let server = &server;
                scope.spawn(move || dropper(server, 0x5E_6F00 + wave))
            };
            dr.join().expect("dropper thread");
            writers
                .into_iter()
                .map(|h| h.join().expect("writer thread"))
                .collect()
        });
        models.extend(wave_models);
    }

    let accepted = server.counters().accepted();

    let mut forest = server.into_forest();
    assert_eq!(
        forest.to_vec_quiescent(),
        models
            .into_iter()
            .flatten()
            .collect::<BTreeMap<u64, u64>>()
            .into_iter()
            .collect::<Vec<_>>(),
        "recovered forest must equal the replay of every acked write"
    );
    forest
        .validate_structure()
        .unwrap_or_else(|v| panic!("forest invariant violation after churn: {v:?}"));
    assert!(accepted >= WAVES * (WRITERS_PER_WAVE + 1) * OPS_PER_CLIENT / 2);
}

/// Churn under chaos schedules: the same wave pattern (scaled down) with
/// schedule perturbation installed, swept over `CITRUS_CHAOS_SEEDS`
/// seeds. A no-op without the `chaos` feature; under it, failpoints in
/// the admission and shutdown paths of both clients, each armed with the
/// seed's plan, get yields and spin-delays injected.
#[test]
fn client_churn_under_chaos_schedules() {
    let _watchdog = testkit::stress_watchdog("serve_churn::chaos_schedules");
    let seeds = testkit::chaos_seeds(2);
    for i in 0..seeds {
        let seed = 0x5E_7000u64.wrapping_add(i);
        let chaos = testkit::install_chaos(testkit::ChaosPlan::from_seed(seed));
        let server: Server<u64, u64> =
            Server::new(CitrusForest::with_config(2, seed, ReclaimMode::Epoch));
        let plan = chaos.handle();
        let model = std::thread::scope(|scope| {
            let w = {
                let (server, plan) = (&server, &plan);
                scope.spawn(move || {
                    let _chaos = plan.arm();
                    writer(server, 0, seed)
                })
            };
            let d = {
                let (server, plan) = (&server, &plan);
                scope.spawn(move || {
                    let _chaos = plan.arm();
                    dropper(server, seed ^ 0xD0D)
                })
            };
            d.join().expect("dropper thread");
            w.join().expect("writer thread")
        });
        testkit::assert_workers_armed(&chaos, &format!("serve churn seed {seed:#x}"));
        let mut forest = server.into_forest();
        let expected: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(
            forest.to_vec_quiescent(),
            expected,
            "acked-write replay diverged (seed {seed:#x})"
        );
        forest
            .validate_structure()
            .unwrap_or_else(|v| panic!("forest invariant violation (seed {seed:#x}): {v:?}"));
    }
}
