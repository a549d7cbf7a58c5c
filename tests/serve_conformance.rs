//! Server ↔ oracle conformance: a `citrus-serve` front end must be
//! observationally indistinguishable from a single [`CitrusTree`] oracle
//! (itself model-checked against `BTreeMap` in `testkit`), operation for
//! operation, with every operation crossing the full admit → execute →
//! respond path.
//!
//! Each cell runs a seeded agreement stream plus a quiescent audit (the
//! drained forest's contents must equal the oracle's), and chaos-seed
//! sweeps run the whole testkit battery — including the concurrent
//! lost-update and mixed-consistency checks, i.e. concurrent clients —
//! against servers under schedule perturbation at every failpoint
//! (a no-op without the `chaos` cargo feature, so this file is green
//! under default features too). The serve failpoints themselves
//! (`serve/admission/admit`, `serve/admission/reject`,
//! `serve/shutdown/drain`) are coverage-asserted at the bottom.

use citrus_repro::citrus_api::testkit;
use citrus_repro::citrus_serve::Server;
use citrus_repro::prelude::*;

fn hash_server(seed: u64) -> Server<u64, u64> {
    Server::new(CitrusForest::with_config(4, seed, ReclaimMode::Epoch))
}

/// One grid cell: seeded agreement stream against a single-tree oracle,
/// then a quiescent audit of the drained forest. The chaos seed doubles
/// as the stream seed, so a failure replays from the one number in the
/// panic message.
fn agreement_sweep(make: impl Fn() -> Server<u64, u64>, base_seed: u64) {
    let _watchdog = testkit::stress_watchdog("serve_conformance::agreement_sweep");
    for i in 0..testkit::chaos_seeds(3) {
        let seed = base_seed.wrapping_add(i);
        let _chaos = testkit::install_chaos(testkit::ChaosPlan::from_seed(seed));
        let server = make();
        let oracle: CitrusTree<u64, u64> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
        testkit::check_map_agreement(&server, &oracle, 600, 128, seed);

        // Quiescent audit: drain the server (graceful shutdown) and the
        // recovered forest must hold exactly the oracle's entries.
        let mut forest = server.into_forest();
        let mut oracle = oracle;
        assert_eq!(
            forest.to_vec_quiescent(),
            oracle.to_vec_quiescent(),
            "drained server contents diverged from oracle (seed {seed:#x})"
        );
        forest
            .validate_structure()
            .unwrap_or_else(|v| panic!("forest invariant violation (seed {seed:#x}): {v:?}"));
    }
}

// ---- Agreement -------------------------------------------------------

#[test]
fn agree_hash_inline() {
    agreement_sweep(|| hash_server(0x5E_4001), 0x5E_4100);
}

// ---- Chaos-seed sweeps: the full testkit battery (sequential model,
// ---- duplicate inserts, concurrent lost-updates, concurrent mixed
// ---- consistency) through the serve boundary ---------------------------

#[test]
fn chaos_sweep_hash_inline() {
    let _watchdog = testkit::stress_watchdog("serve_conformance::chaos_sweep_hash_inline");
    testkit::sweep_chaos_seeds(
        || hash_server(0x5E_4011),
        0x5E_4500,
        testkit::chaos_seeds(3),
    );
}

// ---- Failpoint coverage ------------------------------------------------

/// The serve failpoints must actually exist and fire: after exercising
/// the admission, rejection, and shutdown paths, all three names must
/// appear in the chaos registry. A renamed or deleted failpoint fails
/// here instead of silently shrinking every chaos sweep above.
/// Registration is by-reach and only happens in `chaos` builds.
#[cfg(feature = "chaos")]
#[test]
fn serve_failpoints_register() {
    use citrus_repro::citrus_api::{testkit, ConcurrentMap, MapSession};
    use citrus_repro::citrus_chaos as chaos;
    use citrus_repro::citrus_serve::{Request, ServeConfig, SubmitError};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// While set, cloning a [`Held`] value spins: a `get` of one stays in
    /// flight.
    static HOLD: AtomicBool = AtomicBool::new(false);

    #[derive(Debug)]
    struct Held;

    impl Clone for Held {
        fn clone(&self) -> Self {
            while HOLD.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            Held
        }
    }

    let _watchdog = testkit::stress_watchdog("serve_conformance::failpoints");
    // Admission: a normal round-trip.
    let server: Server<u64, Held> = Server::with_config(
        CitrusForest::with_config(2, 0x5EED, ReclaimMode::Epoch),
        ServeConfig::default().with_high_water(1),
    );
    assert!(server.session().insert(1, Held));

    // Rejection: hold one `get` in flight on the shard, whose high-water
    // mark is 1, and submit another.
    HOLD.store(true, Ordering::SeqCst);
    let shard = server.shard_for(&1);
    std::thread::scope(|scope| {
        let held = scope.spawn(|| server.session().get(&1).is_some());
        while server.queue_len(shard) == 0 {
            std::thread::yield_now();
        }
        assert!(matches!(
            server.submit(Request::Get(1)),
            Err(SubmitError::Rejected { .. })
        ));
        HOLD.store(false, Ordering::SeqCst);
        assert!(held.join().expect("held client"));
    });

    // Shutdown.
    server.shutdown();

    let points: Vec<&str> = chaos::all_points().iter().map(|p| p.name).collect();
    for name in [
        "serve/admission/admit",
        "serve/admission/reject",
        "serve/shutdown/drain",
    ] {
        assert!(
            points.contains(&name),
            "failpoint {name:?} not registered; reached: {points:?}"
        );
    }
}
