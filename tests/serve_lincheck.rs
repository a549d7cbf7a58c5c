//! Linearizability *through the server*: the WGL checker
//! (`citrus_api::lincheck`, DESIGN.md §6f) drives `citrus-serve` sessions
//! whose every operation crosses the full client boundary — admission
//! against its shard's in-flight bound, execution on the client's own
//! forest session, and the response back to the caller. A linearizable
//! forest composed with a buggy serving layer is *not* linearizable at
//! this boundary, so these checks cover strictly more than
//! `tests/linearizability.rs` does for the raw structures.
//!
//! The grid covers the point-op battery and the ordered-read (scan)
//! battery on hash-routed servers. The checker itself is validated end-to-end too: a planted mutant that acks
//! a write before applying it (`serve/drain/ack-before-apply`) must be
//! rejected by the explorer's linearizability oracle, exactly like the
//! `StaleReadMap` adapter in `tests/linearizability.rs`.
//!
//! Knobs: `CITRUS_LIN_THREADS` / `CITRUS_LIN_OPS` bound history width and
//! length, `CITRUS_CHAOS_SEEDS` the sweep width.

use citrus_repro::citrus_api::{lincheck, testkit, ConcurrentMap, OrderedMapSession};
use citrus_repro::citrus_serve::Server;
use citrus_repro::prelude::*;

/// A hash-routed server over `shards` shards.
fn hash_server(shards: usize) -> Server<u64, u64> {
    Server::new(CitrusForest::with_config(
        shards,
        0x5EED,
        ReclaimMode::Epoch,
    ))
}

/// One direct check plus a chaos-seed sweep, as in
/// `tests/linearizability.rs` — every op crossing the serve boundary.
fn lin_battery<M: ConcurrentMap<u64, u64>>(make: impl Fn() -> M, base_seed: u64) {
    let _watchdog = testkit::stress_watchdog("serve_lincheck::lin_battery");
    let threads = lincheck::lin_threads(4);
    let ops = lincheck::lin_ops(250);
    lincheck::check_linearizable(&make, threads, ops, 32, base_seed)
        .unwrap_or_else(|failure| panic!("{failure}"));
    lincheck::sweep_lincheck_chaos_seeds(
        &make,
        threads,
        (ops / 2).max(50),
        16,
        base_seed ^ 0xC4A0_5000,
        testkit::chaos_seeds(2),
    );
}

/// Ordered-read battery: scans / successor / predecessor requests cross
/// the same boundary as point ops, so a serving bug that reorders a scan
/// against a write shows up here.
fn scan_battery<M>(make: impl Fn() -> M, base_seed: u64)
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
{
    let _watchdog = testkit::stress_watchdog("serve_lincheck::scan_battery");
    let threads = lincheck::lin_threads(3);
    let ops = lincheck::lin_ops(150);
    lincheck::check_linearizable_scans(&make, threads, ops, 16, base_seed)
        .unwrap_or_else(|failure| panic!("{failure}"));
    lincheck::sweep_lincheck_scan_chaos_seeds(
        &make,
        threads,
        (ops / 2).max(50),
        12,
        base_seed ^ 0x5CA_0000,
        testkit::chaos_seeds(2),
    );
}

// ---- Point ops ---------------------------------------------------------

#[test]
fn serve_hash_inline() {
    lin_battery(|| hash_server(4), 0x5E_1001);
}

/// Degenerate single-shard server: every request meets on one shard and
/// one in-flight count — the boundary case where a response-delivery bug
/// is most visible.
#[test]
fn serve_one_shard() {
    lin_battery(|| hash_server(1), 0x5E_1005);
}

// ---- Ordered reads -----------------------------------------------------

#[test]
fn serve_scan_hash_inline() {
    scan_battery(|| hash_server(4), 0x5E_2001);
}

// ---- Checker validation: the planted reordered-ack mutant ---------------

/// The planted-bug self-test, mirroring `StaleReadMap` in
/// `tests/linearizability.rs` but end-to-end: the
/// `serve/drain/ack-before-apply` mutant makes a session's executor
/// deliver a write's predicted response *before* applying it to the
/// shard (the apply happens only after the session's next request). A
/// client that inserts a key and immediately reads it back sees `insert
/// → true, get → None`, which no order of the two explains.
///
/// Mutants only exist with the `chaos` cargo feature (`mutant_enabled`
/// is `const false` otherwise), so these tests are feature-gated.
#[cfg(feature = "chaos")]
mod planted_mutant {
    use super::*;
    use testkit::{explore_schedules, ScenarioOp, ScheduleScenario};

    /// One client inserts a key and reads it back: a single thread, so
    /// the scenario has exactly one schedule and its verdict is not luck.
    fn insert_then_get() -> ScheduleScenario {
        ScheduleScenario::new("serve-insert-then-get")
            .thread(&[ScenarioOp::Insert(7, 70), ScenarioOp::Get(7)])
    }

    #[test]
    fn reordered_ack_mutant_is_rejected_with_minimal_counterexample() {
        let scenario = insert_then_get().mutant("serve/drain/ack-before-apply");
        let report = explore_schedules(|| hash_server(1), &scenario);
        let failure = report
            .failure
            .expect("the reordered-ack mutant must be rejected");
        assert!(
            failure
                .reason
                .contains("non-linearizable history:\nminimal non-linearizable sub-history on key(s) 7 (2 ops"),
            "unexpected failure report:\n{failure}"
        );
        // Expected evidence: a green run leaves no dump behind.
        let dump = report.dump.expect("a failing sweep names its dump");
        std::fs::remove_file(&dump)
            .unwrap_or_else(|e| panic!("named dump {} not removable: {e}", dump.display()));
    }

    /// Without the mutant the very same scenario passes — the rejection
    /// above is caused by the planted bug, not by the serve boundary
    /// itself.
    #[test]
    fn same_server_passes_without_the_mutant() {
        let scenario = insert_then_get();
        explore_schedules(|| hash_server(1), &scenario).assert_clean(scenario.name);
    }
}
