//! Linearizability *through the server*: the WGL checker
//! (`citrus_api::lincheck`, DESIGN.md §6f) drives `citrus-serve` sessions
//! whose every operation crosses the full client boundary — admission
//! against its shard's in-flight bound, execution on the client's own
//! forest session, and the response back to the caller. A linearizable
//! forest composed with a buggy serving layer is *not* linearizable at
//! this boundary, so these checks cover strictly more than
//! `tests/linearizability.rs` does for the raw structures.
//!
//! The grid covers the hash and range routers, for both the point-op
//! battery and the ordered-read (scan) battery. The
//! checker itself is validated end-to-end too: a planted mutant that acks
//! a write before applying it (`serve/drain/ack-before-apply`) must be
//! rejected with a dumped minimal counterexample, exactly like the
//! `StaleReadMap` adapter in `tests/linearizability.rs`.
//!
//! Knobs: `CITRUS_LIN_THREADS` / `CITRUS_LIN_OPS` bound history width and
//! length, `CITRUS_CHAOS_SEEDS` the sweep width.

use citrus_repro::citrus_api::{lincheck, testkit, ConcurrentMap, OrderedMapSession};
use citrus_repro::citrus_serve::Server;
use citrus_repro::prelude::*;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Mutants are process-global: while the planted-mutant test below runs,
/// every other check in this binary would drive the mutated executor
/// and fail on a bug it never planted. Checks hold this lock shared; the
/// mutant test holds it exclusively.
static MUTANT_SCOPE: RwLock<()> = RwLock::new(());

fn mutant_free() -> RwLockReadGuard<'static, ()> {
    MUTANT_SCOPE.read().unwrap_or_else(PoisonError::into_inner)
}

/// A hash-routed server over `shards` shards.
fn hash_server(shards: usize) -> Server<u64, u64> {
    Server::new(CitrusForest::with_config(
        shards,
        0x5EED,
        ReclaimMode::Epoch,
    ))
}

/// A range-routed server: splitters at 8/16/24 give four shards that
/// cover both the 32-key direct battery and the 16-key sweep range.
fn range_server() -> Server<u64, u64> {
    Server::new(CitrusForest::with_range_router_config(
        vec![8, 16, 24],
        ReclaimMode::Epoch,
    ))
}

/// One direct check plus a chaos-seed sweep, as in
/// `tests/linearizability.rs` — every op crossing the serve boundary.
fn lin_battery<M: ConcurrentMap<u64, u64>>(make: impl Fn() -> M, base_seed: u64) {
    let _clean = mutant_free();
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
    let _clean = mutant_free();
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

// ---- Point ops: {hash, range} -----------------------------------------

#[test]
fn serve_hash_inline() {
    lin_battery(|| hash_server(4), 0x5E_1001);
}

#[test]
fn serve_range_inline() {
    lin_battery(range_server, 0x5E_1003);
}

/// Degenerate single-shard server: every request meets on one shard and
/// one in-flight count — the boundary case where a response-delivery bug
/// is most visible.
#[test]
fn serve_one_shard() {
    lin_battery(|| hash_server(1), 0x5E_1005);
}

// ---- Ordered reads: {hash, range} -------------------------------------

#[test]
fn serve_scan_hash_inline() {
    scan_battery(|| hash_server(4), 0x5E_2001);
}

#[test]
fn serve_scan_range_inline() {
    scan_battery(range_server, 0x5E_2003);
}

// ---- Checker validation: the planted reordered-ack mutant ---------------

/// The planted-bug self-test, mirroring `StaleReadMap` in
/// `tests/linearizability.rs` but end-to-end: the
/// `serve/drain/ack-before-apply` mutant makes a session's executor
/// deliver a write's predicted response *before* applying it to the
/// shard (the apply happens only when the session's next request
/// executes). A client that
/// inserts a key and immediately reads it back sees `insert → true,
/// get → None` — non-linearizable under every schedule — so the WGL
/// checker must reject the server with a dumped minimal counterexample.
///
/// Mutants only exist with the `chaos` cargo feature (`mutant_enabled`
/// is `const false` otherwise), so this test is feature-gated.
#[cfg(feature = "chaos")]
mod planted_mutant {
    use super::*;
    use citrus_repro::citrus_chaos as chaos;
    use citrus_repro::citrus_serve::ServeSession;

    /// Newtype so the checker's failure report names the mutant, not the
    /// healthy server (`NAME` is a const on the map type).
    struct ReorderedAckServe(Server<u64, u64>);

    impl ConcurrentMap<u64, u64> for ReorderedAckServe {
        type Session<'a> = ServeSession<'a, u64, u64>;
        const NAME: &'static str = "serve-reordered-ack";
        fn session(&self) -> Self::Session<'_> {
            self.0.session()
        }
    }

    /// Single shard + single-threaded recording keeps the test fully
    /// deterministic: every interval is totally ordered, so a stashed
    /// write immediately followed by a read of the same key is a
    /// violation under *every* schedule — the rejection is not luck.
    /// (The seed is chosen so the generated stream contains such a
    /// write-then-read pair; the stash applies after the *next* request,
    /// so only an immediately-following read observes the reorder.)
    #[test]
    fn reordered_ack_mutant_is_rejected_with_minimal_counterexample() {
        let _exclusive = MUTANT_SCOPE.write().unwrap_or_else(PoisonError::into_inner);
        let _guard = chaos::enable_mutant("serve/drain/ack-before-apply");
        let failure =
            lincheck::check_linearizable(|| ReorderedAckServe(hash_server(1)), 1, 60, 4, 0x5E_3001)
                .expect_err("the reordered-ack mutant must be rejected");
        let message = failure.to_string();
        assert!(
            message.contains("non-linearizable history for serve-reordered-ack"),
            "unexpected failure report:\n{message}"
        );
        assert!(
            message.contains("minimal non-linearizable sub-history on key"),
            "counterexample must be pretty-printed:\n{message}"
        );
        // The shrinker must reach a small core, not dump the whole
        // workload. Header shape: "... on key(s) K[, K...] (N ops,
        // invocation order):" — the op count lives in the last paren
        // group.
        let ops_line = message
            .lines()
            .find(|l| l.contains("minimal non-linearizable sub-history"))
            .unwrap();
        let n_ops: usize = ops_line
            .rsplit('(')
            .next()
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("counterexample header names its op count");
        assert!(
            n_ops <= 3,
            "counterexample not minimal ({n_ops} ops):\n{message}"
        );

        // The failed run must leave a forensic history dump whose path
        // the report names — read from this check's own failure, not the
        // process-global watchdog slot that parallel checks overwrite.
        let dump = failure
            .dump
            .expect("a failing lincheck run must dump its history");
        assert!(dump.exists(), "dump file {} missing", dump.display());
        let contents = std::fs::read_to_string(&dump).unwrap();
        assert!(
            contents.contains("insert(") && contents.contains("# VERDICT"),
            "dump must contain the history and the appended verdict:\n{contents}"
        );
        assert!(
            message.contains(&dump.display().to_string()),
            "failure report must name the dump path:\n{message}"
        );
        // Expected evidence: a green run leaves no dump behind.
        let _ = std::fs::remove_file(&dump);
    }

    /// With the mutant disarmed the very same server passes — the
    /// rejection above is caused by the planted bug, not by the serve
    /// boundary itself.
    #[test]
    fn same_server_passes_without_the_mutant() {
        let _clean = mutant_free();
        lincheck::check_linearizable(|| hash_server(1), 1, 60, 4, 0x5E_3001)
            .unwrap_or_else(|failure| panic!("{failure}"));
    }
}
