//! Reusable correctness checks for [`ConcurrentMap`] implementations.
//!
//! Every dictionary in this repository (Citrus and the five baselines) runs
//! the same battery:
//!
//! * [`check_sequential_model`] — single-threaded random ops compared
//!   against [`std::collections::BTreeMap`], return value by return value.
//! * [`check_duplicate_inserts`] — the paper's dictionary semantics:
//!   re-inserting a present key fails and preserves the original value.
//! * [`check_lost_updates`] — threads insert / remove disjoint key blocks
//!   concurrently; every update must be visible afterwards.
//! * [`check_partitioned_determinism`] — each thread owns a key partition
//!   and tracks a local model while *other* threads read those keys; since
//!   partitions never overlap, every thread's view of its own keys must be
//!   exactly its model, operation by operation, even mid-flight.
//! * [`check_mixed_quiescent_consistency`] — unrestricted concurrent mix;
//!   afterwards (quiescent) the map must answer queries self-consistently
//!   and contain only keys some thread actually inserted.
//!
//! All randomness comes from a deterministic [`SplitMix64`] so failures
//! reproduce.
//!
//! When a structure exposes internal metrics (the `stats` feature of
//! `citrus-obs`), [`check_counter_dominates`] turns a
//! [`MetricsSnapshot`] into an invariant assertion — e.g. the RCU flavor
//! must have run at least one grace period per two-child delete.

use crate::{ConcurrentMap, MapSession};
use citrus_obs::MetricsSnapshot;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

pub use citrus_chaos::{
    all_points, chaos_enabled, mutant_enabled, replay_recipe, run_schedule, ChaosGuard,
    ChaosHandle, ChaosPlan, ExploreConfig, ExploreReport, ExploredRun, Explorer, ScheduleFailure,
    ScheduleOutcome, SchedulePlan,
};

pub use crate::explore::{
    explore_config, explore_or_replay, explore_schedules, explore_schedules_with, replay_schedule,
    replay_schedule_with, ScenarioOp, ScheduleScenario,
};
pub use crate::lincheck::{check_linearizable, lin_ops, lin_threads, sweep_lincheck_chaos_seeds};

/// Deterministic 64-bit PRNG (SplitMix64), dependency-free.
///
/// # Example
///
/// ```
/// use citrus_api::testkit::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style multiply-shift; bias is negligible for test bounds.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs `ops` random operations single-threaded and compares every return
/// value against `BTreeMap`, then sweeps every key of `key_range`.
/// Returns the final model, for callers that audit the map further.
///
/// # Panics
///
/// Panics on the first divergence from the model; the message names
/// `seed`.
pub fn check_sequential_model<M: ConcurrentMap<u64, u64>>(
    map: &M,
    ops: usize,
    key_range: u64,
    seed: u64,
) -> BTreeMap<u64, u64> {
    let mut rng = SplitMix64::new(seed);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut session = map.session();
    for i in 0..ops {
        let key = rng.below(key_range);
        match rng.below(3) {
            0 => {
                let value = rng.next_u64();
                let expected = !model.contains_key(&key);
                if expected {
                    model.insert(key, value);
                }
                let got = session.insert(key, value);
                assert_eq!(
                    got, expected,
                    "op {i}: insert({key}) diverged from model (seed {seed})"
                );
            }
            1 => {
                let expected = model.remove(&key).is_some();
                let got = session.remove(&key);
                assert_eq!(
                    got, expected,
                    "op {i}: remove({key}) diverged from model (seed {seed})"
                );
            }
            _ => {
                let expected = model.get(&key).copied();
                let got = session.get(&key);
                assert_eq!(
                    got, expected,
                    "op {i}: get({key}) diverged from model (seed {seed})"
                );
            }
        }
    }
    // Final sweep: every model key present with the right value, absent
    // keys absent.
    for k in 0..key_range {
        assert_eq!(
            session.get(&k),
            model.get(&k).copied(),
            "final sweep diverged at key {k} (seed {seed})"
        );
    }
    model
}

/// Runs the same random operation stream against two maps and compares
/// every return value operation-for-operation — the subject must be
/// observationally indistinguishable from the oracle (e.g. a sharded
/// forest against a single tree).
///
/// # Panics
///
/// Panics on the first divergence between subject and oracle.
pub fn check_map_agreement<S, O>(subject: &S, oracle: &O, ops: usize, key_range: u64, seed: u64)
where
    S: ConcurrentMap<u64, u64>,
    O: ConcurrentMap<u64, u64>,
{
    let mut rng = SplitMix64::new(seed);
    let mut subj = subject.session();
    let mut orac = oracle.session();
    for i in 0..ops {
        let key = rng.below(key_range);
        match rng.below(4) {
            0 => {
                let value = rng.next_u64();
                assert_eq!(
                    subj.insert(key, value),
                    orac.insert(key, value),
                    "op {i}: insert({key}) disagreed with oracle (seed {seed})"
                );
            }
            1 => {
                assert_eq!(
                    subj.remove(&key),
                    orac.remove(&key),
                    "op {i}: remove({key}) disagreed with oracle (seed {seed})"
                );
            }
            2 => {
                assert_eq!(
                    subj.contains(&key),
                    orac.contains(&key),
                    "op {i}: contains({key}) disagreed with oracle (seed {seed})"
                );
            }
            _ => {
                assert_eq!(
                    subj.get(&key),
                    orac.get(&key),
                    "op {i}: get({key}) disagreed with oracle (seed {seed})"
                );
            }
        }
    }
    // Final sweep: both maps hold exactly the same contents.
    for k in 0..key_range {
        assert_eq!(
            subj.get(&k),
            orac.get(&k),
            "final sweep disagreed at key {k} (seed {seed})"
        );
    }
}

/// Checks the paper's immutable-value semantics: inserting an existing key
/// returns `false` and does not overwrite.
///
/// # Panics
///
/// Panics if the map overwrites or misreports.
pub fn check_duplicate_inserts<M: ConcurrentMap<u64, u64>>(map: &M) {
    // A key far outside the ranges other checks use, cleared first so this
    // check composes with them on a shared map.
    const KEY: u64 = u64::MAX - 3;
    let mut s = map.session();
    s.remove(&KEY);
    assert!(s.insert(KEY, 100), "fresh insert must succeed");
    assert!(!s.insert(KEY, 200), "duplicate insert must fail");
    assert_eq!(
        s.get(&KEY),
        Some(100),
        "duplicate insert must not overwrite"
    );
    assert!(s.remove(&KEY));
    assert!(!s.remove(&KEY), "double remove must fail");
    assert!(s.insert(KEY, 300), "reinsert after remove must succeed");
    assert_eq!(s.get(&KEY), Some(300));
    assert!(s.remove(&KEY));
}

/// Threads concurrently insert disjoint key blocks, then all keys must be
/// present; then concurrently remove them, then none may remain.
///
/// # Panics
///
/// Panics if any update is lost or any phantom key appears.
pub fn check_lost_updates<M: ConcurrentMap<u64, u64>>(map: &M, threads: u64, keys_per_thread: u64) {
    run_workers(threads, |t, start| {
        let mut s = map.session();
        start.wait();
        for i in 0..keys_per_thread {
            let key = t * keys_per_thread + i;
            assert!(s.insert(key, key + 1), "insert of fresh key {key} failed");
        }
    });
    let mut s = map.session();
    for key in 0..threads * keys_per_thread {
        assert_eq!(s.get(&key), Some(key + 1), "lost insert of key {key}");
    }
    drop(s);

    run_workers(threads, |t, _| {
        let mut s = map.session();
        for i in 0..keys_per_thread {
            let key = t * keys_per_thread + i;
            assert!(s.remove(&key), "remove of present key {key} failed");
        }
    });
    let mut s = map.session();
    for key in 0..threads * keys_per_thread {
        assert_eq!(s.get(&key), None, "key {key} survived removal");
    }
}

/// Each thread owns the keys `k ≡ t (mod threads)` within `[0, threads *
/// keys_per_thread)` and performs random updates on them while checking
/// *every* return value against a thread-local model — valid because no
/// other thread updates that partition. Other threads concurrently issue
/// `get`s across the whole range to stress readers.
///
/// # Panics
///
/// Panics on the first per-partition divergence.
pub fn check_partitioned_determinism<M: ConcurrentMap<u64, u64>>(
    map: &M,
    threads: u64,
    ops_per_thread: usize,
    keys_per_thread: u64,
) {
    run_workers(threads, |t, start| {
        let mut rng = SplitMix64::new(0xBEEF ^ t);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut s = map.session();
        start.wait();
        for i in 0..ops_per_thread {
            let key = rng.below(keys_per_thread) * threads + t;
            match rng.below(3) {
                0 => {
                    let value = rng.next_u64();
                    let expected = !model.contains_key(&key);
                    if expected {
                        model.insert(key, value);
                    }
                    let got = s.insert(key, value);
                    assert_eq!(got, expected, "thread {t} op {i}: insert({key}) diverged");
                }
                1 => {
                    let expected = model.remove(&key).is_some();
                    let got = s.remove(&key);
                    assert_eq!(got, expected, "thread {t} op {i}: remove({key}) diverged");
                }
                _ => {
                    let expected = model.get(&key).copied();
                    let got = s.get(&key);
                    assert_eq!(got, expected, "thread {t} op {i}: get({key}) diverged");
                }
            }
            // Cross-partition read: result is unpredictable, but it must
            // not crash and must stress reader paths.
            let foreign = rng.below(threads * keys_per_thread);
            let _ = s.get(&foreign);
        }
        // Final per-partition sweep while others may still run.
        for (k, v) in &model {
            assert_eq!(s.get(k), Some(*v), "thread {t}: key {k} wrong at end");
        }
    });
}

/// Unrestricted concurrent mix of operations over a shared key range, then
/// a quiescent audit: repeated reads agree, and the surviving key set is a
/// subset of all keys ever inserted.
///
/// # Panics
///
/// Panics if the quiescent audit finds inconsistency.
pub fn check_mixed_quiescent_consistency<M: ConcurrentMap<u64, u64>>(
    map: &M,
    threads: u64,
    ops_per_thread: usize,
    key_range: u64,
) {
    run_workers(threads, |t, start| {
        let mut rng = SplitMix64::new(0xF00D ^ (t << 32));
        let mut s = map.session();
        start.wait();
        for _ in 0..ops_per_thread {
            let key = rng.below(key_range);
            match rng.below(4) {
                0 | 1 => {
                    // Tag values with the key so the audit can verify value
                    // integrity.
                    s.insert(key, key * 2 + 1);
                }
                2 => {
                    s.remove(&key);
                }
                _ => {
                    if let Some(v) = s.get(&key) {
                        assert_eq!(v, key * 2 + 1, "value corrupted for key {key}");
                    }
                }
            }
        }
    });
    // Quiescent audit.
    let mut s = map.session();
    for key in 0..key_range {
        let first = s.get(&key);
        let second = s.get(&key);
        assert_eq!(first, second, "quiescent reads of key {key} disagree");
        if let Some(v) = first {
            assert_eq!(v, key * 2 + 1, "quiescent value corrupted for key {key}");
        }
    }
}

/// Linearizability probe via mutual exclusion: if `insert`/`remove` are
/// linearizable set operations, a *successful* `insert(K)` grants its
/// caller exclusive ownership of `K` until its own successful `remove(K)`.
/// Threads treat the map as a lock; an ownership collision proves two
/// successful inserts were concurrent with the key present (or a lost
/// remove).
///
/// # Panics
///
/// Panics on any mutual-exclusion violation.
pub fn check_insert_grants_exclusivity<M: ConcurrentMap<u64, u64>>(
    map: &M,
    threads: u64,
    acquisitions_per_thread: usize,
) {
    use std::sync::atomic::AtomicU64;
    const KEY: u64 = u64::MAX - 7;
    let owner = AtomicU64::new(0);
    run_workers(threads, |t, start| {
        let t = t + 1; // 0 marks a free key
        let mut s = map.session();
        let mut acquired = 0;
        start.wait();
        while acquired < acquisitions_per_thread {
            if s.insert(KEY, t) {
                // We hold the "lock": no other successful insert may exist
                // until our remove.
                let prev = owner.swap(t, Ordering::SeqCst);
                assert_eq!(
                    prev, 0,
                    "thread {t} acquired while thread {prev} still held the key"
                );
                // A successful insert must also be observable.
                assert_eq!(s.get(&KEY), Some(t), "owner cannot see its own insert");
                let back = owner.swap(0, Ordering::SeqCst);
                assert_eq!(back, t, "ownership stolen mid-critical-section");
                assert!(s.remove(&KEY), "owner's remove must succeed");
                acquired += 1;
            }
        }
    });
    let mut s = map.session();
    assert_eq!(s.get(&KEY), None, "key must be free after all releases");
}

/// Asserts that counter `dominant` ≥ counter `dominated` in a metrics
/// snapshot; both are addressed as `(component, metric)` pairs.
///
/// This encodes cross-layer invariants that only hold if the layers are
/// wired correctly — e.g. every two-child delete in the Citrus tree calls
/// `synchronize_rcu` exactly once, so the RCU flavor's grace-period count
/// must dominate the tree's recorded synchronize calls.
///
/// An **empty** snapshot (a `stats`-less build collects nothing) passes
/// vacuously, so callers need no feature gates.
///
/// # Example
///
/// ```
/// use citrus_api::testkit::check_counter_dominates;
/// use citrus_obs::MetricsSnapshot;
///
/// // Empty snapshot (stats off): vacuously fine.
/// check_counter_dominates(
///     &MetricsSnapshot::default(),
///     ("rcu", "synchronize_calls"),
///     ("citrus", "synchronize_calls"),
/// );
/// ```
///
/// # Panics
///
/// Panics if either counter is missing from a non-empty snapshot, or if
/// `dominant < dominated`.
pub fn check_counter_dominates(
    snapshot: &MetricsSnapshot,
    dominant: (&str, &str),
    dominated: (&str, &str),
) {
    if snapshot.is_empty() {
        return;
    }
    let hi = snapshot.counter(dominant.0, dominant.1).unwrap_or_else(|| {
        panic!(
            "counter {}/{} missing from snapshot",
            dominant.0, dominant.1
        )
    });
    let lo = snapshot
        .counter(dominated.0, dominated.1)
        .unwrap_or_else(|| {
            panic!(
                "counter {}/{} missing from snapshot",
                dominated.0, dominated.1
            )
        });
    assert!(
        hi >= lo,
        "invariant violated: {}/{} = {hi} must be >= {}/{} = {lo}",
        dominant.0,
        dominant.1,
        dominated.0,
        dominated.1,
    );
}

/// Iteration count for concurrent/stress tests: the value of the
/// `CITRUS_STRESS_ITERS` environment variable when set, otherwise
/// `default`. A malformed value is a hard error — a soak run configured
/// with `CITRUS_STRESS_ITERS=1O000` must fail loudly, not quietly run the
/// default volume and report a clean soak that never happened.
///
/// Lets CI dial the whole suite's stress volume up (soak runs) or down
/// (sanitizer builds) without touching individual tests.
pub fn stress_iters(default: u64) -> u64 {
    env_knob("CITRUS_STRESS_ITERS").unwrap_or(default)
}

/// Seed count for chaos-sweeping tests: the value of the
/// `CITRUS_CHAOS_SEEDS` environment variable when set, otherwise
/// `default`. A malformed value is a hard error, as in [`stress_iters`]:
/// a typo'd knob must not silently shrink the sweep.
pub fn chaos_seeds(default: u64) -> u64 {
    env_knob("CITRUS_CHAOS_SEEDS").unwrap_or(default)
}

/// The numeric knob `name` of the test kits, `None` when unset.
///
/// # Panics
///
/// Panics if it is set but malformed (see [`parse_knob`]).
pub(crate) fn env_knob<T: FromStr<Err: Display>>(name: &str) -> Option<T> {
    match std::env::var(name) {
        Ok(raw) => Some(parse_knob(name, &raw)),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("invalid {name}: {e}"),
    }
}

/// Parses the raw value of knob `name`, aborting with the name, the value
/// and the parse error on malformed input: a typo'd knob must fail the
/// run loudly, not silently fall back to a default that changes what the
/// run covers.
pub(crate) fn parse_knob<T: FromStr<Err: Display>>(name: &str, raw: &str) -> T {
    raw.trim()
        .parse()
        .unwrap_or_else(|e| panic!("invalid {name}={raw:?}: {e} (expected an unsigned integer)"))
}

/// Runs `work(t, start)` for each `t` in `0..threads`, each on a scoped
/// thread armed with the calling thread's chaos plan ([`ChaosHandle`]),
/// and returns the results in `t` order. A worker calls `start.wait()`
/// once set up, so all of them start their operations together.
pub(crate) fn run_workers<T: Send>(
    threads: u64,
    work: impl Fn(u64, &Barrier) -> T + Sync,
) -> Vec<T> {
    let (start, chaos) = (Barrier::new(threads as usize), ChaosHandle::current());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (work, start, chaos) = (&work, &start, &chaos);
                scope.spawn(move || {
                    let _chaos = chaos.arm();
                    work(t, start)
                })
            })
            .collect();
        let joined = workers.into_iter().map(|w| w.join());
        joined
            .map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// What a [`stress_watchdog`] knows of its own test: whether it finished,
/// and the last history dump and replay recipe the test's thread noted.
#[derive(Debug, Default)]
pub(crate) struct WatchdogNotes {
    done: bool,
    pub(crate) dump: Option<PathBuf>,
    pub(crate) replay: Option<String>,
}

#[derive(Debug, Default)]
pub(crate) struct Watch {
    pub(crate) notes: Mutex<WatchdogNotes>,
    cvar: Condvar,
}

thread_local! {
    /// The watch of the [`stress_watchdog`] this thread armed, if any.
    static WATCH: RefCell<Option<Arc<Watch>>> = const { RefCell::new(None) };
}

/// Records into the notes of the watchdog the calling thread armed; a
/// no-op on a thread without one.
pub(crate) fn note(record: impl FnOnce(&mut WatchdogNotes)) {
    WATCH.with_borrow(|watch| {
        if let Some(watch) = watch {
            record(&mut watch.notes.lock().unwrap());
        }
    });
}

/// Guard for a running [`stress_watchdog`]; dropping it disarms the
/// watchdog (the test finished in time).
#[derive(Debug)]
pub struct StressWatchdog {
    pub(crate) watch: Arc<Watch>,
}

impl Drop for StressWatchdog {
    fn drop(&mut self) {
        WATCH.set(None);
        self.watch.notes.lock().unwrap().done = true;
        self.watch.cvar.notify_all();
    }
}

/// Arms a wall-clock watchdog for a concurrent test: if the returned guard
/// is not dropped within `CITRUS_STRESS_TIMEOUT_SECS` seconds (default
/// 300; `0` disables), the process prints a diagnostic naming `test` and
/// exits with code 124 — a livelocked test fails loudly instead of hanging
/// CI until the runner's global timeout reaps it with no indication of
/// which test wedged.
///
/// The diagnostic names the last history dump and replay recipe (chaos
/// seed or schedule) that the calling thread recorded, never another
/// test's.
pub fn stress_watchdog(test: &str) -> StressWatchdog {
    let timeout_secs = env_knob("CITRUS_STRESS_TIMEOUT_SECS").unwrap_or(300);
    let watch = Arc::new(Watch::default());
    WATCH.set(Some(Arc::clone(&watch)));
    if timeout_secs > 0 {
        let watch = Arc::clone(&watch);
        let test = test.to_string();
        std::thread::spawn(move || {
            let limit = Duration::from_secs(timeout_secs);
            let started = Instant::now();
            let mut notes = watch.notes.lock().unwrap();
            while !notes.done {
                match limit.checked_sub(started.elapsed()) {
                    Some(remaining) => {
                        notes = watch.cvar.wait_timeout(notes, remaining).unwrap().0;
                    }
                    None => {
                        // A hung lincheck run has already dumped its
                        // recorded history; point the post-mortem at it,
                        // and at one copy-pasteable line reproducing the
                        // run's perturbation context (schedule or seed).
                        let dump_note = notes
                            .dump
                            .as_ref()
                            .map_or(String::new(), |p| format!(" Last dump: {}.", p.display()));
                        let recipe_note = notes
                            .replay
                            .as_ref()
                            .map_or(String::new(), |r| format!(" Replay: {r}."));
                        let message = format!(
                            "[citrus-testkit] stress watchdog: test '{test}' still running after \
                             {timeout_secs}s — likely livelocked. Aborting with exit code 124. \
                             Tune with CITRUS_STRESS_TIMEOUT_SECS / CITRUS_STRESS_ITERS.\
                             {dump_note}{recipe_note}"
                        );
                        let dir = crate::lincheck::dump_dir();
                        let file_note = match write_watchdog_report(&dir, &test, &message) {
                            Ok(path) => format!(" Report: {}.", path.display()),
                            Err(e) => format!(" Report under {} failed: {e}.", dir.display()),
                        };
                        // Not `eprintln!`: this thread inherits libtest's
                        // output capture, which `exit` would discard.
                        let mut stderr = std::io::stderr().lock();
                        let _ = writeln!(stderr, "{message}{file_note}");
                        let _ = stderr.flush();
                        std::process::exit(124);
                    }
                }
            }
        });
    }
    StressWatchdog { watch }
}

/// Saves the watchdog's timeout `message` for `test` as
/// `watchdog_<test>_<pid>_<n>.txt` under `dir` (the lincheck dump
/// naming), so an earlier report is never overwritten.
fn write_watchdog_report(dir: &Path, test: &str, message: &str) -> std::io::Result<PathBuf> {
    crate::lincheck::write_dump(dir, &format!("watchdog_{test}"), ".txt", message)
}

/// Runs a reduced conformance battery against `make()`-produced maps under
/// an installed [`ChaosPlan`] for `seed`.
///
/// With the `chaos` cargo feature enabled this perturbs schedules (yields,
/// spin-delays, forced validation restarts) at every failpoint the seed
/// selects; without it the install is a no-op and this is a plain small
/// battery. A seed that fails here is a one-line regression test:
///
/// ```ignore
/// testkit::check_chaos_seed(MyMap::new, 0xBAD_5EED);
/// ```
pub fn check_chaos_seed<M, F>(make: F, seed: u64)
where
    M: ConcurrentMap<u64, u64>,
    F: Fn() -> M,
{
    let chaos = install_chaos(ChaosPlan::from_seed(seed));
    let map = make();
    check_sequential_model(&map, 400, 64, seed);
    check_duplicate_inserts(&map);
    // Fresh maps below: the lost-updates check asserts its inserts hit
    // absent keys, and the mixed check audits against its own tagged
    // values — residue from the sequential model would fail both.
    let map = make();
    check_lost_updates(&map, 4, 64);
    let map = make();
    check_mixed_quiescent_consistency(&map, 4, 300, 32);
    assert_workers_armed(&chaos, &format!("chaos seed {seed:#x}"));
}

/// [`citrus_chaos::install`], noting the plan's seed for the calling
/// thread's [`stress_watchdog`]. The testkit's spawners arm their workers.
#[must_use]
pub fn install_chaos(plan: ChaosPlan) -> ChaosGuard {
    let guard = citrus_chaos::install(plan);
    note(|n| n.replay = replay_recipe());
    guard
}

/// Asserts that worker threads rolled against `chaos`'s plan: a spawner
/// that forgets to arm its workers ([`ChaosHandle::arm`]) silently runs
/// them unperturbed. Vacuous without the `chaos` feature.
///
/// # Panics
///
/// Panics, naming `sweep`, if no armed worker reached a failpoint.
pub fn assert_workers_armed(chaos: &ChaosGuard, sweep: &str) {
    assert!(
        !chaos_enabled() || chaos.worker_rolls() > 0,
        "{sweep}: no worker thread rolled against the chaos plan; arm each spawned worker \
         from the plan's ChaosHandle"
    );
}

/// Sweeps `count` consecutive chaos schedule seeds starting at
/// `base_seed` through [`check_chaos_seed`], printing the replay recipe
/// for any seed that fails before re-raising its panic.
pub fn sweep_chaos_seeds<M, F>(make: F, base_seed: u64, count: u64)
where
    M: ConcurrentMap<u64, u64>,
    F: Fn() -> M,
{
    for i in 0..count {
        let seed = base_seed.wrapping_add(i);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check_chaos_seed(&make, seed);
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "[citrus-testkit] chaos seed {seed:#x} FAILED — pin it as a regression test: \
                 check_chaos_seed(<make>, {seed:#x})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Checks the grace-period property end-to-end against an
/// [`RcuFlavor`](citrus_rcu::RcuFlavor),
/// with `syncers` synchronizers running their grace periods concurrently:
///
/// `syncers` threads each repeatedly unpublish a value, call
/// `synchronize`, and only then mark the value freed. Two reader threads
/// continuously enter read-side critical sections, load the currently
/// published value, and assert — both on entry and again just before
/// leaving the section — that it has not been freed. A `synchronize` that
/// returns before every reader that was inside a section at its entry
/// has left frees a value some still-running reader observed, and the
/// reader's second assertion fires.
///
/// Values are never republished, so the assertions are exact, not
/// heuristic. Run it under an installed [`ChaosPlan`] to sweep schedule
/// perturbations over the flavor's failpoints: every thread it spawns is
/// armed with the calling thread's plan.
///
/// # Panics
///
/// Panics if a freed value is observed inside a read-side critical
/// section — i.e. if `synchronize` violated the RCU property.
pub fn check_grace_period_property<F>(rcu: &F, syncers: usize, rounds: usize)
where
    F: citrus_rcu::RcuFlavor,
{
    use citrus_rcu::RcuHandle as _;
    use std::sync::atomic::AtomicUsize;

    let total = syncers * rounds + 1;
    let freed: Vec<AtomicBool> = (0..total).map(|_| AtomicBool::new(false)).collect();
    let published = AtomicUsize::new(0);
    let next = AtomicUsize::new(1);
    let syncers_done = AtomicUsize::new(0);

    // Workers 0 and 1 read; the others synchronize.
    run_workers(syncers as u64 + 2, |t, start| {
        let h = rcu.register();
        start.wait();
        if t >= 2 {
            for _ in 0..rounds {
                let fresh = next.fetch_add(1, Ordering::Relaxed);
                let old = published.swap(fresh, Ordering::AcqRel);
                h.synchronize();
                freed[old].store(true, Ordering::SeqCst);
            }
            syncers_done.fetch_add(1, Ordering::Release);
            return;
        }
        while syncers_done.load(Ordering::Acquire) < syncers {
            let g = h.read_lock();
            let v = published.load(Ordering::Acquire);
            assert!(
                !freed[v].load(Ordering::SeqCst),
                "value {v} was freed while still published"
            );
            // Dwell inside the section so a racing synchronize has a window
            // to (incorrectly) return early.
            for _ in 0..64 {
                core::hint::spin_loop();
            }
            assert!(
                !freed[v].load(Ordering::SeqCst),
                "grace period ended while a reader that observed \
                 value {v} was still inside its critical section"
            );
            drop(g);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut rng = SplitMix64::new(1);
        let a: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut rng = SplitMix64::new(1);
        let b: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..10_000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn below_hits_every_residue() {
        let mut rng = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[rng.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "below() misses values: {seen:?}");
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        SplitMix64::new(5).below(0);
    }

    use citrus_obs::{MetricEntry, MetricValue};

    fn snapshot_with(counters: &[(&str, &str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: counters
                .iter()
                .map(|&(component, name, n)| MetricEntry {
                    component: component.to_string(),
                    name: name.to_string(),
                    value: MetricValue::Count(n),
                })
                .collect(),
        }
    }

    #[test]
    fn dominance_holds() {
        let snap = snapshot_with(&[("rcu", "gp", 7), ("citrus", "sync", 7)]);
        check_counter_dominates(&snap, ("rcu", "gp"), ("citrus", "sync"));
    }

    #[test]
    fn dominance_on_empty_snapshot_is_vacuous() {
        check_counter_dominates(&MetricsSnapshot::default(), ("a", "b"), ("c", "d"));
    }

    #[test]
    #[should_panic(expected = "invariant violated")]
    fn dominance_violation_panics() {
        let snap = snapshot_with(&[("rcu", "gp", 3), ("citrus", "sync", 7)]);
        check_counter_dominates(&snap, ("rcu", "gp"), ("citrus", "sync"));
    }

    #[test]
    #[should_panic(expected = "missing from snapshot")]
    fn missing_counter_panics() {
        let snap = snapshot_with(&[("rcu", "gp", 3)]);
        check_counter_dominates(&snap, ("rcu", "gp"), ("citrus", "sync"));
    }

    #[test]
    fn stress_iters_falls_back_to_default() {
        // CITRUS_STRESS_ITERS is unset in normal test runs.
        if std::env::var("CITRUS_STRESS_ITERS").is_err() {
            assert_eq!(stress_iters(37), 37);
        }
    }

    #[test]
    fn stress_watchdog_disarms_on_drop() {
        // Dropping the guard must not terminate the process.
        drop(stress_watchdog("stress_watchdog_disarms_on_drop"));
    }

    #[test]
    fn watchdog_report_lands_in_a_fresh_file() {
        let dir = std::env::temp_dir().join(format!("citrus-watchdog-test-{}", std::process::id()));
        let first = write_watchdog_report(&dir, "wedged", "first report").unwrap();
        let second = write_watchdog_report(&dir, "wedged", "second report").unwrap();
        assert_ne!(
            first, second,
            "a later report must not overwrite an earlier one"
        );
        let name = first.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("watchdog_wedged_") && name.contains(&std::process::id().to_string()),
            "unexpected report name {name}"
        );
        assert_eq!(std::fs::read_to_string(&first).unwrap(), "first report");
        assert_eq!(std::fs::read_to_string(&second).unwrap(), "second report");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
