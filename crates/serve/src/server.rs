//! The server proper: direct execution over a [`CitrusForest`], plus the
//! client-side [`ServeSession`] that makes it look like an ordinary
//! [`MapSession`].
//!
//! # Shape
//!
//! The server owns no thread and no queue. Each [`ServeSession`] keeps its
//! own forest session and runs its requests on its own thread: a request
//! passes the closed check and its shard's admission bound (a count of
//! the shard's requests in flight), executes, and returns. Clients on one
//! shard run at the same time, as the forest's own sessions do, so a
//! wait-free read never waits for another client's request.
//! [`Server::submit`], the poll-style entry point, runs its requests on
//! one session that the server keeps behind a mutex.
//!
//! # Correctness at this boundary
//!
//! Each response is returned after its request has executed on the
//! forest, so every operation's linearization point (the forest's) falls
//! inside its invocation/response window and the server preserves the
//! forest's linearizability — that is exactly what the end-to-end lincheck
//! suite verifies, and what the planted `serve/drain/ack-before-apply`
//! mutant (which acknowledges a write with a predicted result before
//! executing it) deliberately breaks.

use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use citrus::{CitrusForest, ForestSession, RcuFlavor, ScalableRcu};
use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos as chaos;
use citrus_sync::{CachePadded, StripedCounter};

use crate::config::ServeConfig;

/// One client request. Scans route by their low bound, every other op by
/// its key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request<K, V> {
    /// `get(key)`.
    Get(K),
    /// `contains(key)`.
    Contains(K),
    /// `insert(key, value)`.
    Insert(K, V),
    /// `remove(key)`.
    Remove(K),
    /// `range_scan(lo, hi)` (inclusive bounds).
    Scan(K, K),
    /// `successor(key)`.
    Successor(K),
    /// `predecessor(key)`.
    Predecessor(K),
}

impl<K, V> Request<K, V> {
    /// `true` for the mutating requests (insert/remove).
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self, Request::Insert(..) | Request::Remove(_))
    }

    /// The key the request routes by.
    #[must_use]
    pub fn route_key(&self) -> &K {
        match self {
            Request::Get(k)
            | Request::Contains(k)
            | Request::Insert(k, _)
            | Request::Remove(k)
            | Request::Scan(k, _)
            | Request::Successor(k)
            | Request::Predecessor(k) => k,
        }
    }
}

/// The result of one [`Request`], with one variant per result shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response<K, V> {
    /// `get` → the value, if present.
    Value(Option<V>),
    /// `contains` / `insert` / `remove` → the boolean outcome.
    Flag(bool),
    /// `range_scan` → the matching entries in ascending key order.
    Entries(Vec<(K, V)>),
    /// `successor` / `predecessor` → the neighbouring entry, if any.
    Entry(Option<(K, V)>),
}

/// Why a submission did not produce a [`Ticket`]. Both variants hand the
/// request back so the caller can retry without cloning.
#[derive(Debug)]
pub enum SubmitError<K, V> {
    /// The target shard has `high_water` requests in flight. Back off for
    /// `retry_after`, then resubmit.
    Rejected {
        /// The request, returned unconsumed.
        req: Request<K, V>,
        /// How long the server suggests waiting before the retry.
        retry_after: Duration,
        /// The shard's in-flight count observed at rejection time.
        depth: usize,
    },
    /// The server is shutting down (or has shut down); the request was
    /// not run and never will be.
    Closed(Request<K, V>),
}

/// The session-level terminal error: the server closed underneath us.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerClosed;

impl std::fmt::Display for ServerClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("citrus-serve: server is shut down")
    }
}

impl std::error::Error for ServerClosed {}

/// The response to one accepted request. [`Server::submit`] runs the
/// request before it returns, so a ticket is always ready.
#[derive(Debug)]
pub struct Ticket<K, V> {
    resp: Response<K, V>,
}

impl<K, V> Ticket<K, V> {
    /// The request's response. Never blocks.
    #[must_use]
    pub fn wait(self) -> Response<K, V> {
        self.resp
    }

    /// Always `true`: the request ran inside [`Server::submit`].
    #[must_use]
    pub fn is_ready(&self) -> bool {
        true
    }
}

/// Stripes per counter. Each executor counts on its own stripe, so that
/// clients on one shard do not contend for a counter's cache line.
const STRIPES: usize = 16;

/// Always-on counters (plain atomics, *not* `stats`-gated): the
/// correctness suites assert on these, so they must exist in every build.
#[derive(Debug)]
pub struct ServeCounters {
    accepted: StripedCounter,
    rejected: AtomicU64,
    executed: StripedCounter,
    acked_writes: StripedCounter,
}

impl Default for ServeCounters {
    fn default() -> Self {
        Self {
            accepted: StripedCounter::new(STRIPES),
            rejected: AtomicU64::new(0),
            executed: StripedCounter::new(STRIPES),
            acked_writes: StripedCounter::new(STRIPES),
        }
    }
}

impl ServeCounters {
    /// Requests admitted.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted.sum()
    }

    /// Requests turned away at the high-water mark.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The same as [`executed`](Self::executed): every request runs on
    /// its own. Kept for reports written when requests ran in batches.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.executed()
    }

    /// Requests executed against the forest.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed.sum()
    }

    /// Write responses delivered to clients. Every one of them is
    /// visible in the forest once the session that ran it is gone.
    #[must_use]
    pub fn acked_writes(&self) -> u64 {
        self.acked_writes.sum()
    }
}

/// Executes one request against a forest session, consuming the request.
fn exec<K, V, S>(session: &mut S, req: Request<K, V>) -> Response<K, V>
where
    S: MapSession<K, V> + OrderedMapSession<K, V>,
{
    match req {
        Request::Get(k) => Response::Value(session.get(&k)),
        Request::Contains(k) => Response::Flag(session.contains(&k)),
        Request::Insert(k, v) => Response::Flag(session.insert(k, v)),
        Request::Remove(k) => Response::Flag(session.remove(&k)),
        Request::Scan(lo, hi) => Response::Entries(session.range_scan(&lo, &hi)),
        Request::Successor(k) => Response::Entry(session.successor(&k)),
        Request::Predecessor(k) => Response::Entry(session.predecessor(&k)),
    }
}

/// Runs requests on one forest session.
struct Executor<'s, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    session: ForestSession<'s, K, V, F>,
    /// This executor's stripe of the server's counters.
    stripe: usize,
    /// The `serve/drain/ack-before-apply` mutant stashes at most one
    /// acknowledged-but-unexecuted write here. The stash is applied after
    /// this executor's *next* request (that misordering is the planted
    /// bug) and when the executor drops, so even the mutant never loses
    /// an acknowledged write, it only reorders it.
    stash: Option<Request<K, V>>,
}

impl<'s, K, V, F> Executor<'s, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn new(forest: &'s CitrusForest<K, V, F>, stripe: usize) -> Self {
        Self {
            session: forest.session(),
            stripe,
            stash: None,
        }
    }

    fn apply_stash(&mut self) {
        if let Some(prev) = self.stash.take() {
            let _ = exec(&mut self.session, prev);
        }
    }

    /// Executes one request and returns its response. The counters
    /// include the request before the response can reach its client.
    fn run(&mut self, counters: &ServeCounters, req: Request<K, V>) -> Response<K, V> {
        if chaos::mutant_enabled("serve/drain/ack-before-apply") && req.is_write() {
            self.apply_stash();
            let predicted = match &req {
                Request::Insert(k, _) => Response::Flag(!self.session.contains(k)),
                Request::Remove(k) => Response::Flag(self.session.contains(k)),
                _ => unreachable!("is_write() covers exactly insert/remove"),
            };
            counters.acked_writes.incr(self.stripe);
            self.stash = Some(req);
            return predicted;
        }
        let is_write = req.is_write();
        let resp = exec(&mut self.session, req);
        counters.executed.incr(self.stripe);
        if is_write {
            counters.acked_writes.incr(self.stripe);
        }
        self.apply_stash();
        resp
    }
}

impl<K, V, F> Drop for Executor<'_, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn drop(&mut self) {
        self.apply_stash();
    }
}

/// The executor behind [`Server::submit`], with its borrow of the
/// server's forest erased so that the server can hold it.
struct SubmitSession<K, V, F>(Executor<'static, K, V, F>)
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor;

// SAFETY: a forest session is `!Send` because its per-thread RCU and
// epoch slots must not migrate in the middle of a read-side section or a
// pin. This one is only used with the server's `submitter` mutex held,
// and every use runs whole operations (an operation that panics closes its
// section as it unwinds), so no section is open when the mutex passes it
// to another thread, and the mutex orders every use after the previous
// one. Its other fields go with it: the forest reference
// (`K`, `V: Sync`), the buffer of unlinked nodes awaiting a flush and the
// ordered reads' walk buffers (node pointers, empty between operations),
// which only this session touches, plain counters, and the mutant's
// stashed request (`K`, `V: Send`).
unsafe impl<K, V, F> Send for SubmitSession<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
}

/// Holds one request's place in its shard's in-flight count, and gives it
/// back when the request finishes or unwinds.
struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The backpressured request layer over a [`CitrusForest`].
///
/// Construction spawns no thread: each request runs on the thread that
/// makes it (see the [crate docs](crate)). [`shutdown`](Server::shutdown)
/// closes admission and returns once every admitted request has finished.
pub struct Server<K, V, F: RcuFlavor = ScalableRcu>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// [`submit`](Server::submit)'s executor. Declared before `forest`,
    /// which it borrows, so that it drops first.
    submitter: Mutex<SubmitSession<K, V, F>>,
    /// Boxed so that the forest stays put while `submitter` borrows it,
    /// however the server moves.
    forest: Box<CitrusForest<K, V, F>>,
    /// Per shard: requests admitted that have not finished.
    in_flight: Box<[CachePadded<AtomicUsize>]>,
    closed: AtomicBool,
    /// Counter stripes handed to sessions, round robin; `submitter` has
    /// stripe 0.
    next_stripe: AtomicUsize,
    config: ServeConfig,
    counters: ServeCounters,
}

impl<K, V> Server<K, V, ScalableRcu>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Serves `forest` with the default [`ServeConfig`].
    #[must_use]
    pub fn new(forest: CitrusForest<K, V>) -> Self {
        Self::with_config(forest, ServeConfig::default())
    }
}

impl<K, V, F> Server<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    /// Takes ownership of `forest` and sets up one in-flight count per
    /// shard. Spawns no thread.
    ///
    /// # Panics
    ///
    /// Panics if `config.high_water` is 0: every request would be
    /// rejected, and a [`ServeSession`] would retry forever.
    #[must_use]
    pub fn with_config(forest: CitrusForest<K, V, F>, config: ServeConfig) -> Self {
        assert!(config.high_water > 0, "high_water must be > 0");
        let forest = Box::new(forest);
        // SAFETY: the session borrows the boxed forest, which stays where
        // it is until `into_forest` or the server's drop; both drop the
        // session first (see `Server::submitter`).
        let borrowed: &'static CitrusForest<K, V, F> = unsafe { &*std::ptr::from_ref(&*forest) };
        Self {
            submitter: Mutex::new(SubmitSession(Executor::new(borrowed, 0))),
            in_flight: (0..forest.shard_count())
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            forest,
            closed: AtomicBool::new(false),
            next_stripe: AtomicUsize::new(1),
            config,
            counters: ServeCounters::default(),
        }
    }

    /// Admits `req` on its shard and runs it on `exec`, or hands it back
    /// refused.
    fn call(
        &self,
        exec: &mut Executor<'_, K, V, F>,
        req: Request<K, V>,
    ) -> Result<Response<K, V>, SubmitError<K, V>> {
        let count = &*self.in_flight[self.forest.shard_for(req.route_key())];
        // Counted before the closed check: `shutdown` sets `closed` and
        // then waits for the counts, so it sees this request or this
        // request sees `closed`.
        let depth = count.fetch_add(1, Ordering::SeqCst);
        let _in_flight = InFlight(count);
        chaos::point!("serve/admission/admit");
        if self.closed.load(Ordering::SeqCst) {
            return Err(SubmitError::Closed(req));
        }
        if depth >= self.config.high_water {
            chaos::point!("serve/admission/reject");
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Rejected {
                req,
                retry_after: self.config.retry_after,
                depth,
            });
        }
        self.counters.accepted.incr(exec.stripe);
        Ok(exec.run(&self.counters, req))
    }

    /// Routes `req` to its shard and, if admitted, runs it on this thread
    /// before returning; the [`Ticket`] is already resolved. Requests
    /// made through `submit` share one session behind a mutex, so they
    /// run one at a time: concurrent clients use
    /// [`session`](ConcurrentMap::session) instead. On rejection the
    /// caller owns the back-off (the blocking [`ServeSession`] API does
    /// it for you).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] at the high-water mark,
    /// [`SubmitError::Closed`] after shutdown began.
    pub fn submit(&self, req: Request<K, V>) -> Result<Ticket<K, V>, SubmitError<K, V>> {
        let mut submitter = self
            .submitter
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.call(&mut submitter.0, req).map(|resp| Ticket { resp })
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.in_flight.len()
    }

    /// The shard `key` routes to (the forest router's verdict).
    #[must_use]
    pub fn shard_for(&self, key: &K) -> usize {
        self.forest.shard_for(key)
    }

    /// Requests in flight on one shard (racy, for reporting/tests).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    #[must_use]
    pub fn queue_len(&self, shard: usize) -> usize {
        self.in_flight[shard].load(Ordering::Relaxed)
    }

    /// The always-on request counters.
    #[must_use]
    pub fn counters(&self) -> &ServeCounters {
        &self.counters
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Graceful shutdown: closes admission, then returns once every
    /// admitted request has finished. Idempotent.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        for count in &*self.in_flight {
            chaos::point!("serve/shutdown/drain");
            while count.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Hands back the forest, e.g. for `validate_structure` /
    /// `to_vec_quiescent` replay checks. Nothing can be in flight:
    /// sessions borrow the server, and `submit` returns only after its
    /// request ran.
    #[must_use]
    pub fn into_forest(self) -> CitrusForest<K, V, F> {
        // `submit`'s executor borrows the forest, so it goes first.
        drop(self.submitter);
        *self.forest
    }
}

impl<K, V, F> std::fmt::Debug for Server<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("shards", &self.shard_count())
            .field("config", &self.config)
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

/// A client handle with its own forest session: runs each request on the
/// calling thread, honoring `retry-after` back-off on rejection. Clients
/// on one shard run at once; none waits for another's request. This is
/// the adapter the end-to-end lincheck and conformance suites drive —
/// through it, `citrus-serve` *is* a [`ConcurrentMap`].
pub struct ServeSession<'s, K, V, F: RcuFlavor = ScalableRcu>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    server: &'s Server<K, V, F>,
    exec: Executor<'s, K, V, F>,
    rejections: u64,
}

impl<'s, K, V, F> ServeSession<'s, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn new(server: &'s Server<K, V, F>) -> Self {
        Self {
            server,
            exec: Executor::new(
                &server.forest,
                server.next_stripe.fetch_add(1, Ordering::Relaxed),
            ),
            rejections: 0,
        }
    }

    /// How many times this session has been turned away at the high-water
    /// mark (and backed off as told).
    #[must_use]
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Runs `req`, sleeping `retry_after` and retrying on each rejection.
    ///
    /// # Errors
    ///
    /// [`ServerClosed`] if the server shut down before the request was
    /// admitted.
    pub fn try_call(&mut self, mut req: Request<K, V>) -> Result<Response<K, V>, ServerClosed> {
        loop {
            match self.server.call(&mut self.exec, req) {
                Ok(resp) => return Ok(resp),
                Err(SubmitError::Rejected {
                    req: returned,
                    retry_after,
                    ..
                }) => {
                    self.rejections += 1;
                    std::thread::sleep(retry_after);
                    req = returned;
                }
                Err(SubmitError::Closed(_)) => return Err(ServerClosed),
            }
        }
    }

    fn call(&mut self, req: Request<K, V>) -> Response<K, V> {
        self.try_call(req)
            .expect("citrus-serve: server shut down under a live session")
    }
}

impl<K, V, F> MapSession<K, V> for ServeSession<'_, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn get(&mut self, key: &K) -> Option<V> {
        match self.call(Request::Get(key.clone())) {
            Response::Value(v) => v,
            _ => unreachable!("Get always yields Value"),
        }
    }

    fn contains(&mut self, key: &K) -> bool {
        match self.call(Request::Contains(key.clone())) {
            Response::Flag(b) => b,
            _ => unreachable!("Contains always yields Flag"),
        }
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        match self.call(Request::Insert(key, value)) {
            Response::Flag(b) => b,
            _ => unreachable!("Insert always yields Flag"),
        }
    }

    fn remove(&mut self, key: &K) -> bool {
        match self.call(Request::Remove(key.clone())) {
            Response::Flag(b) => b,
            _ => unreachable!("Remove always yields Flag"),
        }
    }
}

impl<K, V, F> OrderedMapSession<K, V> for ServeSession<'_, K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        match self.call(Request::Scan(lo.clone(), hi.clone())) {
            Response::Entries(entries) => entries,
            _ => unreachable!("Scan always yields Entries"),
        }
    }

    fn successor(&mut self, key: &K) -> Option<(K, V)> {
        match self.call(Request::Successor(key.clone())) {
            Response::Entry(e) => e,
            _ => unreachable!("Successor always yields Entry"),
        }
    }

    fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        match self.call(Request::Predecessor(key.clone())) {
            Response::Entry(e) => e,
            _ => unreachable!("Predecessor always yields Entry"),
        }
    }
}

impl<K, V, F> ConcurrentMap<K, V> for Server<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    type Session<'a>
        = ServeSession<'a, K, V, F>
    where
        Self: 'a;

    const NAME: &'static str = "citrus-serve";

    fn session(&self) -> Self::Session<'_> {
        ServeSession::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citrus::ReclaimMode;

    fn small_server() -> Server<u64, u64> {
        let forest = CitrusForest::with_config(4, 7, ReclaimMode::Epoch);
        Server::new(forest)
    }

    #[test]
    fn point_ops_round_trip_through_the_pipeline() {
        let server = small_server();
        let mut s = server.session();
        assert!(s.insert(5, 50));
        assert!(
            !s.insert(5, 51),
            "duplicate insert must report absent=false"
        );
        assert_eq!(s.get(&5), Some(50));
        assert!(s.contains(&5));
        assert!(s.remove(&5));
        assert_eq!(s.get(&5), None);
        assert!(server.counters().accepted() >= 6);
        assert_eq!(server.counters().acked_writes(), 3);
    }

    #[test]
    fn ordered_ops_cross_shards() {
        let server = small_server();
        let mut s = server.session();
        for k in 0..64u64 {
            s.insert(k, k * 10);
        }
        let entries = s.range_scan(&10, &13);
        assert_eq!(entries, vec![(10, 100), (11, 110), (12, 120), (13, 130)]);
        assert_eq!(s.successor(&13), Some((14, 140)));
        assert_eq!(s.predecessor(&10), Some((9, 90)));
    }

    #[test]
    fn shutdown_then_submit_is_closed() {
        let server = small_server();
        {
            let mut s = server.session();
            s.insert(1, 1);
        }
        server.shutdown();
        server.shutdown(); // idempotent
        match server.submit(Request::Get(1)) {
            Err(SubmitError::Closed(Request::Get(1))) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn into_forest_reflects_acked_writes() {
        let server = small_server();
        {
            let mut s = server.session();
            for k in 0..32u64 {
                assert!(s.insert(k, k + 1000));
            }
            assert!(s.remove(&7));
        }
        let acked = server.counters().acked_writes();
        assert_eq!(acked, 33);
        let mut forest = server.into_forest();
        forest.validate_structure().expect("forest invariants hold");
        let contents = forest.to_vec_quiescent();
        assert_eq!(contents.len(), 31);
        assert!(!contents.iter().any(|(k, _)| *k == 7));
    }

    #[test]
    #[should_panic(expected = "high_water must be > 0")]
    fn zero_high_water_config_is_rejected() {
        let config = ServeConfig {
            high_water: 0,
            ..ServeConfig::default()
        };
        let forest = CitrusForest::<u64, u64>::with_config(2, 7, ReclaimMode::Epoch);
        let _ = Server::with_config(forest, config);
    }

    #[test]
    fn writes_and_routing_keys() {
        let req: Request<u64, u64> = Request::Scan(4, 9);
        assert_eq!(*req.route_key(), 4, "scans route by their low bound");
        assert!(!req.is_write());
        assert!(Request::<u64, u64>::Insert(1, 2).is_write());
        assert!(Request::<u64, u64>::Remove(1).is_write());
        assert!(!Request::<u64, u64>::Contains(1).is_write());
    }
}
