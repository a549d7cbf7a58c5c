//! The server proper: caller-run combining over a [`CitrusForest`], plus
//! the client-side [`ServeSession`] that makes the whole pipeline look
//! like an ordinary [`MapSession`].
//!
//! # Shape
//!
//! The server owns no thread. Clients route each request to its shard
//! with the forest's own router ([`CitrusForest::shard_for`]); each shard
//! has a [`BatchQueue`] whose executor flag says who may run the shard's
//! requests right now. A submit that finds its shard idle takes the flag,
//! runs its own request on its own thread, then serves up to `batch_max`
//! requests that queued behind it (flat combining). A submit that finds
//! the shard busy queues and gets a [`Ticket`]. A combiner that stops at
//! its bound releases the flag and wakes the oldest queued request whose
//! holder is blocked in [`wait`](Ticket::wait); that holder takes over
//! and drains in turn. Any unresolved ticket's [`wait`](Ticket::wait),
//! [`is_ready`](Ticket::is_ready) or drop also takes over a shard it
//! finds idle with queued work, so work left behind a release reaches
//! whichever holder acts next. A queued request that panics is caught
//! in the pass and its panic resumes in its own ticket's `wait`, not on
//! the combiner's caller.
//!
//! Whoever holds a shard's flag also uses the shard's executor state: one
//! long-lived forest session, the `recycle_ops` count, and the planted
//! mutant's stash. They live with the shard, not with a thread, and pass
//! between threads only with the flag.
//!
//! # Correctness at this boundary
//!
//! A shard executes its requests one at a time, in admission order, and
//! each response is delivered *after* its request executes, so every
//! operation's linearization point falls inside its invocation/response
//! window and the server composition preserves the forest's
//! linearizability — that is exactly what the end-to-end lincheck suite
//! verifies, and what the planted `serve/drain/ack-before-apply` mutant
//! (which acknowledges a write with a predicted result before executing
//! it) deliberately breaks.

use std::any::Any;
use std::hash::Hash;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Duration;

use citrus::{CitrusForest, ForestSession, RcuFlavor, ScalableRcu};
use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos as chaos;
use citrus_obs::Stopwatch;

use crate::config::ServeConfig;
use crate::metrics::ServeMetrics;
use crate::queue::{Admission, BatchQueue, HandOff, OfferError, Waiter};

/// The three latency classes a request falls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Point reads: `get`, `contains`.
    Read,
    /// Point writes: `insert`, `remove`.
    Write,
    /// Ordered traversals: `range_scan`, `successor`, `predecessor`.
    Scan,
}

impl OpClass {
    /// Stable label used in benchmark rows and metric names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Read => "get",
            OpClass::Write => "write",
            OpClass::Scan => "scan",
        }
    }

    /// All classes, in report order.
    pub const ALL: [OpClass; 3] = [OpClass::Read, OpClass::Write, OpClass::Scan];
}

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
    /// The latency class this request is accounted under.
    #[must_use]
    pub fn class(&self) -> OpClass {
        match self {
            Request::Get(_) | Request::Contains(_) => OpClass::Read,
            Request::Insert(..) | Request::Remove(_) => OpClass::Write,
            Request::Scan(..) | Request::Successor(_) | Request::Predecessor(_) => OpClass::Scan,
        }
    }

    /// `true` for the mutating requests (insert/remove).
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.class() == OpClass::Write
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
    /// The target shard queue is at its high-water mark. Back off for
    /// `retry_after`, then resubmit.
    Rejected {
        /// The request, returned unconsumed.
        req: Request<K, V>,
        /// How long the server suggests waiting before the retry.
        retry_after: Duration,
        /// Shard queue depth observed at rejection time.
        depth: usize,
    },
    /// The server is shutting down (or has shut down); the request was
    /// not enqueued and never will be.
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

/// What a queued request's slot holds, under the slot's mutex.
struct SlotState<K, V> {
    resp: Option<Response<K, V>>,
    /// The request panicked while executing; its ticket's `wait` resumes
    /// the panic.
    panic: Option<Box<dyn Any + Send>>,
    /// The ticket holder is in `wait`: it set this before it first tried
    /// to take over, so a combiner that releases later sees it and wakes
    /// it, and one that released earlier left the shard to its try.
    waiting: bool,
    /// A releasing combiner woke the waiting holder to take over.
    nudged: bool,
    /// The ticket was dropped; nobody can take over for this request.
    abandoned: bool,
}

impl<K, V> SlotState<K, V> {
    /// Whether the request has executed (or panicked).
    fn settled(&self) -> bool {
        self.resp.is_some() || self.panic.is_some()
    }
}

/// The response rendezvous of a queued request: the executor delivers
/// into it, the ticket holder waits on it.
struct Slot<K, V> {
    state: Mutex<SlotState<K, V>>,
    cv: Condvar,
}

impl<K, V> Slot<K, V> {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState {
                resp: None,
                panic: None,
                waiting: false,
                nudged: false,
                abandoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn deliver(&self, resp: Result<Response<K, V>, Box<dyn Any + Send>>) {
        let mut st = self.lock();
        match resp {
            Ok(resp) => st.resp = Some(resp),
            Err(payload) => st.panic = Some(payload),
        }
        if st.waiting {
            self.cv.notify_one();
        }
    }
}

/// A request in a shard queue.
struct Envelope<K, V> {
    req: Request<K, V>,
    slot: Arc<Slot<K, V>>,
}

impl<K, V> HandOff for Envelope<K, V> {
    fn hand_off(&self) -> Waiter {
        let mut st = self.slot.lock();
        if st.abandoned {
            Waiter::Gone
        } else if st.waiting {
            st.nudged = true;
            self.slot.cv.notify_one();
            Waiter::Blocked
        } else {
            Waiter::Holding
        }
    }
}

/// How a ticket reaches back into its server to take over a shard,
/// without naming the server's RCU flavor in the ticket's type.
trait TakeOver: Send + Sync {
    /// Takes `shard`'s executor if it is free and has runnable work, and
    /// runs one bounded pass.
    fn take_over(&self, shard: usize);
}

enum TicketState<K, V> {
    /// Executed by the submitting caller itself.
    Done(Option<Response<K, V>>),
    /// Queued behind a busy shard.
    Queued {
        slot: Arc<Slot<K, V>>,
        server: Weak<dyn TakeOver>,
        shard: usize,
    },
}

/// A claim check for one accepted request. Every accepted request is
/// eventually executed and delivered — including during a shutdown
/// drain — so [`wait`](Ticket::wait) always returns (or, if the request
/// itself panicked, resumes that panic).
///
/// An unresolved ticket may run its shard's queue: [`wait`](Ticket::wait),
/// [`is_ready`](Ticket::is_ready) and dropping the ticket each take over
/// the shard if it is idle with queued work, and a `wait` also takes over
/// when a combiner that stops at its bound wakes it. They then run queued
/// requests, the ticket's own and others', on the calling thread. That is
/// what keeps requests from being stranded: a combiner releases only
/// while some queued request's holder can still act. Dropping a ticket
/// abandons the response harmlessly: the request is still executed.
pub struct Ticket<K, V> {
    state: TicketState<K, V>,
}

impl<K, V> std::fmt::Debug for Ticket<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = match &self.state {
            TicketState::Done(resp) => resp.is_some(),
            TicketState::Queued { slot, .. } => slot.lock().settled(),
        };
        f.debug_struct("Ticket").field("ready", &ready).finish()
    }
}

fn take_over(server: &Weak<dyn TakeOver>, shard: usize) {
    if let Some(server) = server.upgrade() {
        server.take_over(shard);
    }
}

impl<K, V> Ticket<K, V> {
    /// Blocks until this request's response is delivered, taking over the
    /// shard when it is idle with queued work and whenever a releasing
    /// combiner wakes this ticket to.
    ///
    /// # Panics
    ///
    /// Resumes the request's own panic if executing it panicked.
    #[must_use]
    pub fn wait(mut self) -> Response<K, V> {
        match std::mem::replace(&mut self.state, TicketState::Done(None)) {
            TicketState::Done(resp) => resp.expect("a ticket's response is taken only once"),
            TicketState::Queued {
                slot,
                server,
                shard,
            } => {
                let mut st = slot.lock();
                // Registered before the first try: see `SlotState::waiting`.
                st.waiting = true;
                let mut first_try = true;
                loop {
                    if let Some(resp) = st.resp.take() {
                        return resp;
                    }
                    if let Some(payload) = st.panic.take() {
                        drop(st);
                        panic::resume_unwind(payload);
                    }
                    if std::mem::take(&mut st.nudged) | std::mem::take(&mut first_try) {
                        drop(st);
                        take_over(&server, shard);
                        st = slot.lock();
                        continue;
                    }
                    st = slot.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// `true` once the response has been delivered (or the request
    /// panicked). Never blocks on the response; if the shard is idle with
    /// queued work, it first runs a bounded pass of the shard's queue.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        match &self.state {
            TicketState::Done(resp) => resp.is_some(),
            TicketState::Queued {
                slot,
                server,
                shard,
            } => {
                let mut st = slot.lock();
                if !st.settled() {
                    drop(st);
                    take_over(server, *shard);
                    st = slot.lock();
                }
                st.settled()
            }
        }
    }
}

impl<K, V> Drop for Ticket<K, V> {
    fn drop(&mut self) {
        if let TicketState::Queued {
            slot,
            server,
            shard,
        } = &self.state
        {
            let mut st = slot.lock();
            if st.settled() {
                return;
            }
            st.abandoned = true;
            drop(st);
            // A combiner that released while this ticket was held may
            // have left the queue to it: take over rather than strand it.
            // Later combiners see the mark and run this request
            // themselves when no one else is left to.
            take_over(server, *shard);
        }
    }
}

/// Always-on counters (plain atomics, *not* `stats`-gated): the
/// correctness suites assert on these, so they must exist in every build.
#[derive(Debug, Default)]
pub struct ServeCounters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    executed: AtomicU64,
    acked_writes: AtomicU64,
    recycled_sessions: AtomicU64,
    most_served_for_others: AtomicU64,
}

impl ServeCounters {
    /// Requests admitted, whether run at once or queued.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Requests turned away at the high-water mark.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Executor passes that ran at least one request.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Requests executed against the forest.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Write responses delivered to clients. The shutdown-drain contract
    /// is about exactly these: every one of them is visible in the final
    /// forest state.
    #[must_use]
    pub fn acked_writes(&self) -> u64 {
        self.acked_writes.load(Ordering::Relaxed)
    }

    /// Executor forest-sessions dropped and reopened by the
    /// `recycle_ops` churn knob.
    #[must_use]
    pub fn recycled_sessions(&self) -> u64 {
        self.recycled_sessions.load(Ordering::Relaxed)
    }

    /// The most queued requests one combining pass has served for other
    /// callers. It stays at or below `batch_max` unless a pass found only
    /// requests whose tickets were dropped, which nobody else can run.
    /// The drains of `resume` and `shutdown` are not combining passes and
    /// do not count.
    #[must_use]
    pub fn most_served_for_others(&self) -> u64 {
        self.most_served_for_others.load(Ordering::Relaxed)
    }
}

/// A shard executor's forest session. It is stored beside the forest it
/// borrows and used by whichever thread holds the shard's executor flag.
struct ExecSession<K: 'static, V: 'static, F: RcuFlavor>(ForestSession<'static, K, V, F>);

// SAFETY: a forest session is `!Send` because its per-thread RCU and
// epoch slots must not migrate in the middle of a read-side section or a
// pin. An executor session is only used between operations by the holder
// of its shard's executor flag, with its shard's `exec` mutex held; the
// flag passes between threads under the queue mutex. No section is open
// while it moves, and the mutexes order every use after the previous one.
// Its other fields go with it: the forest reference (`K`, `V: Sync`), the
// buffer of unlinked nodes awaiting a flush and the ordered reads' walk
// buffers (node pointers, empty between operations), which only this
// session touches, and plain counters.
unsafe impl<K: Send + Sync + 'static, V: Send + Sync + 'static, F: RcuFlavor> Send
    for ExecSession<K, V, F>
{
}

impl<K, V, F> ExecSession<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    /// Opens a session on `forest` with the borrow's lifetime erased.
    ///
    /// # Safety
    ///
    /// `forest` must stay where it is, and alive, until the session is
    /// dropped. The server keeps its forest in the same `Arc` as the
    /// sessions, declares the shards (and so the sessions) before the
    /// forest so they drop first, and drops every session in `shutdown`
    /// before `into_forest` moves the forest out.
    unsafe fn open(forest: &CitrusForest<K, V, F>) -> Self {
        // SAFETY: the caller keeps `forest` in place for the session's life.
        let forest: &'static CitrusForest<K, V, F> = unsafe { &*std::ptr::from_ref(forest) };
        Self(forest.session())
    }
}

/// The executor state of one shard: used only by the flag holder.
struct Executor<K: 'static, V: 'static, F: RcuFlavor> {
    /// Opened on the first pass, dropped by `shutdown`.
    session: Option<ExecSession<K, V, F>>,
    since_recycle: u64,
    /// The `serve/drain/ack-before-apply` mutant stashes at most one
    /// acknowledged-but-unexecuted write here. The stash is applied after
    /// the *next* request executes (that misordering is the planted
    /// bug), before a session recycle, and at shutdown — so even the
    /// mutant never loses an acknowledged write, it only reorders it. It
    /// belongs to the shard, not to a pass: a stash dropped with its pass
    /// would reach no later request and hide the reordering.
    stash: Option<Request<K, V>>,
}

struct Shard<K: 'static, V: 'static, F: RcuFlavor> {
    queue: BatchQueue<Envelope<K, V>>,
    exec: Mutex<Executor<K, V, F>>,
}

struct ServerInner<K: 'static, V: 'static, F: RcuFlavor> {
    /// Declared before `forest`: the executor sessions borrow the forest
    /// and must drop first.
    shards: Vec<Shard<K, V, F>>,
    forest: CitrusForest<K, V, F>,
    config: ServeConfig,
    counters: ServeCounters,
    metrics: ServeMetrics,
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

impl<K, V, F> Executor<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn session(&mut self, forest: &CitrusForest<K, V, F>) -> &mut ForestSession<'static, K, V, F> {
        // SAFETY: `forest` is the server's own (see `ExecSession::open`).
        &mut self
            .session
            .get_or_insert_with(|| unsafe { ExecSession::open(forest) })
            .0
    }

    fn apply_stash(&mut self, forest: &CitrusForest<K, V, F>) {
        if let Some(prev) = self.stash.take() {
            let _ = exec(self.session(forest), prev);
        }
    }

    /// Executes one request and returns its response. The counters
    /// include the request before the response can reach its client.
    fn run(&mut self, inner: &ServerInner<K, V, F>, req: Request<K, V>) -> Response<K, V> {
        let forest = &inner.forest;
        if chaos::mutant_enabled("serve/drain/ack-before-apply") && req.is_write() {
            self.apply_stash(forest);
            let session = self.session(forest);
            let predicted = match &req {
                Request::Insert(k, _) => Response::Flag(!session.contains(k)),
                Request::Remove(k) => Response::Flag(session.contains(k)),
                _ => unreachable!("is_write() covers exactly insert/remove"),
            };
            inner.counters.acked_writes.fetch_add(1, Ordering::Relaxed);
            self.stash = Some(req);
            return predicted;
        }
        let is_write = req.is_write();
        let resp = exec(self.session(forest), req);
        inner.counters.executed.fetch_add(1, Ordering::Relaxed);
        if is_write {
            inner.counters.acked_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.apply_stash(forest);
        self.since_recycle += 1;
        if inner.config.recycle_ops > 0 && self.since_recycle >= inner.config.recycle_ops {
            // SAFETY: `forest` is the server's own (see `ExecSession::open`).
            self.session = Some(unsafe { ExecSession::open(forest) });
            inner
                .counters
                .recycled_sessions
                .fetch_add(1, Ordering::Relaxed);
            self.since_recycle = 0;
        }
        resp
    }
}

/// Releases a shard's executor flag if its holder unwinds before the
/// pass released it, so a panic in the holder's own request does not
/// wedge the shard.
struct ReleaseOnUnwind<'a, K, V>(Option<&'a BatchQueue<Envelope<K, V>>>);

impl<K, V> Drop for ReleaseOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        if let Some(queue) = self.0 {
            queue.release();
        }
    }
}

/// How many queued requests a pass may serve.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// A combining pass: at most `batch_max` requests of other callers.
    Combine,
    /// `resume`'s drain: until the queue is empty.
    Drain,
    /// `shutdown`'s drain: until the queue is empty, then apply the
    /// stash and drop the session.
    Final,
}

impl<K, V, F> ServerInner<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    /// Runs one executor pass on `shard`: `own` first (the submitting
    /// caller's request), then queued requests from the front. The caller
    /// holds the executor flag; the pass releases it.
    fn pass(&self, shard: usize, own: Option<Request<K, V>>, kind: Pass) -> Option<Response<K, V>> {
        let shard = &self.shards[shard];
        let mut release = ReleaseOnUnwind(Some(&shard.queue));
        let mut exec = shard.exec.lock().unwrap_or_else(PoisonError::into_inner);
        chaos::point!("serve/batch/drain");
        let own = own.map(|req| exec.run(self, req));
        let budget = match kind {
            Pass::Combine => self.config.batch_max,
            Pass::Drain | Pass::Final => usize::MAX,
        };
        let mut served = 0;
        let mut next = |served| {
            let env = shard.queue.next(served < budget);
            if env.is_none() {
                // `next` released the flag.
                release.0 = None;
            }
            env
        };
        while let Some(env) = next(served) {
            served += 1;
            // A panic in another caller's request belongs to that caller:
            // its ticket's `wait` resumes it, and this pass goes on.
            let resp = panic::catch_unwind(AssertUnwindSafe(|| exec.run(self, env.req)));
            env.slot.deliver(resp);
        }
        if kind == Pass::Final {
            // The queue is closed and empty, so no one can take the flag
            // again: settle the stash and drop the session while the
            // forest is still in place.
            exec.apply_stash(&self.forest);
            exec.session = None;
        }
        drop(exec);
        let ran = served + usize::from(own.is_some());
        if ran > 0 {
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            self.metrics.batch_size.record(ran as u64);
        }
        if kind == Pass::Combine {
            self.counters
                .most_served_for_others
                .fetch_max(served as u64, Ordering::Relaxed);
        }
        own
    }

    /// Drains `shard` to empty on the calling thread, waiting for a busy
    /// executor to finish first.
    fn drain(&self, shard: usize, kind: Pass) {
        self.shards[shard].queue.acquire_wait();
        self.pass(shard, None, kind);
    }
}

impl<K, V, F> TakeOver for ServerInner<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn take_over(&self, shard: usize) {
        if self.shards[shard].queue.acquire() {
            self.pass(shard, None, Pass::Combine);
        }
    }
}

/// The combining, backpressured request layer over a [`CitrusForest`].
///
/// Construction spawns no thread: requests run on the threads that submit
/// them (see the [module docs](self)). [`Drop`] (or an explicit
/// [`shutdown`](Server::shutdown)) closes admission and drains every
/// queued request on the calling thread — no acknowledged write is ever
/// lost to a shutdown.
pub struct Server<K, V, F: RcuFlavor = ScalableRcu>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    inner: Arc<ServerInner<K, V, F>>,
    closed: AtomicBool,
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
    /// Takes ownership of `forest` and sets up one queue and executor slot
    /// per shard. Spawns no thread.
    #[must_use]
    pub fn with_config(forest: CitrusForest<K, V, F>, config: ServeConfig) -> Self {
        let shards = (0..forest.shard_count())
            .map(|_| Shard {
                queue: BatchQueue::new(),
                exec: Mutex::new(Executor {
                    session: None,
                    since_recycle: 0,
                    stash: None,
                }),
            })
            .collect();
        Self {
            inner: Arc::new(ServerInner {
                shards,
                forest,
                config,
                counters: ServeCounters::default(),
                metrics: ServeMetrics::new(),
            }),
            closed: AtomicBool::new(false),
        }
    }

    /// Routes `req` to its shard. If the shard is idle the request runs
    /// now, on this thread, and the caller then serves up to `batch_max`
    /// requests that queued behind it; the returned [`Ticket`] is already
    /// resolved. Otherwise the request queues and the ticket resolves
    /// later. On rejection the caller owns the back-off (the blocking
    /// [`ServeSession`] API does it for you).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] past the high-water mark,
    /// [`SubmitError::Closed`] after shutdown began.
    pub fn submit(&self, req: Request<K, V>) -> Result<Ticket<K, V>, SubmitError<K, V>> {
        let inner = &*self.inner;
        let shard = inner.forest.shard_for(req.route_key());
        chaos::point!("serve/batch/enqueue");
        let slot = Arc::new(Slot::new());
        let env = Envelope {
            req,
            slot: Arc::clone(&slot),
        };
        match inner.shards[shard]
            .queue
            .admit(env, inner.config.high_water)
        {
            Ok(Admission::Run(env)) => {
                inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
                let resp = inner.pass(shard, Some(env.req), Pass::Combine);
                Ok(Ticket {
                    state: TicketState::Done(resp),
                })
            }
            Ok(Admission::Queued { depth, execute }) => {
                inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
                inner.metrics.depth_hwm.observe(depth as u64);
                if execute {
                    inner.pass(shard, None, Pass::Combine);
                }
                let server: Weak<dyn TakeOver> = Arc::downgrade(&self.inner) as _;
                Ok(Ticket {
                    state: TicketState::Queued {
                        slot,
                        server,
                        shard,
                    },
                })
            }
            Err(OfferError::Rejected { item, depth }) => {
                chaos::point!("serve/admission/reject");
                inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Rejected {
                    req: item.req,
                    retry_after: inner.config.retry_after,
                    depth,
                })
            }
            Err(OfferError::Closed(item)) => Err(SubmitError::Closed(item.req)),
        }
    }

    /// Number of shards (== queues).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard `key` routes to (the forest router's verdict).
    #[must_use]
    pub fn shard_for(&self, key: &K) -> usize {
        self.inner.forest.shard_for(key)
    }

    /// Current depth of one shard queue (racy, for reporting/tests). A
    /// request run at once by its submitter never counts.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    #[must_use]
    pub fn queue_len(&self, shard: usize) -> usize {
        self.inner.shards[shard].queue.len()
    }

    /// The always-on request counters.
    #[must_use]
    pub fn counters(&self) -> &ServeCounters {
        &self.inner.counters
    }

    /// The `stats`-gated latency/pass-size instruments.
    #[must_use]
    pub fn metrics(&self) -> &ServeMetrics {
        &self.inner.metrics
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Stops every shard from executing (admission continues, and every
    /// admitted request queues): the deterministic way to fill queues up
    /// to the high-water mark in tests. Shutdown overrides a pause, so a
    /// paused server still drains cleanly.
    pub fn pause(&self) {
        for shard in &self.inner.shards {
            shard.queue.pause();
        }
    }

    /// Undoes [`pause`](Server::pause) and drains every queue on the
    /// calling thread.
    pub fn resume(&self) {
        for (i, shard) in self.inner.shards.iter().enumerate() {
            shard.queue.resume();
            self.inner.drain(i, Pass::Drain);
        }
    }

    /// Graceful shutdown: closes admission, then drains every queue to
    /// empty on the calling thread (delivering all outstanding
    /// responses) and drops the executor sessions. Idempotent; also run
    /// by [`Drop`].
    pub fn shutdown(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.inner.shards {
            shard.queue.close();
        }
        for i in 0..self.inner.shards.len() {
            chaos::point!("serve/shutdown/drain");
            self.inner.drain(i, Pass::Final);
        }
    }

    /// Shuts down (draining as above) and hands back the forest, e.g. for
    /// `validate_structure` / `to_vec_quiescent` replay checks.
    #[must_use]
    pub fn into_forest(self) -> CitrusForest<K, V, F> {
        self.shutdown();
        let mut inner = Arc::clone(&self.inner);
        drop(self);
        // A ticket that raced the shutdown may still hold its server
        // handle for a moment; nothing is left for it to run.
        let inner = loop {
            match Arc::try_unwrap(inner) {
                Ok(inner) => break inner,
                Err(again) => {
                    inner = again;
                    std::thread::yield_now();
                }
            }
        };
        // `shutdown` already dropped the sessions that borrow the forest.
        inner.forest
    }
}

impl<K, V, F> Drop for Server<K, V, F>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    F: RcuFlavor,
{
    fn drop(&mut self) {
        self.shutdown();
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
            .field("config", &self.inner.config)
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

/// A client handle: submits through the full admission/execution/response path
/// and blocks for each response, honoring `retry-after` back-off on
/// rejection. This is the adapter the end-to-end lincheck and conformance
/// suites drive — through it, `citrus-serve` *is* a [`ConcurrentMap`].
pub struct ServeSession<'s, K, V, F: RcuFlavor = ScalableRcu>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    server: &'s Server<K, V, F>,
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
            rejections: 0,
        }
    }

    /// How many times this session has been turned away at the high-water
    /// mark (and backed off as told).
    #[must_use]
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Submits `req`, sleeping `retry_after` and resubmitting on each
    /// rejection, and blocks for the response.
    ///
    /// # Errors
    ///
    /// [`ServerClosed`] if the server shut down before the request was
    /// admitted.
    pub fn try_call(&mut self, mut req: Request<K, V>) -> Result<Response<K, V>, ServerClosed> {
        let class = req.class();
        let sw = Stopwatch::start();
        loop {
            match self.server.submit(req) {
                Ok(ticket) => {
                    let resp = ticket.wait();
                    self.server
                        .inner
                        .metrics
                        .latency(class)
                        .record(sw.elapsed_ns());
                    return Ok(resp);
                }
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
        let forest = CitrusForest::with_options(4, 7, ReclaimMode::Epoch, false);
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
    fn pause_defers_execution_until_resume() {
        let server = small_server();
        server.pause();
        let ticket = server.submit(Request::Insert(3, 30)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(!ticket.is_ready(), "a paused shard must not execute");
        server.resume();
        assert_eq!(ticket.wait(), Response::Flag(true));
    }

    #[test]
    fn request_classes_and_routing_keys() {
        let req: Request<u64, u64> = Request::Scan(4, 9);
        assert_eq!(req.class(), OpClass::Scan);
        assert_eq!(*req.route_key(), 4, "scans route by their low bound");
        assert!(Request::<u64, u64>::Insert(1, 2).is_write());
        assert!(!Request::<u64, u64>::Contains(1).is_write());
        assert_eq!(OpClass::Write.label(), "write");
    }
}
