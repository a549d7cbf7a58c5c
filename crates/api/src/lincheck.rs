//! Linearizability checking for [`ConcurrentMap`] implementations:
//! recorded concurrent histories plus a Wing–Gong/Lowe (WGL) checker.
//!
//! The paper's central correctness claim (§4) is that Citrus is
//! *linearizable*. The [`testkit`](crate::testkit) batteries enforce
//! strong heuristic invariants (quiescent agreement, lost-update
//! detection, insert exclusivity), but none of them would catch a
//! stale-read anomaly that violates real-time order — a `get` returning a
//! value the key no longer held when the `get` *started*. This module is
//! the machine-checked stand-in for the paper's proof:
//!
//! 1. A **history recorder** ([`HistoryRecorder`] / [`RecordedSession`])
//!    wraps any [`MapSession`] and logs one invocation/response event pair
//!    per operation into a *per-thread append-only buffer*. The only
//!    shared state on the hot path is a single global ticket clock (an
//!    atomic `fetch_add` per event — no lock): an operation's true
//!    linearization point lies between its two ticket draws, so ticket
//!    order is a sound real-time precedence relation (`a` precedes `b`
//!    iff `a`'s response ticket < `b`'s invocation ticket).
//! 2. A **WGL checker** ([`check_history`]) decides whether a recorded
//!    history has a linearization: a total order of the operations that
//!    respects real-time precedence and replays correctly against the
//!    sequential map specification. The search is a DFS over "linearize
//!    any currently-eligible operation next" with memoized
//!    `(linearized-set, state)` pruning. Because the dictionary has *set
//!    semantics* — each operation reads and writes the presence/value of
//!    exactly one key — the history is first partitioned per key and each
//!    per-key subhistory is checked independently, which keeps the search
//!    tractable (the full-history search space is the product of the
//!    per-key ones; see DESIGN.md §6f for the compositionality argument).
//! 3. On failure the offending per-key subhistory is cut at its **first
//!    violation** (the shortest failing prefix) and **shrunk** to a
//!    1-minimal non-linearizable sub-history (greedily dropping every
//!    operation whose removal preserves the violation, except the insert
//!    behind a value a kept read returns) and pretty-printed in timestamp
//!    order.
//!
//! [`check_linearizable`] drives the whole pipeline from a seed: run a
//! mixed workload, record, dump the history to a file (forensic evidence
//! even if the checker itself is interrupted), check, delete the dump if
//! the history passes, and return a [`LincheckFailure`] — the minimal
//! counterexample plus that check's own dump path — on violation.
//! [`sweep_lincheck_chaos_seeds`] layers the chaos failpoint subsystem on
//! top to diversify the interleavings each seed explores.
//!
//! # Preconditions
//!
//! The checker assumes the map was **empty** when recording began and
//! that every recorded operation completed (crash-free histories; a
//! [`RecordedSession`] logs the response event after the inner call
//! returns, so a panicking operation simply never enters the history).

use crate::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos::{install as install_chaos, ChaosPlan};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// One recorded operation (invocation kind and arguments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `insert(key, value)`.
    Insert {
        /// The inserted key.
        key: u64,
        /// The inserted value.
        value: u64,
    },
    /// `remove(key)`.
    Remove {
        /// The removed key.
        key: u64,
    },
    /// `get(key)`.
    Get {
        /// The queried key.
        key: u64,
    },
    /// `contains(key)`.
    Contains {
        /// The queried key.
        key: u64,
    },
    /// `range_scan(lo, hi)` (inclusive bounds).
    RangeScan {
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
    },
    /// `successor(key)`.
    Successor {
        /// The probe key (exclusive lower bound of the query).
        key: u64,
    },
    /// `predecessor(key)`.
    Predecessor {
        /// The probe key (exclusive upper bound of the query).
        key: u64,
    },
}

impl Op {
    /// The single key a *point* operation touches (the basis for per-key
    /// partitioning), or `None` for ordered reads, which constrain a key
    /// region instead of one key.
    #[must_use]
    pub fn key(&self) -> Option<u64> {
        match *self {
            Op::Insert { key, .. }
            | Op::Remove { key }
            | Op::Get { key }
            | Op::Contains { key } => Some(key),
            Op::RangeScan { .. } | Op::Successor { .. } | Op::Predecessor { .. } => None,
        }
    }
}

/// A recorded response.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ret {
    /// `insert` / `remove` / `contains` result.
    Granted(bool),
    /// `get` result.
    Found(Option<u64>),
    /// `range_scan` result: entries in ascending key order.
    Entries(Vec<(u64, u64)>),
    /// `successor` / `predecessor` result.
    Entry(Option<(u64, u64)>),
}

/// One completed operation in a history: real-time interval (ticket
/// clock), issuing thread, invocation, and response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedOp {
    /// Recorder lane (thread index) that issued the operation.
    pub thread: usize,
    /// Invocation ticket — drawn immediately before the inner call.
    pub inv: u64,
    /// Response ticket — drawn immediately after the inner call returned.
    pub ret_at: u64,
    /// The operation.
    pub op: Op,
    /// Its response.
    pub ret: Ret,
}

impl fmt::Display for RecordedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[inv {:>6} → ret {:>6}] thread {}: ",
            self.inv, self.ret_at, self.thread
        )?;
        match (&self.op, &self.ret) {
            (Op::Insert { key, value }, Ret::Granted(g)) => {
                write!(f, "insert({key}, value {value}) → {g}")
            }
            (Op::Remove { key }, Ret::Granted(g)) => write!(f, "remove({key}) → {g}"),
            (Op::Contains { key }, Ret::Granted(g)) => write!(f, "contains({key}) → {g}"),
            (Op::Get { key }, Ret::Found(v)) => write!(f, "get({key}) → {v:?}"),
            (Op::RangeScan { lo, hi }, Ret::Entries(es)) => {
                write!(f, "range_scan({lo}..={hi}) → {es:?}")
            }
            (Op::Successor { key }, Ret::Entry(e)) => write!(f, "successor({key}) → {e:?}"),
            (Op::Predecessor { key }, Ret::Entry(e)) => write!(f, "predecessor({key}) → {e:?}"),
            (op, ret) => write!(f, "<malformed op/ret pairing {op:?} / {ret:?}>"),
        }
    }
}

/// A complete concurrent history: every completed operation from every
/// recorder lane, merged and sorted by invocation ticket.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// The operations, sorted by invocation ticket.
    pub ops: Vec<RecordedOp>,
}

impl History {
    /// Merges per-thread logs into one history (sorted by invocation
    /// ticket).
    #[must_use]
    pub fn from_thread_logs(logs: Vec<Vec<RecordedOp>>) -> Self {
        let mut ops: Vec<RecordedOp> = logs.into_iter().flatten().collect();
        ops.sort_by_key(|o| o.inv);
        Self { ops }
    }

    /// Renders the whole history, one operation per line, in invocation
    /// order.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&format!("{op}\n"));
        }
        out
    }
}

/// Issues monotonic event tickets and builds [`RecordedSession`]s.
///
/// One recorder serves one concurrent run: create it, wrap every worker's
/// session via [`wrap`](Self::wrap), and merge the finished per-thread
/// logs with [`History::from_thread_logs`].
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    clock: AtomicU64,
}

impl HistoryRecorder {
    /// Creates a recorder with the ticket clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps `session` so every operation through it is logged under lane
    /// `thread`. The log is thread-private (append-only `Vec`); only the
    /// ticket clock is shared.
    pub fn wrap<S>(&self, thread: usize, session: S) -> RecordedSession<'_, S> {
        RecordedSession {
            clock: &self.clock,
            thread,
            log: Vec::new(),
            inner: session,
        }
    }
}

/// A [`MapSession`] wrapper that records every operation (see
/// [`HistoryRecorder`]).
#[derive(Debug)]
pub struct RecordedSession<'c, S> {
    clock: &'c AtomicU64,
    thread: usize,
    log: Vec<RecordedOp>,
    inner: S,
}

impl<S> RecordedSession<'_, S> {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Consumes the wrapper, returning this lane's log.
    #[must_use]
    pub fn finish(self) -> Vec<RecordedOp> {
        self.log
    }
}

impl<S: MapSession<u64, u64>> MapSession<u64, u64> for RecordedSession<'_, S> {
    fn get(&mut self, key: &u64) -> Option<u64> {
        let inv = self.tick();
        let r = self.inner.get(key);
        let ret_at = self.tick();
        self.log.push(RecordedOp {
            thread: self.thread,
            inv,
            ret_at,
            op: Op::Get { key: *key },
            ret: Ret::Found(r),
        });
        r
    }

    fn contains(&mut self, key: &u64) -> bool {
        let inv = self.tick();
        let r = self.inner.contains(key);
        let ret_at = self.tick();
        self.log.push(RecordedOp {
            thread: self.thread,
            inv,
            ret_at,
            op: Op::Contains { key: *key },
            ret: Ret::Granted(r),
        });
        r
    }

    fn insert(&mut self, key: u64, value: u64) -> bool {
        let inv = self.tick();
        let r = self.inner.insert(key, value);
        let ret_at = self.tick();
        self.log.push(RecordedOp {
            thread: self.thread,
            inv,
            ret_at,
            op: Op::Insert { key, value },
            ret: Ret::Granted(r),
        });
        r
    }

    fn remove(&mut self, key: &u64) -> bool {
        let inv = self.tick();
        let r = self.inner.remove(key);
        let ret_at = self.tick();
        self.log.push(RecordedOp {
            thread: self.thread,
            inv,
            ret_at,
            op: Op::Remove { key: *key },
            ret: Ret::Granted(r),
        });
        r
    }
}

impl<S: OrderedMapSession<u64, u64>> OrderedMapSession<u64, u64> for RecordedSession<'_, S> {
    fn range_scan(&mut self, lo: &u64, hi: &u64) -> Vec<(u64, u64)> {
        let inv = self.tick();
        let r = self.inner.range_scan(lo, hi);
        let ret_at = self.tick();
        self.log.push(RecordedOp {
            thread: self.thread,
            inv,
            ret_at,
            op: Op::RangeScan { lo: *lo, hi: *hi },
            ret: Ret::Entries(r.clone()),
        });
        r
    }

    fn successor(&mut self, key: &u64) -> Option<(u64, u64)> {
        let inv = self.tick();
        let r = self.inner.successor(key);
        let ret_at = self.tick();
        self.log.push(RecordedOp {
            thread: self.thread,
            inv,
            ret_at,
            op: Op::Successor { key: *key },
            ret: Ret::Entry(r),
        });
        r
    }

    fn predecessor(&mut self, key: &u64) -> Option<(u64, u64)> {
        let inv = self.tick();
        let r = self.inner.predecessor(key);
        let ret_at = self.tick();
        self.log.push(RecordedOp {
            thread: self.thread,
            inv,
            ret_at,
            op: Op::Predecessor { key: *key },
            ret: Ret::Entry(r),
        });
        r
    }
}

/// A linearizability violation: the minimal (greedily shrunk) offending
/// sub-history on one key component.
#[derive(Debug, Clone)]
pub struct NonLinearizable {
    /// The keys the offending sub-history touches or observed (one key
    /// for a point-op violation; several when an ordered read is
    /// involved).
    pub keys: Vec<u64>,
    /// The 1-minimal non-linearizable sub-history, in invocation order.
    /// It keeps the insert behind every value a kept read returns.
    pub ops: Vec<RecordedOp>,
    /// Where the first violation happens: the response ticket that ends
    /// the shortest failing prefix. The events up to and including this
    /// ticket are already non-linearizable, and every shorter prefix is
    /// linearizable. `ops` comes from this prefix.
    pub cut: u64,
    /// Operations invoked within that prefix, out of the whole history.
    pub prefix_ops: usize,
}

impl fmt::Display for NonLinearizable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let keys = self
            .keys
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(
            f,
            "minimal non-linearizable sub-history on key(s) {keys} ({} ops, invocation order):",
            self.ops.len()
        )?;
        writeln!(
            f,
            "  first violation: the history up to ticket {} is already non-linearizable \
             ({} operations invoked by then)",
            self.cut, self.prefix_ops
        )?;
        for op in &self.ops {
            if op.ret_at > self.cut {
                writeln!(f, "  {op}  [responded after the cut]")?;
            } else {
                writeln!(f, "  {op}")?;
            }
        }
        write!(
            f,
            "  (no total order of these operations both respects their real-time \
             intervals and replays against the sequential map spec)"
        )
    }
}

/// Replays `op` against the single-key sequential spec state (`None` =
/// absent, `Some(v)` = present with value `v`); returns the post-state,
/// or `None` when the recorded response is impossible from `state`.
///
/// # Panics
///
/// Panics on a malformed op/ret pairing (e.g. an `Insert` recorded with a
/// `Found` response) — that is recorder corruption, not a linearizability
/// verdict.
fn apply(op: &RecordedOp, state: Option<u64>) -> Option<Option<u64>> {
    match (&op.op, &op.ret) {
        (Op::Insert { value, .. }, Ret::Granted(true)) => state.is_none().then_some(Some(*value)),
        (Op::Insert { .. }, Ret::Granted(false)) => state.is_some().then_some(state),
        (Op::Remove { .. }, Ret::Granted(true)) => state.is_some().then_some(None),
        (Op::Remove { .. }, Ret::Granted(false)) => state.is_none().then_some(None),
        (Op::Get { .. }, Ret::Found(v)) => (state == *v).then_some(state),
        (Op::Contains { .. }, Ret::Granted(present)) => {
            (state.is_some() == *present).then_some(state)
        }
        (op, ret) => panic!("malformed history: op {op:?} recorded with response {ret:?}"),
    }
}

/// Replays `op` against a multi-key sequential spec state (the map
/// restricted to one key component); returns the post-state, or `None`
/// when the recorded response is impossible from `state`.
///
/// Used for components that contain ordered reads — a `RangeScan` /
/// `Successor` / `Predecessor` constrains a whole key region at once, so
/// its component tracks every key in that region.
///
/// # Panics
///
/// Panics on a malformed op/ret pairing (recorder corruption).
fn apply_multi(op: &RecordedOp, state: &BTreeMap<u64, u64>) -> Option<BTreeMap<u64, u64>> {
    match (&op.op, &op.ret) {
        (Op::Insert { key, value }, Ret::Granted(true)) => (!state.contains_key(key)).then(|| {
            let mut next = state.clone();
            next.insert(*key, *value);
            next
        }),
        (Op::Insert { key, .. }, Ret::Granted(false)) => {
            state.contains_key(key).then(|| state.clone())
        }
        (Op::Remove { key }, Ret::Granted(true)) => state.contains_key(key).then(|| {
            let mut next = state.clone();
            next.remove(key);
            next
        }),
        (Op::Remove { key }, Ret::Granted(false)) => {
            (!state.contains_key(key)).then(|| state.clone())
        }
        (Op::Get { key }, Ret::Found(v)) => (state.get(key).copied() == *v).then(|| state.clone()),
        (Op::Contains { key }, Ret::Granted(present)) => {
            (state.contains_key(key) == *present).then(|| state.clone())
        }
        (Op::RangeScan { lo, hi }, Ret::Entries(es)) => {
            let expect: Vec<(u64, u64)> = if lo <= hi {
                state.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
            } else {
                Vec::new()
            };
            (*es == expect).then(|| state.clone())
        }
        (Op::Successor { key }, Ret::Entry(e)) => {
            let expect = state
                .range((std::ops::Bound::Excluded(*key), std::ops::Bound::Unbounded))
                .next()
                .map(|(&k, &v)| (k, v));
            (*e == expect).then(|| state.clone())
        }
        (Op::Predecessor { key }, Ret::Entry(e)) => {
            let expect = state.range(..*key).next_back().map(|(&k, &v)| (k, v));
            (*e == expect).then(|| state.clone())
        }
        (op, ret) => panic!("malformed history: op {op:?} recorded with response {ret:?}"),
    }
}

#[inline]
fn bit(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

#[inline]
fn clear_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] &= !(1 << (i % 64));
}

/// An abstract sequential-spec state the WGL search walks: a step
/// replays one recorded operation, and a memo key identifies the state
/// for the visited-configuration set.
trait SpecState: Default + Sized {
    /// What the memo stores to recognise this state again.
    type Memo: Eq + std::hash::Hash;

    /// The post-state of replaying `op`, or `None` when its recorded
    /// response is impossible from `self`.
    fn step(&self, op: &RecordedOp) -> Option<Self>;

    fn memo_key(&self) -> Self::Memo;
}

/// One key's value (absent or present): the state of a component whose
/// operations are all point operations on that key.
impl SpecState for Option<u64> {
    type Memo = Self;

    fn step(&self, op: &RecordedOp) -> Option<Self> {
        apply(op, *self)
    }

    fn memo_key(&self) -> Self {
        *self
    }
}

/// The map restricted to a component's keys, for components containing
/// ordered reads; memoized as a sorted entry list.
impl SpecState for BTreeMap<u64, u64> {
    type Memo = Vec<(u64, u64)>;

    fn step(&self, op: &RecordedOp) -> Option<Self> {
        apply_multi(op, self)
    }

    fn memo_key(&self) -> Vec<(u64, u64)> {
        self.iter().map(|(&k, &v)| (k, v)).collect()
    }
}

/// Wing–Gong DFS with Lowe's memoization over one component's
/// subhistory, starting from the empty state `S::default()`: `true` iff
/// a linearization exists.
///
/// An operation is *eligible* next iff no other still-unlinearized
/// operation responded before it was invoked (real-time precedence must
/// be respected). Visited `(linearized-set, state)` configurations are
/// memoized: reaching the same set of linearized operations with the same
/// abstract state again cannot succeed where the first visit failed.
///
/// An operation with `ret_at == PENDING` had not responded when the
/// history was cut: it may linearize anywhere after its invocation, or
/// not at all, and it never constrains another operation's position.
fn is_linearizable<S: SpecState>(ops: &[RecordedOp]) -> bool {
    let n = ops.len();
    if n == 0 {
        return true;
    }
    let mut done = vec![0u64; n.div_ceil(64)];
    let mut memo = HashSet::new();
    dfs(ops, &mut done, required(ops), &S::default(), &mut memo)
}

/// The response ticket of an operation still running at a cut.
const PENDING: u64 = u64::MAX;

/// How many operations a linearization must include: every one that
/// responded.
fn required(ops: &[RecordedOp]) -> usize {
    ops.iter().filter(|o| o.ret_at != PENDING).count()
}

fn dfs<S: SpecState>(
    ops: &[RecordedOp],
    done: &mut [u64],
    left: usize,
    state: &S,
    memo: &mut HashSet<(Box<[u64]>, S::Memo)>,
) -> bool {
    if left == 0 {
        return true;
    }
    if !memo.insert((done.to_vec().into_boxed_slice(), state.memo_key())) {
        return false;
    }
    // Smallest and second-smallest response tickets among pending ops:
    // op `i` is eligible iff its invocation precedes every *other*
    // pending op's response.
    let (mut min1, mut min1_at, mut min2) = (u64::MAX, usize::MAX, u64::MAX);
    for (i, op) in ops.iter().enumerate() {
        if bit(done, i) {
            continue;
        }
        if op.ret_at < min1 {
            (min2, min1, min1_at) = (min1, op.ret_at, i);
        } else if op.ret_at < min2 {
            min2 = op.ret_at;
        }
    }
    for (i, op) in ops.iter().enumerate() {
        if bit(done, i) {
            continue;
        }
        let earliest_other_ret = if i == min1_at { min2 } else { min1 };
        if earliest_other_ret < op.inv {
            continue; // some pending op completed before this one started
        }
        if let Some(next) = state.step(op) {
            set_bit(done, i);
            let left = left - usize::from(op.ret_at != PENDING);
            if dfs(ops, done, left, &next, memo) {
                return true;
            }
            clear_bit(done, i);
        }
    }
    false
}

/// Dispatches a component to the cheapest sound state: `Option<u64>`
/// when every op is a point op on one key, otherwise the multi-key map.
fn component_linearizable(ops: &[RecordedOp]) -> bool {
    match ops.first().and_then(|o| o.op.key()) {
        Some(k0) if ops.iter().all(|o| o.op.key() == Some(k0)) => {
            is_linearizable::<Option<u64>>(ops)
        }
        _ => is_linearizable::<BTreeMap<u64, u64>>(ops),
    }
}

/// The component cut at response ticket `cut`: the operations invoked
/// before it, with those still running at the cut marked [`PENDING`].
fn cut_at(ops: &[RecordedOp], cut: u64) -> Vec<RecordedOp> {
    ops.iter()
        .filter(|o| o.inv < cut)
        .map(|o| RecordedOp {
            ret_at: if o.ret_at > cut { PENDING } else { o.ret_at },
            ..o.clone()
        })
        .collect()
}

/// The response ticket ending the shortest non-linearizable prefix of a
/// non-linearizable component. Failure is monotone in the cut (a
/// linearization of a longer prefix, cut at a shorter one, linearizes
/// the shorter one), so a binary search over the response tickets finds
/// it.
fn first_failing_cut(ops: &[RecordedOp]) -> u64 {
    let mut cuts: Vec<u64> = ops.iter().map(|o| o.ret_at).collect();
    cuts.sort_unstable();
    let first = cuts.partition_point(|&cut| component_linearizable(&cut_at(ops, cut)));
    cuts[first.min(cuts.len() - 1)]
}

/// Whether `ops[i]` is the insert behind a value another operation in
/// `ops` returned: a read's counterexample must show where its value
/// came from.
fn supports_a_read(ops: &[RecordedOp], i: usize) -> bool {
    let (Op::Insert { key, value }, Ret::Granted(true)) = (&ops[i].op, &ops[i].ret) else {
        return false;
    };
    let entry = (*key, *value);
    ops.iter().enumerate().any(|(j, o)| {
        j != i
            && match &o.ret {
                Ret::Found(Some(v)) => o.op.key() == Some(*key) && *v == *value,
                Ret::Entries(es) => es.contains(&entry),
                Ret::Entry(e) => *e == Some(entry),
                _ => false,
            }
    })
}

/// Greedily shrinks a non-linearizable component subhistory to a core
/// that is 1-minimal among the operations it may drop: repeatedly drop
/// any operation whose removal preserves non-linearizability, until no
/// single removal does. The insert behind a value a kept read returns is
/// never dropped, or the core would blame a read for a write it omits.
fn shrink(mut ops: Vec<RecordedOp>) -> Vec<RecordedOp> {
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < ops.len() {
            if supports_a_read(&ops, i) {
                i += 1;
                continue;
            }
            let mut candidate = ops.clone();
            candidate.remove(i);
            if !component_linearizable(&candidate) {
                ops = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            return ops;
        }
    }
}

/// Localizes a non-linearizable component whose first failing cut is
/// `cut`: the core shrunk from the prefix it ends, reported with the
/// original response tickets.
fn localize(ops: &[RecordedOp], cut: u64, history: &History) -> NonLinearizable {
    let core = shrink(cut_at(ops, cut));
    let ops: Vec<RecordedOp> = core
        .iter()
        .map(|c| {
            ops.iter()
                .find(|o| (o.thread, o.inv, &o.op, &o.ret) == (c.thread, c.inv, &c.op, &c.ret))
                .expect("the core comes from the component")
                .clone()
        })
        .collect();
    NonLinearizable {
        keys: touched_keys(&ops),
        ops,
        cut,
        prefix_ops: history.ops.iter().filter(|o| o.inv < cut).count(),
    }
}

/// The keys a (shrunk) counterexample touches or observed: point-op keys
/// plus every key an ordered read returned.
fn touched_keys(ops: &[RecordedOp]) -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::new();
    for op in ops {
        if let Some(k) = op.op.key() {
            keys.push(k);
        }
        match &op.ret {
            Ret::Entries(es) => keys.extend(es.iter().map(|(k, _)| *k)),
            Ret::Entry(Some((k, _))) => keys.push(*k),
            _ => {}
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Disjoint-set forest over relevant-key indices (path-halving `find`).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra] = rb;
    }
}

/// Checks a recorded history for linearizability against the sequential
/// map specification (empty initial state).
///
/// The history is partitioned into independent *key components* (sound
/// for set semantics: the spec is a product of independent single-key
/// cells, so a linearization exists iff one exists per component).
/// Point ops touch exactly one key; an ordered read (`RangeScan` /
/// `Successor` / `Predecessor`) constrains a whole key region, so every
/// *relevant* key in its region — a key some point op touches or some
/// ordered read returned — is unioned into one component. Keys no
/// operation ever touches or observes are absent at every instant (the
/// map starts empty), so they impose no cross-component constraints.
/// Point-only components run the WGL DFS over a single key's state;
/// components with ordered reads run it over the multi-key map state.
///
/// A violating component is localized to its shortest failing prefix:
/// the earliest response ticket by which the events already admit no
/// linearization (operations still running then may linearize or not).
/// The core is shrunk from that prefix and keeps the insert behind every
/// value a kept read returns.
///
/// # Errors
///
/// Returns the counterexample of the component that fails first in time
/// (ties go to the smallest key).
pub fn check_history(history: &History) -> Result<(), NonLinearizable> {
    // Relevant keys, sorted: point-op keys plus keys ordered reads
    // returned.
    let keys = touched_keys(&history.ops);

    // The half-open index range of relevant keys an ordered read
    // constrains, or `None` when it constrains no relevant key.
    let span = |op: &Op| -> Option<(usize, usize)> {
        match *op {
            Op::RangeScan { lo, hi } => {
                if lo > hi {
                    return None;
                }
                let s = keys.partition_point(|&k| k < lo);
                let e = keys.partition_point(|&k| k <= hi);
                (s < e).then_some((s, e))
            }
            Op::Successor { key } => {
                let s = keys.partition_point(|&k| k <= key);
                (s < keys.len()).then_some((s, keys.len()))
            }
            Op::Predecessor { key } => {
                let e = keys.partition_point(|&k| k < key);
                (e > 0).then_some((0, e))
            }
            _ => None,
        }
    };

    let mut uf = UnionFind::new(keys.len());
    for op in &history.ops {
        if let Some((s, e)) = span(&op.op) {
            for i in s + 1..e {
                uf.union(s, i);
            }
        }
    }

    // Bucket ops by component, ordered by the component's smallest key.
    // Each violating component with its first failing cut.
    let mut failures: Vec<(u64, Vec<RecordedOp>)> = Vec::new();
    let mut components: BTreeMap<usize, Vec<RecordedOp>> = BTreeMap::new();
    let mut min_index_of_root: BTreeMap<usize, usize> = BTreeMap::new();
    for i in 0..keys.len() {
        let root = uf.find(i);
        min_index_of_root.entry(root).or_insert(i);
    }
    for op in &history.ops {
        let anchor = match op.op.key() {
            Some(k) => keys.binary_search(&k).expect("point key is relevant"),
            None => match span(&op.op) {
                Some((s, _)) => s,
                None => {
                    // The ordered read constrains no relevant key: its
                    // whole region is untouched, hence empty at every
                    // instant. It must have observed exactly that.
                    if apply_multi(op, &BTreeMap::new()).is_none() {
                        failures.push((op.ret_at, vec![op.clone()]));
                    }
                    continue;
                }
            },
        };
        let root = uf.find(anchor);
        components
            .entry(min_index_of_root[&root])
            .or_default()
            .push(op.clone());
    }

    for ops in components.into_values() {
        if !component_linearizable(&ops) {
            failures.push((first_failing_cut(&ops), ops));
        }
    }
    // Only the first violation in time (ties to the smallest key) is
    // shrunk and reported.
    match failures.into_iter().min_by_key(|(cut, _)| *cut) {
        Some((cut, ops)) => Err(localize(&ops, cut, history)),
        None => Ok(()),
    }
}

/// Runs a seeded mixed workload (≈40% insert / 30% remove / 30% get over
/// uniform keys in `[0, key_range)`) with `threads` workers of
/// `ops_per_thread` operations each against `map`, recording every
/// operation. Inserted values are unique per `(thread, op)` so a stale
/// `get` pins exactly which insert it observed.
pub fn record_history<M: ConcurrentMap<u64, u64>>(
    map: &M,
    threads: usize,
    ops_per_thread: usize,
    key_range: u64,
    seed: u64,
) -> History {
    assert!(threads > 0, "at least one recording worker required");
    let recorder = HistoryRecorder::new();
    let barrier = Barrier::new(threads);
    let logs: Vec<Vec<RecordedOp>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (recorder, barrier, map) = (&recorder, &barrier, &*map);
                scope.spawn(move || {
                    let mut rng = crate::testkit::SplitMix64::new(
                        seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut session = recorder.wrap(t, map.session());
                    barrier.wait();
                    for i in 0..ops_per_thread {
                        let key = rng.below(key_range);
                        match rng.below(10) {
                            0..=3 => {
                                session.insert(key, ((t as u64) << 32) | i as u64);
                            }
                            4..=6 => {
                                session.remove(&key);
                            }
                            _ => {
                                session.get(&key);
                            }
                        }
                    }
                    session.finish()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recording worker panicked"))
            .collect()
    });
    History::from_thread_logs(logs)
}

/// The most recently written history dump path, if any (process-global).
///
/// Every dump is noted here for one reader only: the
/// [`stress_watchdog`](crate::testkit::stress_watchdog) timeout
/// diagnostic, which has no failure value to read and must point at the
/// forensic evidence a hung lincheck run left behind. Parallel checks
/// overwrite the slot, so a test asserting on its own dump reads
/// [`LincheckFailure::dump`] instead.
static LAST_DUMP: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Records `path` as the most recent history dump.
pub fn note_history_dump(path: &Path) {
    *LAST_DUMP.lock().unwrap() = Some(path.to_path_buf());
}

/// The most recently recorded history dump path, if any.
#[must_use]
pub fn last_history_dump() -> Option<PathBuf> {
    LAST_DUMP.lock().unwrap().clone()
}

/// Per-process dump sequence number: with the process id it makes every
/// dump name unique, so reruns, parallel checks and concurrent test
/// binaries never overwrite each other's evidence.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The directory forensic dumps go to: `CITRUS_LIN_DUMP_DIR`, default
/// the OS temp directory.
pub(crate) fn dump_dir() -> PathBuf {
    std::env::var_os("CITRUS_LIN_DUMP_DIR").map_or_else(std::env::temp_dir, PathBuf::from)
}

/// Writes `body` to a fresh `<stem>_<pid>_<n><suffix>` file under `dir`
/// (created if missing) and returns its path.
pub(crate) fn write_dump(
    dir: &Path,
    stem: &str,
    suffix: &str,
    body: &str,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let n = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let path = dir.join(format!("{stem}_{pid}_{n}{suffix}"));
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Writes the rendered history as
/// `lincheck_<name>_<seed>_<pid>_<n>.history.txt` under `dir` and notes
/// the path for the stress watchdog. Returns `None` (with a warning) if
/// the write fails — dump failure must never mask the actual
/// linearizability verdict.
fn dump_history(dir: &Path, name: &str, seed: u64, history: &History) -> Option<PathBuf> {
    let body = format!(
        "# lincheck history: structure {name}, seed {seed:#x}, {} ops\n{}",
        history.ops.len(),
        history.render()
    );
    match write_dump(
        dir,
        &format!("lincheck_{name}_{seed:#x}"),
        ".history.txt",
        &body,
    ) {
        Ok(path) => {
            note_history_dump(&path);
            Some(path)
        }
        Err(e) => {
            eprintln!(
                "[citrus-lincheck] history dump under {} failed: {e}",
                dir.display()
            );
            None
        }
    }
}

/// Runs a seeded mixed workload like [`record_history`] but with ordered
/// reads in the mix (≈30% insert / 25% remove / 15% get / 15% range scan
/// of width ≤ 5 / 10% successor / 5% predecessor), recording every
/// operation including the full entry lists scans returned.
pub fn record_scan_history<M>(
    map: &M,
    threads: usize,
    ops_per_thread: usize,
    key_range: u64,
    seed: u64,
) -> History
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
{
    assert!(threads > 0, "at least one recording worker required");
    let recorder = HistoryRecorder::new();
    let barrier = Barrier::new(threads);
    let logs: Vec<Vec<RecordedOp>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (recorder, barrier, map) = (&recorder, &barrier, &*map);
                scope.spawn(move || {
                    let mut rng = crate::testkit::SplitMix64::new(
                        seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut session = recorder.wrap(t, map.session());
                    barrier.wait();
                    for i in 0..ops_per_thread {
                        let key = rng.below(key_range);
                        match rng.below(20) {
                            0..=5 => {
                                session.insert(key, ((t as u64) << 32) | i as u64);
                            }
                            6..=10 => {
                                session.remove(&key);
                            }
                            11..=13 => {
                                session.get(&key);
                            }
                            14..=16 => {
                                let hi = key + rng.below(5);
                                session.range_scan(&key, &hi);
                            }
                            17..=18 => {
                                session.successor(&key);
                            }
                            _ => {
                                session.predecessor(&key);
                            }
                        }
                    }
                    session.finish()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recording worker panicked"))
            .collect()
    });
    History::from_thread_logs(logs)
}

/// A failed end-to-end linearizability check
/// ([`check_linearizable`] / [`check_linearizable_scans`]): the minimal
/// counterexample, the run that produced it, and this check's own history
/// dump. `Display` renders the full report.
#[derive(Debug, Clone)]
pub struct LincheckFailure {
    /// The checked structure's [`ConcurrentMap::NAME`].
    pub name: &'static str,
    /// The workload seed.
    pub seed: u64,
    /// Recording threads.
    pub threads: usize,
    /// Operations per recording thread.
    pub ops_per_thread: usize,
    /// Keys were drawn from `[0, key_range)`.
    pub key_range: u64,
    /// The minimal non-linearizable sub-history.
    pub counterexample: NonLinearizable,
    /// The full recorded history with the verdict appended — written for
    /// this check alone, under a name no other check reuses. `None` when
    /// the write failed.
    pub dump: Option<PathBuf>,
    /// One copy-pasteable line reproducing the perturbation context
    /// (active deterministic schedule or chaos plan seed), if any.
    pub replay: Option<String>,
}

impl fmt::Display for LincheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "non-linearizable history for {} (seed {:#x}, {} threads × {} ops, keys [0, {})):",
            self.name, self.seed, self.threads, self.ops_per_thread, self.key_range
        )?;
        writeln!(f, "{}", self.counterexample)?;
        match &self.dump {
            Some(path) => write!(f, "full history dump: {}", path.display())?,
            None => write!(f, "full history dump unavailable (write failed)")?,
        }
        if let Some(recipe) = &self.replay {
            write!(f, "\nreplay: {recipe}")?;
        }
        Ok(())
    }
}

/// Shared verdict handling for the end-to-end checks: dump under `dir`,
/// check, and on violation append the verdict to the dump and return the
/// failure. A passing history's dump is deleted; it is written before the
/// check only so that a hung check leaves evidence.
fn verify_recorded(
    dir: &Path,
    name: &'static str,
    threads: usize,
    ops_per_thread: usize,
    key_range: u64,
    seed: u64,
    history: &History,
) -> Result<(), Box<LincheckFailure>> {
    let dump = dump_history(dir, name, seed, history);
    let Err(counterexample) = check_history(history) else {
        if let Some(path) = &dump {
            let _ = std::fs::remove_file(path);
        }
        return Ok(());
    };
    if let Some(path) = &dump {
        // Append the counterexample to the dump so the artifact is
        // self-contained.
        let _ = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut f| {
                use std::io::Write as _;
                write!(f, "\n# VERDICT\n{counterexample}\n")
            });
    }
    Err(Box::new(LincheckFailure {
        name,
        seed,
        threads,
        ops_per_thread,
        key_range,
        counterexample,
        dump,
        replay: citrus_chaos::replay_recipe(),
    }))
}

/// End-to-end linearizability check: build a fresh map with `make`, run a
/// seeded mixed workload (`threads` × `ops_per_thread` over
/// `[0, key_range)`), dump the recorded history to a file, and verify it
/// with the WGL checker. The dump is kept only if the check fails.
///
/// # Errors
///
/// Returns the minimal counterexample, with the path of this check's own
/// history dump, if the history is not linearizable.
pub fn check_linearizable<M, F>(
    make: F,
    threads: usize,
    ops_per_thread: usize,
    key_range: u64,
    seed: u64,
) -> Result<(), Box<LincheckFailure>>
where
    M: ConcurrentMap<u64, u64>,
    F: Fn() -> M,
{
    let map = make();
    let history = record_history(&map, threads, ops_per_thread, key_range, seed);
    verify_recorded(
        &dump_dir(),
        M::NAME,
        threads,
        ops_per_thread,
        key_range,
        seed,
        &history,
    )
}

/// [`check_linearizable`] with ordered reads in the workload mix (see
/// [`record_scan_history`]): verifies that range scans, successors, and
/// predecessors linearize together with the concurrent point updates.
///
/// # Errors
///
/// As for [`check_linearizable`].
pub fn check_linearizable_scans<M, F>(
    make: F,
    threads: usize,
    ops_per_thread: usize,
    key_range: u64,
    seed: u64,
) -> Result<(), Box<LincheckFailure>>
where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
    F: Fn() -> M,
{
    let map = make();
    let history = record_scan_history(&map, threads, ops_per_thread, key_range, seed);
    verify_recorded(
        &dump_dir(),
        M::NAME,
        threads,
        ops_per_thread,
        key_range,
        seed,
        &history,
    )
}

/// What a failing sweep seed does and does not reproduce.
const SEED_REPLAY: &str = "The seed reproduces the operations, not the interleaving: \
     rerunning it may pass. To replay a schedule, pin it as an explore scenario \
     (citrus_api::explore) and rerun with CITRUS_SCHEDULE=<schedule>.";

/// Sweeps `count` consecutive chaos schedule seeds starting at
/// `base_seed`: each seed installs a [`ChaosPlan`] (schedule perturbation
/// at every failpoint; a no-op without the `chaos` cargo feature) and
/// runs [`check_linearizable`] with the same seed driving the workload.
///
/// A seed fixes the operations, not the interleaving: the plan only
/// perturbs timing, and the OS still picks the order. Rerunning a
/// failing seed may pass; to replay one interleaving exactly, pin it as
/// an explore scenario and rerun that with `CITRUS_SCHEDULE`.
///
/// # Panics
///
/// Panics with the failure report and the seed on the first
/// non-linearizable history.
pub fn sweep_lincheck_chaos_seeds<M, F>(
    make: F,
    threads: usize,
    ops_per_thread: usize,
    key_range: u64,
    base_seed: u64,
    count: u64,
) where
    M: ConcurrentMap<u64, u64>,
    F: Fn() -> M,
{
    for i in 0..count {
        let seed = base_seed.wrapping_add(i);
        let verdict = {
            let _chaos = install_chaos(ChaosPlan::from_seed(seed));
            check_linearizable(&make, threads, ops_per_thread, key_range, seed)
        };
        if let Err(failure) = verdict {
            panic!(
                "{failure}\n[citrus-lincheck] chaos seed {seed:#x} produced this history. {SEED_REPLAY}"
            );
        }
    }
}

/// Like [`sweep_lincheck_chaos_seeds`] but over the scan workload: each
/// seed installs a [`ChaosPlan`] and runs [`check_linearizable_scans`]
/// with the same seed driving the workload.
///
/// # Panics
///
/// As for [`sweep_lincheck_chaos_seeds`].
pub fn sweep_lincheck_scan_chaos_seeds<M, F>(
    make: F,
    threads: usize,
    ops_per_thread: usize,
    key_range: u64,
    base_seed: u64,
    count: u64,
) where
    M: ConcurrentMap<u64, u64>,
    for<'a> M::Session<'a>: OrderedMapSession<u64, u64>,
    F: Fn() -> M,
{
    for i in 0..count {
        let seed = base_seed.wrapping_add(i);
        let verdict = {
            let _chaos = install_chaos(ChaosPlan::from_seed(seed));
            check_linearizable_scans(&make, threads, ops_per_thread, key_range, seed)
        };
        if let Err(failure) = verdict {
            panic!(
                "{failure}\n[citrus-lincheck] chaos seed {seed:#x} produced this scan history. \
                 {SEED_REPLAY}"
            );
        }
    }
}

/// Parses an env-knob value, aborting with the variable name, raw value,
/// and parse error on malformed input. A typo'd knob must fail the run
/// loudly, not silently fall back to a default that changes what the run
/// covers.
fn parse_usize_knob(name: &str, raw: &str) -> usize {
    raw.trim()
        .parse()
        .unwrap_or_else(|e| panic!("invalid {name}={raw:?}: {e} (expected an unsigned integer)"))
}

/// Worker count for lincheck runs: `CITRUS_LIN_THREADS` when set,
/// otherwise `default`. Lets CI bound history width.
///
/// # Panics
///
/// Panics if the variable is set but not an unsigned integer.
#[must_use]
pub fn lin_threads(default: usize) -> usize {
    match std::env::var("CITRUS_LIN_THREADS") {
        Ok(raw) => parse_usize_knob("CITRUS_LIN_THREADS", &raw),
        Err(std::env::VarError::NotPresent) => default,
        Err(e) => panic!("invalid CITRUS_LIN_THREADS: {e}"),
    }
}

/// Per-thread operation count for lincheck runs: `CITRUS_LIN_OPS` when
/// set, otherwise `default`. Lets CI bound history length (the checker's
/// search grows with ops per key).
///
/// # Panics
///
/// Panics if the variable is set but not an unsigned integer.
#[must_use]
pub fn lin_ops(default: usize) -> usize {
    match std::env::var("CITRUS_LIN_OPS") {
        Ok(raw) => parse_usize_knob("CITRUS_LIN_OPS", &raw),
        Err(std::env::VarError::NotPresent) => default,
        Err(e) => panic!("invalid CITRUS_LIN_OPS: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::CoarseMap;

    // ---- checker self-test battery: hand-written histories ----------

    fn rec(thread: usize, inv: u64, ret_at: u64, op: Op, ret: Ret) -> RecordedOp {
        RecordedOp {
            thread,
            inv,
            ret_at,
            op,
            ret,
        }
    }

    fn ins(t: usize, inv: u64, ret_at: u64, key: u64, value: u64, granted: bool) -> RecordedOp {
        rec(
            t,
            inv,
            ret_at,
            Op::Insert { key, value },
            Ret::Granted(granted),
        )
    }

    fn rem(t: usize, inv: u64, ret_at: u64, key: u64, granted: bool) -> RecordedOp {
        rec(t, inv, ret_at, Op::Remove { key }, Ret::Granted(granted))
    }

    fn get(t: usize, inv: u64, ret_at: u64, key: u64, found: Option<u64>) -> RecordedOp {
        rec(t, inv, ret_at, Op::Get { key }, Ret::Found(found))
    }

    fn history(ops: Vec<RecordedOp>) -> History {
        History::from_thread_logs(vec![ops])
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_history(&History::default()).is_ok());
    }

    #[test]
    fn sequential_lifecycle_is_linearizable() {
        let h = history(vec![
            ins(0, 0, 1, 5, 42, true),
            get(0, 2, 3, 5, Some(42)),
            rem(0, 4, 5, 5, true),
            get(0, 6, 7, 5, None),
            ins(0, 8, 9, 5, 43, true),
        ]);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn concurrent_insert_race_one_winner_is_linearizable() {
        // Two overlapping inserts; exactly one granted — the classic race.
        let h = history(vec![ins(0, 0, 3, 7, 1, true), ins(1, 1, 2, 7, 2, false)]);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn concurrent_insert_delete_get_on_one_key_is_linearizable() {
        // All three fully overlap: insert→true, remove→true, get→None has
        // the valid order insert, remove, get.
        let h = history(vec![
            ins(0, 0, 9, 3, 11, true),
            rem(1, 1, 8, 3, true),
            get(2, 2, 7, 3, None),
        ]);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn duplicate_grant_is_rejected() {
        // Two successful inserts with no successful remove anywhere: no
        // order can make the second insert's precondition hold.
        let h = history(vec![ins(0, 0, 3, 7, 1, true), ins(1, 1, 2, 7, 2, true)]);
        let err = check_history(&h).unwrap_err();
        assert_eq!(err.keys, vec![7]);
        assert_eq!(err.ops.len(), 2, "both grants are needed: {err}");
    }

    #[test]
    fn real_time_order_violation_is_rejected() {
        // get→None strictly after insert→true completed, no remove: a
        // stale read. The linearization may not reorder across real time.
        let h = history(vec![ins(0, 0, 1, 9, 5, true), get(1, 2, 3, 9, None)]);
        let err = check_history(&h).unwrap_err();
        assert_eq!(err.keys, vec![9]);
    }

    #[test]
    fn overlapping_get_may_linearize_before_the_insert() {
        // Same shape as above but the get overlaps the insert, so get
        // before insert is a valid order.
        let h = history(vec![ins(0, 0, 5, 9, 5, true), get(1, 1, 2, 9, None)]);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn observed_value_pins_the_linearization_order() {
        let lifecycle = |observed: u64| {
            history(vec![
                ins(0, 0, 1, 4, 100, true),
                rem(0, 2, 3, 4, true),
                ins(0, 4, 5, 4, 200, true),
                get(1, 6, 7, 4, Some(observed)),
            ])
        };
        // Seeing the live value is fine; seeing the removed one is a
        // stale read even though *some* insert of it existed.
        assert!(check_history(&lifecycle(200)).is_ok());
        assert!(check_history(&lifecycle(100)).is_err());
    }

    #[test]
    fn failed_remove_of_present_key_is_rejected() {
        let h = history(vec![ins(0, 0, 1, 2, 9, true), rem(1, 2, 3, 2, false)]);
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn disjoint_keys_are_checked_independently() {
        // Key 1 carries a violation; keys 2 and 3 carry valid traffic.
        // The counterexample must only involve key 1's ops.
        let h = history(vec![
            ins(0, 0, 1, 2, 7, true),
            ins(0, 2, 3, 1, 8, true),
            get(0, 4, 5, 3, None),
            get(1, 6, 7, 1, None), // stale
            get(0, 8, 9, 2, Some(7)),
        ]);
        let err = check_history(&h).unwrap_err();
        assert_eq!(err.keys, vec![1]);
        assert!(err.ops.iter().all(|o| o.op.key() == Some(1)));
    }

    #[test]
    fn counterexample_is_shrunk_to_a_minimal_core() {
        // Plenty of benign traffic around a 2-op violation.
        let h = history(vec![
            ins(0, 0, 1, 6, 1, true),
            get(0, 2, 3, 6, Some(1)),
            rem(0, 4, 5, 6, true),
            ins(0, 6, 7, 6, 2, true),
            get(1, 8, 9, 6, None), // stale: value 2 is live
            get(0, 10, 11, 6, Some(2)),
        ]);
        let err = check_history(&h).unwrap_err();
        assert!(
            err.ops.len() <= 3,
            "greedy shrink should reach a small core, got {} ops:\n{err}",
            err.ops.len()
        );
        // 1-minimality: removing any single remaining op restores
        // linearizability.
        for i in 0..err.ops.len() {
            let mut fewer = err.ops.clone();
            fewer.remove(i);
            assert!(
                check_history(&history(fewer)).is_ok(),
                "counterexample is not 1-minimal at op {i}:\n{err}"
            );
        }
    }

    #[test]
    fn core_keeps_the_insert_a_read_depends_on() {
        // get(3) returns a value that was removed before it started.
        // Dropping the insert would leave a one-op "core" that blames the
        // read for a value nothing wrote.
        let h = history(vec![
            ins(0, 0, 1, 3, 99, true),
            rem(0, 2, 3, 3, true),
            get(1, 4, 5, 3, Some(99)),
            ins(0, 6, 7, 3, 100, true),
            get(1, 8, 9, 3, Some(100)),
        ]);
        let err = check_history(&h).unwrap_err();
        assert_eq!(
            err.ops.len(),
            3,
            "insert, remove and the stale read:\n{err}"
        );
        assert!(
            err.ops
                .iter()
                .any(|o| o.op == Op::Insert { key: 3, value: 99 }),
            "the core must show where 99 came from:\n{err}"
        );
        assert_eq!(
            err.cut, 5,
            "the violation is complete at the read's response"
        );
        assert_eq!(err.prefix_ops, 3);
        let text = err.to_string();
        assert!(text.contains("up to ticket 5"), "{text}");
    }

    #[test]
    fn first_violation_in_time_wins_over_the_smaller_key() {
        let h = history(vec![
            // Key 2 goes wrong early: a read misses a completed insert.
            ins(0, 0, 1, 2, 20, true),
            get(1, 2, 3, 2, None),
            // Key 1 goes wrong late.
            ins(0, 10, 11, 1, 10, true),
            get(1, 12, 13, 1, None),
        ]);
        let err = check_history(&h).unwrap_err();
        assert_eq!(err.keys, vec![2]);
        assert_eq!(err.cut, 3);
        assert_eq!(err.prefix_ops, 2);
    }

    #[test]
    fn operations_running_at_the_cut_may_still_linearize() {
        // The first get overlaps the insert it observed; the insert
        // responds after the get. Cut at the get's response, the insert
        // is still running and may linearize first, so that prefix is
        // fine. The violation is the second get, after the remove.
        let h = history(vec![
            get(1, 0, 10, 4, Some(7)),
            ins(0, 5, 12, 4, 7, true),
            rem(0, 13, 14, 4, true),
            get(1, 15, 16, 4, Some(7)),
        ]);
        let err = check_history(&h).unwrap_err();
        assert_eq!(err.cut, 16, "{err}");
        // A cut marks the still-running insert as pending, and a pending
        // operation is optional.
        assert!(is_linearizable::<Option<u64>>(&cut_at(&h.ops, 10)));
        assert!(!is_linearizable::<Option<u64>>(&cut_at(&h.ops, 16)));
    }

    #[test]
    fn pretty_printer_names_the_key_and_ops() {
        let err = check_history(&history(vec![
            ins(0, 0, 1, 9, 5, true),
            get(1, 2, 3, 9, None),
        ]))
        .unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("key(s) 9"), "{text}");
        assert!(text.contains("insert(9, value 5) → true"), "{text}");
        assert!(text.contains("get(9) → None"), "{text}");
    }

    // ---- range-op histories (ordered reads) -------------------------

    fn scan(
        t: usize,
        inv: u64,
        ret_at: u64,
        lo: u64,
        hi: u64,
        entries: Vec<(u64, u64)>,
    ) -> RecordedOp {
        rec(
            t,
            inv,
            ret_at,
            Op::RangeScan { lo, hi },
            Ret::Entries(entries),
        )
    }

    fn suc(t: usize, inv: u64, ret_at: u64, key: u64, e: Option<(u64, u64)>) -> RecordedOp {
        rec(t, inv, ret_at, Op::Successor { key }, Ret::Entry(e))
    }

    fn pred(t: usize, inv: u64, ret_at: u64, key: u64, e: Option<(u64, u64)>) -> RecordedOp {
        rec(t, inv, ret_at, Op::Predecessor { key }, Ret::Entry(e))
    }

    #[test]
    fn sequential_scans_are_linearizable() {
        let h = history(vec![
            ins(0, 0, 1, 10, 1, true),
            ins(0, 2, 3, 30, 3, true),
            scan(0, 4, 5, 0, 100, vec![(10, 1), (30, 3)]),
            rem(0, 6, 7, 10, true),
            scan(0, 8, 9, 0, 100, vec![(30, 3)]),
            scan(0, 10, 11, 0, 9, vec![]),
            suc(0, 12, 13, 10, Some((30, 3))),
            pred(0, 14, 15, 30, None),
        ]);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn scan_over_untouched_region_is_trivially_linearizable() {
        // No point op and no observation touches [0, 100]; the scan's
        // region is empty at every instant.
        let h = history(vec![scan(0, 0, 1, 0, 100, vec![])]);
        assert!(check_history(&h).is_ok());
        // An inverted range must also come back empty.
        let h = history(vec![scan(0, 0, 1, 100, 0, vec![])]);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn phantom_scan_entry_is_rejected() {
        // The scan observes a key no insert ever granted.
        let h = history(vec![scan(0, 0, 1, 50, 60, vec![(55, 9)])]);
        let err = check_history(&h).unwrap_err();
        assert_eq!(err.ops.len(), 1, "{err}");
        assert_eq!(err.keys, vec![55]);
    }

    #[test]
    fn overlapping_scan_may_see_either_side_of_an_insert() {
        // Scan overlaps the insert: both the empty and the one-entry
        // result are valid linearizations.
        for entries in [vec![], vec![(10, 1)]] {
            let h = history(vec![
                ins(0, 0, 5, 10, 1, true),
                scan(1, 1, 4, 0, 100, entries),
            ]);
            assert!(check_history(&h).is_ok());
        }
    }

    #[test]
    fn torn_scan_missing_a_present_key_is_rejected() {
        // Key 10 is present for the scan's whole window (insert completed
        // before it, no remove anywhere), yet the scan reports the range
        // empty — the signature of an unvalidated torn traversal.
        let h = history(vec![
            ins(0, 0, 1, 10, 1, true),
            scan(1, 2, 3, 0, 100, vec![]),
        ]);
        let err = check_history(&h).unwrap_err();
        assert!(err.ops.len() <= 3, "want a small core: {err}");
        assert_eq!(err.keys, vec![10]);
        // 1-minimality: removing either op restores linearizability.
        for i in 0..err.ops.len() {
            let mut fewer = err.ops.clone();
            fewer.remove(i);
            assert!(
                check_history(&history(fewer)).is_ok(),
                "not 1-minimal: {err}"
            );
        }
    }

    #[test]
    fn torn_scan_across_a_remove_insert_pair_is_rejected() {
        // Writer removes 10 then inserts 25 (non-overlapping, in that
        // real-time order). A scan overlapping both reports BOTH 10 and
        // 25 present — no single instant has that contents.
        let h = history(vec![
            ins(0, 0, 1, 10, 1, true),
            rem(0, 2, 5, 10, true),
            ins(0, 6, 9, 25, 2, true),
            scan(1, 4, 8, 0, 100, vec![(10, 1), (25, 2)]),
        ]);
        let err = check_history(&h).unwrap_err();
        // The core keeps both inserts the scan observed, plus the remove
        // that makes (10, 1) stale: nothing else.
        assert_eq!(err.ops.len(), 4, "{err}");
        for op in [
            Op::Insert { key: 10, value: 1 },
            Op::Insert { key: 25, value: 2 },
            Op::Remove { key: 10 },
        ] {
            assert!(err.ops.iter().any(|o| o.op == op), "{op:?} missing: {err}");
        }
    }

    #[test]
    fn stale_successor_is_rejected_and_merges_the_component() {
        // successor(5) → None strictly after insert(10) completed: the
        // directed read constrains every key above 5, so its component
        // includes key 10 and the violation is caught.
        let h = history(vec![ins(0, 0, 1, 10, 1, true), suc(1, 2, 3, 5, None)]);
        let err = check_history(&h).unwrap_err();
        assert_eq!(err.keys, vec![10]);
        // The overlapping variant is fine (successor before insert).
        let h = history(vec![ins(0, 0, 3, 10, 1, true), suc(1, 1, 2, 5, None)]);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn stale_predecessor_is_rejected() {
        let h = history(vec![
            ins(0, 0, 1, 10, 1, true),
            rem(0, 2, 3, 10, true),
            pred(1, 4, 5, 50, Some((10, 1))),
        ]);
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn scans_only_merge_the_keys_they_constrain() {
        // Key 1 carries a violation; the scan only spans [10, 30], so the
        // counterexample must stay on key 1.
        let h = history(vec![
            ins(0, 0, 1, 1, 7, true),
            ins(0, 2, 3, 20, 8, true),
            scan(0, 4, 5, 10, 30, vec![(20, 8)]),
            get(1, 6, 7, 1, None), // stale
        ]);
        let err = check_history(&h).unwrap_err();
        assert_eq!(err.keys, vec![1]);
    }

    #[test]
    #[should_panic(expected = "malformed history")]
    fn malformed_op_ret_pairing_panics() {
        let h = history(vec![rec(
            0,
            0,
            1,
            Op::Insert { key: 1, value: 1 },
            Ret::Found(None),
        )]);
        let _ = check_history(&h);
    }

    // ---- recorder + end-to-end over a known-correct map -------------

    #[test]
    fn recorder_intervals_nest_and_order_per_thread() {
        let map = CoarseMap::default();
        let history = record_history(&map, 3, 50, 8, 0xA11CE);
        assert_eq!(history.ops.len(), 150);
        // Every interval is well-formed and per-thread logs are ordered.
        let mut last_ret: BTreeMap<usize, u64> = BTreeMap::new();
        for op in &history.ops {
            assert!(op.inv < op.ret_at, "interval inverted: {op}");
            if let Some(&prev) = last_ret.get(&op.thread) {
                assert!(prev < op.inv, "thread {}'s ops overlap", op.thread);
            }
            last_ret.insert(op.thread, op.ret_at);
        }
        // Tickets are globally unique.
        let mut all: Vec<u64> = history.ops.iter().flat_map(|o| [o.inv, o.ret_at]).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 300);
    }

    #[test]
    fn correct_map_passes_end_to_end() {
        check_linearizable(CoarseMap::default, 4, 150, 16, 0x11C4EC)
            .unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn correct_map_passes_the_scan_workload_end_to_end() {
        check_linearizable_scans(CoarseMap::default, 3, 120, 16, 0x5CA11)
            .unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn scan_recorder_logs_full_entry_lists() {
        let map = CoarseMap::default();
        let history = record_scan_history(&map, 2, 80, 12, 0x5CA12);
        assert_eq!(history.ops.len(), 160);
        assert!(
            history
                .ops
                .iter()
                .any(|o| matches!(o.op, Op::RangeScan { .. })),
            "workload mix must include range scans"
        );
        assert!(
            history
                .ops
                .iter()
                .any(|o| matches!(o.op, Op::Successor { .. } | Op::Predecessor { .. })),
            "workload mix must include directed reads"
        );
        assert!(check_history(&history).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid CITRUS_LIN_THREADS")]
    fn malformed_env_knob_is_a_hard_error() {
        parse_usize_knob("CITRUS_LIN_THREADS", "not-a-number");
    }

    #[test]
    fn env_knobs_fall_back_to_defaults() {
        if std::env::var("CITRUS_LIN_THREADS").is_err() {
            assert_eq!(lin_threads(6), 6);
        }
        if std::env::var("CITRUS_LIN_OPS").is_err() {
            assert_eq!(lin_ops(123), 123);
        }
    }

    #[test]
    fn dump_note_round_trips() {
        // check_linearizable above already wrote a dump; the registry must
        // surface *some* path once any lincheck ran in this process.
        check_linearizable(CoarseMap::default, 1, 10, 4, 0xD00D).unwrap_or_else(|f| panic!("{f}"));
        let path = last_history_dump().expect("a dump was recorded");
        assert!(path.to_string_lossy().contains("lincheck_"));
    }

    #[test]
    fn dump_names_are_unique_per_call() {
        // Same structure name and seed twice: the second dump must not
        // overwrite the first.
        let history = record_history(&CoarseMap::default(), 1, 4, 4, 0xD00E);
        let dir = dump_dir();
        let first = dump_history(&dir, "dump-uniqueness", 0xD00E, &history).expect("dump written");
        let second = dump_history(&dir, "dump-uniqueness", 0xD00E, &history).expect("dump written");
        assert_ne!(first, second);
        assert!(first.exists() && second.exists());
        let pid = std::process::id().to_string();
        assert!(first.to_string_lossy().contains(&pid));
        let _ = std::fs::remove_file(first);
        let _ = std::fs::remove_file(second);
    }

    #[test]
    fn a_passing_check_deletes_its_dump_and_a_failing_one_keeps_it() {
        // A directory of this test's own, so the emptiness check sees no
        // other check's dumps.
        let dir =
            std::env::temp_dir().join(format!("citrus-lincheck-verify-{}", std::process::id()));
        let passing = history(vec![ins(0, 0, 1, 2, 9, true), get(1, 2, 3, 2, Some(9))]);
        verify_recorded(&dir, "verify-pass", 2, 1, 4, 0x1, &passing)
            .unwrap_or_else(|f| panic!("{f}"));
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("the dump was written before the check")
            .collect();
        assert!(left.is_empty(), "a passing check left {left:?}");

        let stale = history(vec![ins(0, 0, 1, 2, 9, true), get(1, 2, 3, 2, None)]);
        let failure = verify_recorded(&dir, "verify-fail", 2, 1, 4, 0x2, &stale)
            .expect_err("the stale read is rejected");
        let dump = failure.dump.expect("a failing check names its dump");
        let contents = std::fs::read_to_string(&dump).expect("the failing dump is kept");
        assert!(contents.contains("# VERDICT"), "{contents}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
