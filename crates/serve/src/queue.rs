//! A bounded multi-producer queue with an executor flag: the per-shard
//! mailbox of the combining server.
//!
//! No thread owns a shard. Whoever holds the shard's *executor* flag runs
//! its requests, and every executor decision is made under the queue's
//! one mutex:
//!
//! - [`admit`](BatchQueue::admit) hands an item straight back to a caller
//!   that finds the shard idle (no executor, nothing queued, not paused):
//!   that caller now holds the executor and runs its own item. Otherwise
//!   the item is queued, or rejected (not blocked) at the high-water mark
//!   — backpressure is the *caller's* problem, surfaced as a retry-after
//!   hint by the server layer.
//! - The holder pulls queued items with [`next`](BatchQueue::next) until
//!   the queue is empty, the queue is paused, or its budget runs out. In
//!   that last case it wakes the oldest queued item's waiter that is
//!   blocked ([`HandOff`]) to take over, and releases. If no waiter is
//!   blocked it still releases while any item's waiter remains: that
//!   waiter takes over when it next waits, polls or gives up. Only when
//!   every queued item's waiter is gone does the holder drain past its
//!   budget, since nobody else would.
//! - [`acquire`](BatchQueue::acquire) lets a waiter take over a shard
//!   that has runnable work and no executor;
//!   [`acquire_wait`](BatchQueue::acquire_wait) blocks until the executor
//!   is free (the drains of `resume` and `shutdown`).
//!
//! Items leave the queue in admission order, and only through the one
//! executor, so a shard executes its requests in admission order.
//! Closing the queue ([`close`](BatchQueue::close)) stops admission
//! immediately but never drops queued items, and overrides a pause: the
//! mechanism behind the server's lose-nothing shutdown drain.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Where a queued item's waiter is, as [`HandOff::hand_off`] found it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Waiter {
    /// Blocked waiting for the item; it has now been woken to take over
    /// the executor.
    Blocked,
    /// Still holds its claim on the item, without blocking on it. It
    /// takes over by itself when it next waits, polls or gives up.
    Holding,
    /// Gone: no one will ever act for the item (its ticket was dropped).
    Gone,
}

/// A queued item whose waiter can be asked to take over the executor.
pub trait HandOff {
    /// Wakes the item's waiter to take over the executor if it is
    /// blocked, and reports where the waiter is.
    fn hand_off(&self) -> Waiter;
}

/// Wakes the oldest blocked waiter among `items`. Returns whether some
/// waiter, woken or not, will act for the queue.
fn hand_off<T: HandOff>(items: &VecDeque<T>) -> bool {
    let mut holding = false;
    for item in items {
        match item.hand_off() {
            Waiter::Blocked => return true,
            Waiter::Holding => holding = true,
            Waiter::Gone => {}
        }
    }
    holding
}

/// Why an [`admit`](BatchQueue::admit) was not accepted. The rejected
/// item is handed back so callers need no `Clone` bound to retry.
#[derive(Debug)]
pub enum OfferError<T> {
    /// The queue is at or above the high-water mark. Retry later.
    Rejected {
        /// The item, returned unconsumed.
        item: T,
        /// Queue depth observed at rejection time.
        depth: usize,
    },
    /// The queue is closed; no further items will ever be accepted.
    Closed(T),
}

/// How an accepted item entered the shard.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission<T> {
    /// The shard was idle: the caller now holds the executor and runs the
    /// item itself, then calls [`next`](BatchQueue::next) for what queued
    /// behind it.
    Run(T),
    /// The item was queued; `depth` is the queue length after the push.
    /// With `execute` set the executor was free and the caller now holds
    /// it (work had queued behind a released executor): it drains from
    /// the front with [`next`](BatchQueue::next).
    Queued {
        /// Queue depth after the push.
        depth: usize,
        /// Whether the caller took the executor.
        execute: bool,
    },
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    paused: bool,
    executing: bool,
    /// Threads blocked in `acquire_wait`; releases skip the condvar
    /// (and its wake-up syscall) when there are none.
    idle_waiters: usize,
}

impl<T> State<T> {
    /// Whether queued work may run now: closing overrides pausing.
    fn runnable(&self) -> bool {
        !self.items.is_empty() && (!self.paused || self.closed)
    }
}

/// The bounded queue plus its executor flag.
pub struct BatchQueue<T> {
    state: Mutex<State<T>>,
    idle: Condvar,
}

impl<T> Default for BatchQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BatchQueue<T> {
    /// An empty, open, unpaused queue with a free executor.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                paused: false,
                executing: false,
                idle_waiters: 0,
            }),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clears the executor flag (the caller holds the lock) and wakes any
    /// `acquire_wait`er.
    fn release_locked(&self, st: &mut State<T>) {
        st.executing = false;
        if st.idle_waiters > 0 {
            self.idle.notify_all();
        }
    }

    /// Admits `item` unless the queue is closed or, when the item has to
    /// queue, at the high-water mark.
    ///
    /// # Errors
    ///
    /// [`OfferError::Rejected`] at or above `high_water`,
    /// [`OfferError::Closed`] after [`close`](Self::close); both return
    /// the item unconsumed.
    pub fn admit(&self, item: T, high_water: usize) -> Result<Admission<T>, OfferError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(OfferError::Closed(item));
        }
        if !st.executing && !st.paused && st.items.is_empty() {
            st.executing = true;
            return Ok(Admission::Run(item));
        }
        if st.items.len() >= high_water {
            let depth = st.items.len();
            return Err(OfferError::Rejected { item, depth });
        }
        st.items.push_back(item);
        let execute = !st.executing && !st.paused;
        st.executing |= execute;
        Ok(Admission::Queued {
            depth: st.items.len(),
            execute,
        })
    }

    /// Takes the executor if it is free and queued work may run. Returns
    /// whether the caller now holds it.
    pub fn acquire(&self) -> bool {
        let mut st = self.lock();
        let take = !st.executing && st.runnable();
        st.executing |= take;
        take
    }

    /// Blocks until the executor is free, then takes it.
    pub fn acquire_wait(&self) {
        let mut st = self.lock();
        while st.executing {
            st.idle_waiters += 1;
            st = self.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.idle_waiters -= 1;
        }
        st.executing = true;
    }

    /// The executor holder's next item, or `None` once it has released
    /// the executor.
    ///
    /// It releases when the queue is empty or paused (closing overrides
    /// pausing). With `within_budget` false it also releases, after
    /// waking the oldest blocked waiter, as long as some queued item's
    /// waiter remains; items nobody waits for any more cannot take over,
    /// so while the queue holds only those, the holder keeps getting them.
    pub fn next(&self, within_budget: bool) -> Option<T>
    where
        T: HandOff,
    {
        let mut st = self.lock();
        let stop = !st.runnable() || (!within_budget && hand_off(&st.items));
        if stop {
            self.release_locked(&mut st);
            return None;
        }
        st.items.pop_front()
    }

    /// Releases the executor without draining, waking the oldest blocked
    /// waiter if queued work may run: the unwinding path of a panicking
    /// executor. Items whose waiters are all gone wait for the next
    /// executor (a later admission, or the shutdown drain).
    pub fn release(&self)
    where
        T: HandOff,
    {
        let mut st = self.lock();
        if st.runnable() {
            hand_off(&st.items);
        }
        self.release_locked(&mut st);
    }

    /// Closes admission. Queued items stay and run, even if paused.
    pub fn close(&self) {
        self.lock().closed = true;
    }

    /// Stops the executor from taking queued items and makes every
    /// admission queue (admission continues): the deterministic way to
    /// fill a queue up to its high-water mark.
    pub fn pause(&self) {
        self.lock().paused = true;
    }

    /// Undoes [`pause`](Self::pause). Queued items wait for the next
    /// executor; the server drains them at once.
    pub fn resume(&self) {
        self.lock().paused = false;
    }

    /// Current depth (racy, for reporting).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty (racy, for reporting).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::fmt::Debug for BatchQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("BatchQueue")
            .field("depth", &st.items.len())
            .field("closed", &st.closed)
            .field("paused", &st.paused)
            .field("executing", &st.executing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A test item: an id, where its waiter is, and how often the waiter
    /// was woken to take over.
    #[derive(Debug, PartialEq, Eq)]
    struct Item {
        id: u32,
        waiter: Waiter,
        woken: Cell<u32>,
    }

    /// An item whose waiter holds its claim without blocking on it.
    fn item(id: u32) -> Item {
        Item {
            id,
            waiter: Waiter::Holding,
            woken: Cell::new(0),
        }
    }

    fn blocked(id: u32) -> Item {
        Item {
            waiter: Waiter::Blocked,
            ..item(id)
        }
    }

    fn dropped(id: u32) -> Item {
        Item {
            waiter: Waiter::Gone,
            ..item(id)
        }
    }

    impl HandOff for Item {
        fn hand_off(&self) -> Waiter {
            if self.waiter == Waiter::Blocked {
                self.woken.set(self.woken.get() + 1);
            }
            self.waiter
        }
    }

    fn woken(q: &BatchQueue<Item>) -> Vec<u32> {
        q.lock().items.iter().map(|i| i.woken.get()).collect()
    }

    fn queued<T>(adm: Result<Admission<T>, OfferError<T>>) -> (usize, bool) {
        match adm {
            Ok(Admission::Queued { depth, execute }) => (depth, execute),
            Ok(Admission::Run(_)) => panic!("expected the item to queue, it ran"),
            Err(_) => panic!("expected the item to queue, it was refused"),
        }
    }

    fn ids(q: &BatchQueue<Item>) -> Vec<u32> {
        q.lock().items.iter().map(|i| i.id).collect()
    }

    #[test]
    fn idle_caller_runs_its_own_item() {
        let q = BatchQueue::new();
        match q.admit(item(1), 8) {
            Ok(Admission::Run(it)) => assert_eq!(it.id, 1),
            other => panic!("an idle shard must hand the item back, got {other:?}"),
        }
        // The caller holds the executor: the next caller queues.
        assert_eq!(queued(q.admit(item(2), 8)), (1, false));
        assert!(!q.acquire(), "the executor is taken");
        assert_eq!(q.next(true).map(|i| i.id), Some(2));
        assert_eq!(q.next(true), None, "an empty queue releases the executor");
        assert!(matches!(q.admit(item(3), 8), Ok(Admission::Run(_))));
    }

    #[test]
    fn items_leave_in_admission_order() {
        let q = BatchQueue::new();
        q.pause();
        for i in 0..5 {
            assert_eq!(queued(q.admit(item(i), 16)), (i as usize + 1, false));
        }
        q.resume();
        assert!(q.acquire());
        let order: Vec<u32> = std::iter::from_fn(|| q.next(true)).map(|i| i.id).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn high_water_rejection_is_exact_and_returns_the_item() {
        let q = BatchQueue::new();
        q.pause();
        for i in 0..4 {
            queued(q.admit(item(i), 4));
        }
        match q.admit(item(99), 4) {
            Err(OfferError::Rejected { item, depth }) => {
                assert_eq!(item.id, 99);
                assert_eq!(depth, 4);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Draining one slot re-opens admission at the same mark.
        q.resume();
        assert!(q.acquire());
        assert_eq!(q.next(true).map(|i| i.id), Some(0));
        assert_eq!(queued(q.admit(item(99), 4)), (4, false));
    }

    #[test]
    fn paused_queue_hands_out_nothing() {
        let q = BatchQueue::new();
        q.pause();
        assert_eq!(queued(q.admit(item(7), 8)), (1, false));
        assert!(!q.acquire(), "a paused queue has no runnable work");
        q.resume();
        assert!(q.acquire());
        assert_eq!(q.next(true).map(|i| i.id), Some(7));
    }

    #[test]
    fn pausing_stops_a_running_executor() {
        let q = BatchQueue::new();
        let Ok(Admission::Run(_)) = q.admit(item(1), 8) else {
            panic!("idle shard")
        };
        queued(q.admit(item(2), 8));
        q.pause();
        assert_eq!(q.next(true), None, "the holder stops at a pause");
        assert_eq!(ids(&q), vec![2]);
        assert!(!q.acquire());
    }

    #[test]
    fn close_overrides_pause() {
        let q = BatchQueue::new();
        q.pause();
        queued(q.admit(item(1), 8));
        q.close();
        assert!(matches!(q.admit(item(2), 8), Err(OfferError::Closed(it)) if it.id == 2));
        assert!(q.acquire(), "closing makes paused work runnable");
        assert_eq!(q.next(true).map(|i| i.id), Some(1));
        assert_eq!(q.next(true), None);
    }

    #[test]
    fn exhausted_budget_wakes_the_oldest_blocked_waiter() {
        let q = BatchQueue::new();
        let Ok(Admission::Run(_)) = q.admit(item(0), 8) else {
            panic!("idle shard")
        };
        queued(q.admit(dropped(1), 8));
        queued(q.admit(item(2), 8));
        queued(q.admit(blocked(3), 8));
        queued(q.admit(blocked(4), 8));
        assert_eq!(q.next(false), None, "over budget with a waiter: release");
        assert!(!q.lock().executing);
        // The holder of item 2 is not blocked on it and may never act
        // while it waits for something else; the oldest blocked waiter is
        // the one that must take over.
        assert_eq!(woken(&q), vec![0, 0, 1, 0]);
    }

    #[test]
    fn exhausted_budget_with_no_blocked_waiter_releases_to_the_holders() {
        let q = BatchQueue::new();
        let Ok(Admission::Run(_)) = q.admit(item(0), 8) else {
            panic!("idle shard")
        };
        queued(q.admit(dropped(1), 8));
        queued(q.admit(item(2), 8));
        assert_eq!(q.next(false), None);
        assert_eq!(woken(&q), vec![0, 0]);
        // The holder takes over when it next waits or polls.
        assert!(q.acquire());
        assert_eq!(q.next(true).map(|i| i.id), Some(1));
        assert_eq!(q.next(true).map(|i| i.id), Some(2));
        assert_eq!(q.next(true), None);
    }

    #[test]
    fn unwinding_executor_wakes_a_blocked_waiter() {
        let q = BatchQueue::new();
        let Ok(Admission::Run(_)) = q.admit(item(0), 8) else {
            panic!("idle shard")
        };
        queued(q.admit(blocked(1), 8));
        q.release();
        assert_eq!(woken(&q), vec![1]);
        assert!(q.acquire());
    }

    #[test]
    fn abandoned_items_are_drained_rather_than_stranded() {
        let q = BatchQueue::new();
        let Ok(Admission::Run(_)) = q.admit(item(0), 8) else {
            panic!("idle shard")
        };
        queued(q.admit(dropped(1), 8));
        queued(q.admit(dropped(2), 8));
        // Nobody can take over, so the holder keeps going past its budget.
        assert_eq!(q.next(false).map(|i| i.id), Some(1));
        assert_eq!(q.next(false).map(|i| i.id), Some(2));
        assert_eq!(q.next(false), None);
    }

    #[test]
    fn work_left_behind_a_released_executor_is_taken_over() {
        let q = BatchQueue::new();
        let Ok(Admission::Run(_)) = q.admit(item(0), 8) else {
            panic!("idle shard")
        };
        queued(q.admit(item(1), 8));
        assert_eq!(q.next(false), None);
        // A new caller finds the executor free but work queued: it queues
        // behind that work and drains it, in order.
        assert_eq!(queued(q.admit(item(2), 8)), (2, true));
        assert_eq!(q.next(true).map(|i| i.id), Some(1));
        assert_eq!(q.next(true).map(|i| i.id), Some(2));
        assert_eq!(q.next(true), None);
    }

    #[test]
    fn acquire_wait_blocks_until_release() {
        let q = BatchQueue::<Item>::new();
        let Ok(Admission::Run(_)) = q.admit(item(0), 8) else {
            panic!("idle shard")
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                q.acquire_wait();
                q.release();
            });
            while q.lock().idle_waiters == 0 {
                std::thread::yield_now();
            }
            assert!(!waiter.is_finished(), "the executor is still held");
            assert_eq!(q.next(true), None);
        });
        assert!(!q.lock().executing);
    }
}
