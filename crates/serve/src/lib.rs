//! `citrus-serve`: a combining, backpressured ordered-KV request layer over
//! [`CitrusForest`](citrus::CitrusForest).
//!
//! The forest gives linearizable point ops and ordered scans per shard;
//! this crate puts a serving front end on it:
//!
//! - **Caller-run combining, no threads of its own** — requests route to
//!   shards with the forest's own router. A submitter that finds its
//!   shard idle runs its own request on its own thread, then serves up to
//!   `batch_max` requests that queued behind it, in the style of flat
//!   combining; only a submitter that finds the shard busy queues on its
//!   bounded mailbox ([`BatchQueue`]) and waits on a [`Ticket`]. Each
//!   shard keeps one long-lived forest session that passes between
//!   threads with the right to execute.
//! - **Per-shard order** — a shard executes its requests one at a time,
//!   in admission order.
//! - **Admission control** — a shard queue at its `high_water` mark
//!   rejects with [`SubmitError::Rejected`] carrying a `retry_after`
//!   hint instead of queueing unboundedly; the blocking
//!   [`ServeSession`] honors the hint automatically.
//! - **Graceful shutdown** — closing the server drains every queued
//!   request and delivers its response before the forest is dropped:
//!   an acknowledged write is never lost.
//!
//! Correctness is proven *at this boundary*: [`Server`] implements
//! [`ConcurrentMap`](citrus_api::ConcurrentMap), so the WGL
//! linearizability checker and the oracle-conformance harness drive the
//! full submit → queue → execute → respond pipeline, not just the
//! underlying map. A planted `serve/drain/ack-before-apply` mutant
//! (acknowledge a write with a predicted result before executing it)
//! exists purely so the test suite can demonstrate the checker rejects a
//! server that reorders responses.
//!
//! # Example
//!
//! ```
//! use citrus::{CitrusForest, ReclaimMode};
//! use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
//! use citrus_serve::Server;
//!
//! let server = Server::new(CitrusForest::with_config(2, 42, ReclaimMode::Epoch));
//! let mut client = server.session();
//! client.insert(7, 700);
//! client.insert(9, 900);
//! assert_eq!(client.get(&7), Some(700));
//! assert_eq!(client.range_scan(&0, &10), vec![(7, 700), (9, 900)]);
//! server.shutdown(); // drains queued requests on this thread
//! ```

#![warn(missing_docs)]

mod config;
mod metrics;
mod queue;
mod server;

pub use config::ServeConfig;
pub use metrics::ServeMetrics;
pub use queue::{Admission, BatchQueue, HandOff, OfferError, Waiter};
pub use server::{
    OpClass, Request, Response, ServeCounters, ServeSession, Server, ServerClosed, SubmitError,
    Ticket,
};
