//! `citrus-serve`: a backpressured ordered-KV request layer over
//! [`CitrusForest`](citrus::CitrusForest).
//!
//! The forest gives linearizable point ops and ordered scans per shard;
//! this crate puts a serving front end on it:
//!
//! - **Direct execution, no threads or queues of its own** — each client
//!   [`ServeSession`] owns a forest session and runs its requests on its
//!   own thread. Clients on one shard run at once, so the paper's
//!   wait-free reads stay wait-free through the server.
//! - **Admission control** — each shard counts its requests in flight; a
//!   shard at its `high_water` mark rejects with
//!   [`SubmitError::Rejected`] carrying a `retry_after` hint; the
//!   blocking [`ServeSession`] honors the hint automatically.
//! - **Graceful shutdown** — [`Server::shutdown`] closes admission and
//!   returns once every admitted request has finished, so an
//!   acknowledged write is never lost.
//!
//! Correctness is proven *at this boundary*: [`Server`] implements
//! [`ConcurrentMap`](citrus_api::ConcurrentMap), so the WGL
//! linearizability checker and the oracle-conformance harness drive the
//! full admit → execute → respond path, not just the underlying
//! map. A planted `serve/drain/ack-before-apply` mutant
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
//! server.shutdown(); // closes admission; later requests get `Closed`
//! ```

#![warn(missing_docs)]

mod config;
mod server;

pub use config::ServeConfig;
pub use server::{
    Request, Response, ServeCounters, ServeSession, Server, ServerClosed, SubmitError, Ticket,
};
