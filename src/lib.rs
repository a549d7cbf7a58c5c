//! Umbrella crate for the Citrus reproduction: re-exports every
//! sub-crate so the examples and integration tests have one import root.
//!
//! See the repository README for the full tour. The interesting entry
//! points:
//!
//! * [`citrus::CitrusTree`] — the paper's contribution.
//! * [`citrus_rcu`] — the two user-space RCU implementations.
//! * [`citrus_baselines`] — the five comparison dictionaries.
//! * [`citrus_harness`] — the evaluation harness (Figures 8–10).
//! * [`citrus_serve`] — the direct-execution, backpressured serving
//!   layer over the forest.

#![warn(missing_docs)]

pub use citrus;
pub use citrus_api;
pub use citrus_baselines;
pub use citrus_chaos;
pub use citrus_harness;
pub use citrus_rcu;
pub use citrus_reclaim;
pub use citrus_serve;
pub use citrus_sync;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use citrus::{
        CitrusForest, CitrusSession, CitrusTree, ForestSession, GlobalLockRcu, ReclaimMode,
        ScalableRcu,
    };
    pub use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
    pub use citrus_baselines::{
        BonsaiTree, LazySkipList, LockFreeBst, OptimisticAvlTree, RelativisticRbTree,
    };
    pub use citrus_rcu::{RcuFlavor, RcuHandle};
    pub use citrus_serve::{Request, Response, ServeConfig, ServeSession, Server, SubmitError};
}
