//! Workload specification: operation mixes, key ranges, thread counts.

use crate::keydist::KeyDist;
use core::fmt;
use std::time::Duration;

/// An operation mix, as percentages of `contains` / `insert` / `delete`.
///
/// The paper's mixes split the update share evenly between inserts and
/// deletes (e.g. "50% contains" means 50/25/25).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Percent of operations that are `contains`.
    pub contains: u32,
    /// Percent that are `insert`.
    pub insert: u32,
    /// Percent that are `delete`.
    pub delete: u32,
}

impl OpMix {
    /// A mix with the given `contains` percentage and the update share
    /// split evenly (the paper's convention).
    ///
    /// # Panics
    ///
    /// Panics if `contains_pct > 100` or the update share is odd.
    pub fn with_contains(contains_pct: u32) -> Self {
        assert!(contains_pct <= 100);
        let updates = 100 - contains_pct;
        assert!(updates.is_multiple_of(2), "update share must split evenly");
        Self {
            contains: contains_pct,
            insert: updates / 2,
            delete: updates / 2,
        }
    }

    /// The single-writer updater mix of Figure 9: 50% insert, 50% delete.
    pub fn updates_only() -> Self {
        Self {
            contains: 0,
            insert: 50,
            delete: 50,
        }
    }

    /// 100% `contains`.
    pub fn read_only() -> Self {
        Self {
            contains: 100,
            insert: 0,
            delete: 0,
        }
    }

    /// Picks an operation from a uniform draw in `[0, 100)`.
    pub(crate) fn pick(&self, draw: u32) -> OpKind {
        if draw < self.contains {
            OpKind::Contains
        } else if draw < self.contains + self.insert {
            OpKind::Insert
        } else {
            OpKind::Delete
        }
    }
}

impl fmt::Display for OpMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c/{}i/{}d", self.contains, self.insert, self.delete)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Contains,
    Insert,
    Delete,
}

/// A full workload configuration for one throughput run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Keys are drawn from `[0, key_range)` per [`key_dist`](Self::key_dist).
    pub key_range: u64,
    /// Operation mix for (non-single-writer) worker threads.
    pub mix: OpMix,
    /// Number of worker threads.
    pub threads: usize,
    /// Timed duration of the run.
    pub duration: Duration,
    /// Figure 9 mode: thread 0 runs 50% insert / 50% delete and every
    /// other thread runs 100% `contains`.
    pub single_writer: bool,
    /// Number of distinct keys pre-inserted before timing (the paper uses
    /// half the key range). Prefill keys are always drawn uniformly, so
    /// skewed runs start from the same occupancy as uniform ones.
    pub prefill: u64,
    /// Distribution the timed phase draws its keys from (the paper's
    /// methodology is [`KeyDist::Uniform`]).
    pub key_dist: KeyDist,
}

impl WorkloadSpec {
    /// The paper's configuration: prefill to half the key range, uniform
    /// key draws.
    pub fn new(key_range: u64, mix: OpMix, threads: usize, duration: Duration) -> Self {
        Self {
            key_range,
            mix,
            threads,
            duration,
            single_writer: false,
            prefill: key_range / 2,
            key_dist: KeyDist::Uniform,
        }
    }

    /// Figure 9's single-writer variant.
    pub fn single_writer(key_range: u64, threads: usize, duration: Duration) -> Self {
        Self {
            key_range,
            mix: OpMix::read_only(),
            threads,
            duration,
            single_writer: true,
            prefill: key_range / 2,
            key_dist: KeyDist::Uniform,
        }
    }

    /// The same workload with its timed draws taken from `dist` (prefill
    /// stays uniform).
    #[must_use]
    pub fn with_key_dist(mut self, dist: KeyDist) -> Self {
        self.key_dist = dist;
        self
    }
}

/// The algorithms of the evaluation (§5), i.e. every line in Figures 8–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Citrus over the paper's scalable RCU (leak-mode reclamation, as in
    /// the paper's runs).
    Citrus,
    /// Citrus over the classic global-lock RCU — the "standard RCU" line
    /// of Figure 8.
    CitrusStdRcu,
    /// Citrus with epoch-based reclamation enabled (beyond-paper
    /// configuration, used by the ablation bench).
    CitrusEbr,
    /// Bronson-style optimistic AVL.
    Avl,
    /// Lazy skiplist.
    Skiplist,
    /// Natarajan–Mittal-style lock-free external BST.
    LockFree,
    /// Relativistic red-black tree (global update lock).
    Rbtree,
    /// Bonsai (path-copying, global update lock).
    Bonsai,
}

impl Algo {
    /// All six lines of Figures 9 and 10.
    pub const FIGURE_SET: [Algo; 6] = [
        Algo::Citrus,
        Algo::Avl,
        Algo::Skiplist,
        Algo::LockFree,
        Algo::Rbtree,
        Algo::Bonsai,
    ];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Citrus => "Citrus",
            Algo::CitrusStdRcu => "Citrus (standard RCU)",
            Algo::CitrusEbr => "Citrus (EBR reclamation)",
            Algo::Avl => "AVL",
            Algo::Skiplist => "Skiplist",
            Algo::LockFree => "Lock-Free",
            Algo::Rbtree => "Red-Black",
            Algo::Bonsai => "Bonsai",
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_add_to_100() {
        for pct in [100, 98, 50, 0] {
            let m = OpMix::with_contains(pct);
            assert_eq!(m.contains + m.insert + m.delete, 100);
        }
    }

    #[test]
    fn pick_respects_boundaries() {
        let m = OpMix::with_contains(50);
        assert_eq!(m.pick(0), OpKind::Contains);
        assert_eq!(m.pick(49), OpKind::Contains);
        assert_eq!(m.pick(50), OpKind::Insert);
        assert_eq!(m.pick(74), OpKind::Insert);
        assert_eq!(m.pick(75), OpKind::Delete);
        assert_eq!(m.pick(99), OpKind::Delete);
    }

    #[test]
    #[should_panic]
    fn odd_update_share_panics() {
        let _ = OpMix::with_contains(99);
    }

    #[test]
    fn spec_prefills_half_range() {
        let s = WorkloadSpec::new(1000, OpMix::read_only(), 4, Duration::from_millis(10));
        assert_eq!(s.prefill, 500);
        assert!(!s.single_writer);
        assert!(WorkloadSpec::single_writer(10, 2, Duration::from_millis(1)).single_writer);
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let set: HashSet<_> = Algo::FIGURE_SET.iter().map(|a| a.label()).collect();
        assert_eq!(set.len(), Algo::FIGURE_SET.len());
    }
}
