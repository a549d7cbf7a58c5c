//! The node pool's resident-memory guard, in a binary of its own so no
//! other test moves the process's RSS while it measures.
//!
//! Carving N node lines on one thread may grow the resident set by the N
//! lines themselves plus at most one bump range (1 MiB) and a small fixed
//! slack for the tree's other allocations. Backing the pool with huge
//! pages at allocation time would fault a whole 2 MiB block in on its
//! first line and break this bound; the pool only collapses blocks that
//! are already fully carved, which adds no resident memory.

#![cfg(target_os = "linux")]

use citrus::{CitrusTree, ReclaimMode};
use citrus_api::testkit::SplitMix64;

/// Node lines carved by the test: 256 KiB, well under the 2 MiB a huge
/// page would fault in.
const N: usize = 4096;
const LINE: usize = 64;
const RANGE: usize = 1 << 20;
/// The tree's own allocations (domains, session, thread registration)
/// and page rounding.
const SLACK: usize = 256 << 10;

/// The process's resident set, in bytes.
fn vm_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: usize = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS in /proc/self/status");
    kb << 10
}

/// Whether AddressSanitizer's runtime is loaded, told by its shadow
/// memory, which it maps at fixed addresses (the x86_64 high shadow
/// starts at 0x02008fff7000). Its allocator and shadow add megabytes of
/// RSS to the pool's own use, with or without huge pages.
fn under_address_sanitizer() -> bool {
    std::fs::read_to_string("/proc/self/maps")
        .is_ok_and(|maps| maps.lines().any(|l| l.starts_with("2008fff7000-")))
}

#[test]
fn carving_lines_grows_rss_by_the_lines_not_by_huge_pages() {
    if under_address_sanitizer() {
        eprintln!("skipped: RSS under AddressSanitizer is not the pool's");
        return;
    }
    // Draw the keys before measuring, so their buffer is not counted.
    let mut rng = SplitMix64::new(0x9001);
    let keys: Vec<u64> = (0..N).map(|_| rng.next_u64()).collect();
    let before = vm_rss();
    let tree: CitrusTree<u64, u64> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
    let mut s = tree.session();
    let mut inserted = 0;
    for &k in &keys {
        inserted += usize::from(s.insert(k, k));
    }
    let grown = vm_rss().saturating_sub(before);
    let bound = inserted * LINE + RANGE + SLACK;
    assert!(
        grown <= bound,
        "{inserted} one-line nodes grew RSS by {grown} B (bound {bound} B)"
    );
    drop(s);
    let mut tree = tree;
    assert_eq!(tree.validate_structure().expect("valid tree").len, inserted);
}
