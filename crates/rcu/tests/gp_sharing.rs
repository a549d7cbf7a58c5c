//! Grace-period sharing (DESIGN.md §6d): the piggyback property under a
//! chaos-seed sweep in both RCU flavors, plus liveness/occurrence checks.
//!
//! The sweep width follows `CITRUS_CHAOS_SEEDS` (default 3):
//!
//! ```text
//! CITRUS_CHAOS_SEEDS=5 cargo test -p citrus-rcu --features chaos --test gp_sharing
//! ```

use citrus_api::testkit;
use citrus_rcu::{GlobalLockRcu, RcuFlavor, RcuHandle, ScalableRcu};
use std::sync::atomic::Ordering;

/// The grace-period property with sharing on and off, swept over chaos
/// schedule seeds that perturb the piggyback decision window
/// (`rcu-*/synchronize/piggyback-check` among every other failpoint).
fn piggyback_property_chaos_sweep<F, M>(name: &str, make: M)
where
    F: RcuFlavor,
    M: Fn(bool) -> F,
{
    let _watchdog = testkit::stress_watchdog(name);
    for i in 0..testkit::chaos_seeds(3) {
        let seed = 0x6B5E_A000u64.wrapping_add(i);
        let _chaos = testkit::install_chaos(testkit::ChaosPlan::from_seed(seed));
        // Sharing on, several concurrent synchronizers: piggybacked
        // returns must still honor in-flight readers.
        testkit::check_grace_period_property(&make(true), 4, 40);
        // Sharing off: the plain per-caller scan, same oracle.
        testkit::check_grace_period_property(&make(false), 2, 20);
    }
}

#[test]
fn piggyback_property_chaos_sweep_scalable() {
    piggyback_property_chaos_sweep("piggyback_property_chaos_sweep_scalable", |sharing| {
        ScalableRcu::with_sharing(sharing)
    });
}

#[test]
fn piggyback_property_chaos_sweep_global_lock() {
    piggyback_property_chaos_sweep("piggyback_property_chaos_sweep_global_lock", |sharing| {
        GlobalLockRcu::with_sharing(sharing)
    });
}

/// With sharing enabled and a reader population keeping scans busy,
/// concurrent synchronizers do actually piggyback (bounded retry loop:
/// each round adds more opportunities; scheduling decides how soon).
fn piggyback_occurs<F: RcuFlavor>(rcu: &F) {
    let _watchdog = testkit::stress_watchdog("piggyback_occurs");
    for _round in 0..50 {
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (rcu, done) = (rcu, &done);
            s.spawn(move || {
                let h = rcu.register();
                // Keep scans busy until every synchronizer has finished.
                while done.load(Ordering::Acquire) < 4 {
                    let _g = h.read_lock();
                    for _ in 0..32 {
                        std::hint::spin_loop();
                    }
                }
            });
            for _ in 0..4 {
                s.spawn(move || {
                    let h = rcu.register();
                    for _ in 0..25 {
                        h.synchronize();
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
        });
        if rcu.synchronize_piggybacks() > 0 {
            return;
        }
    }
    panic!(
        "no synchronize call piggybacked in 50 rounds of 4 concurrent \
         synchronizers ({} grace periods ran)",
        rcu.grace_periods()
    );
}

#[test]
fn piggyback_occurs_scalable() {
    piggyback_occurs(&ScalableRcu::with_sharing(true));
}

#[test]
fn piggyback_occurs_global_lock() {
    piggyback_occurs(&GlobalLockRcu::with_sharing(true));
}

/// `with_sharing(false)` really turns the optimization off.
#[test]
fn unshared_domains_never_piggyback() {
    let _watchdog = testkit::stress_watchdog("unshared_domains_never_piggyback");
    let scalable = ScalableRcu::with_sharing(false);
    let global = GlobalLockRcu::with_sharing(false);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let h = scalable.register();
                let g = global.register();
                for _ in 0..50 {
                    h.synchronize();
                    g.synchronize();
                }
            });
        }
    });
    assert_eq!(scalable.synchronize_piggybacks(), 0);
    assert_eq!(global.synchronize_piggybacks(), 0);
    assert_eq!(scalable.grace_periods(), 200);
    assert_eq!(global.grace_periods(), 200);
}
