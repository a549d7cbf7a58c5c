//! The grace-period property under a chaos-seed sweep in both RCU
//! flavors: several synchronizers, each waiting out its own grace period
//! without coordinating with the others, against two readers that check
//! they never see a freed value.
//!
//! The sweep width follows `CITRUS_CHAOS_SEEDS` (default 3):
//!
//! ```text
//! CITRUS_CHAOS_SEEDS=5 cargo test -p citrus-rcu --features chaos --test grace_period_sweep
//! ```

use citrus_api::testkit;
use citrus_rcu::{GlobalLockRcu, RcuFlavor, ScalableRcu};

/// [`testkit::check_grace_period_property`] at 4 synchronizers × 40
/// rounds and 2 × 20, each on a fresh domain, swept over chaos schedule
/// seeds that perturb every failpoint of the flavor.
fn grace_period_chaos_sweep<F: RcuFlavor>(name: &str) {
    let _watchdog = testkit::stress_watchdog(name);
    for i in 0..testkit::chaos_seeds(3) {
        let seed = 0x6B5E_A000u64.wrapping_add(i);
        let chaos = testkit::install_chaos(testkit::ChaosPlan::from_seed(seed));
        testkit::check_grace_period_property(&F::new(), 4, 40);
        testkit::check_grace_period_property(&F::new(), 2, 20);
        testkit::assert_workers_armed(&chaos, &format!("{name} seed {seed:#x}"));
    }
}

#[test]
fn grace_period_chaos_sweep_scalable() {
    grace_period_chaos_sweep::<ScalableRcu>("grace_period_chaos_sweep_scalable");
}

#[test]
fn grace_period_chaos_sweep_global_lock() {
    grace_period_chaos_sweep::<GlobalLockRcu>("grace_period_chaos_sweep_global_lock");
}
