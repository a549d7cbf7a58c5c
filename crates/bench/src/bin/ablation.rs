//! Ablation benches for the design decisions called out in DESIGN.md:
//!
//! * **D1** — per-node lock choice: our one-byte spin-then-yield lock vs
//!   `std::sync::Mutex` (acquire/release cost, uncontended).
//! * **D2** — scalable-RCU reader word: single packed word + fence vs two
//!   separate stores + fence.
//! * **D3** — reclamation: Citrus in `Leak` mode (paper methodology) vs
//!   `Epoch` mode (EBR) under the 50%-contains workload. With
//!   `CITRUS_RCU_NO_SHARING=1` the trees' RCU domains run without
//!   grace-period sharing.
//! * **D5** — grace-period sharing: concurrent `synchronize_rcu` callers
//!   piggybacking on a peer's grace period vs every caller scanning for
//!   itself, per RCU flavor (both modes, whatever
//!   `CITRUS_RCU_NO_SHARING` says).

use citrus::{CitrusTree, ReclaimMode};
use citrus_bench::synchronize_storm;
use citrus_harness::{runner, Algo, BenchConfig, OpMix, WorkloadSpec};
use citrus_rcu::{GlobalLockRcu, RcuFlavor, ScalableRcu};
use citrus_sync::RawSpinLock;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn bench_ns(label: &str, iters: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
    println!("  {label:<42} {ns:>8.1} ns/op");
    ns
}

/// Grace-period sharing for D3's RCU domains: off when
/// `CITRUS_RCU_NO_SHARING` is `1`, `true` or `yes`.
fn sharing_from_env() -> bool {
    match std::env::var("CITRUS_RCU_NO_SHARING") {
        Ok(raw) => match raw.trim() {
            "1" | "true" | "yes" => false,
            "" | "0" | "false" | "no" => true,
            other => {
                panic!("invalid CITRUS_RCU_NO_SHARING={other:?}: expected 1/true/yes or 0/false/no")
            }
        },
        Err(std::env::VarError::NotPresent) => true,
        Err(e) => panic!("invalid CITRUS_RCU_NO_SHARING: {e}"),
    }
}

fn main() {
    println!("=== Ablations ===\n");

    println!("D1 — per-node lock (uncontended lock+unlock):");
    let spin = RawSpinLock::new();
    bench_ns("citrus-sync RawSpinLock", 2_000_000, || {
        spin.lock();
        // SAFETY: just acquired above.
        unsafe { spin.unlock() };
    });
    let std_mutex = std::sync::Mutex::new(());
    bench_ns("std::sync::Mutex", 2_000_000, || {
        drop(std_mutex.lock().unwrap());
    });
    println!(
        "  (size: RawSpinLock = {} B, std::sync::Mutex<()> = {} B per node)\n",
        core::mem::size_of::<RawSpinLock>(),
        core::mem::size_of::<std::sync::Mutex<()>>()
    );

    println!("D2 — scalable-RCU reader fast path:");
    // Box the atomics and black_box the references so the stores cannot be
    // proven non-escaping and elided.
    let word = Box::new(AtomicU64::new(0));
    let word = std::hint::black_box(&*word);
    bench_ns(
        "packed (counter|flag) word + SeqCst fence",
        2_000_000,
        || {
            let w = word.load(Ordering::Relaxed);
            word.store(w.wrapping_add(2) | 1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            word.store(w & !1, Ordering::Release);
        },
    );
    let counter = Box::new(AtomicU64::new(0));
    let counter = std::hint::black_box(&*counter);
    let flag = Box::new(AtomicU64::new(0));
    let flag = std::hint::black_box(&*flag);
    bench_ns("separate counter + flag + SeqCst fence", 2_000_000, || {
        let c = counter.load(Ordering::Relaxed);
        counter.store(c.wrapping_add(1), Ordering::Relaxed);
        flag.store(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        flag.store(0, Ordering::Release);
    });
    println!();

    println!("D3 — reclamation mode under 50% contains:");
    let cfg = BenchConfig::from_env();
    let spec = WorkloadSpec::new(
        cfg.range_small,
        OpMix::with_contains(50),
        *cfg.threads.last().unwrap_or(&4),
        cfg.duration,
    );
    let sharing = sharing_from_env();
    let reps = cfg.reps.max(1);
    for (algo, mode) in [
        (Algo::Citrus, ReclaimMode::Leak),
        (Algo::CitrusEbr, ReclaimMode::Epoch),
    ] {
        // A fresh tree per repetition, as `runner::run_algo` builds them,
        // but over a domain with the sharing mode picked above.
        let total: f64 = (0..reps)
            .map(|rep| {
                let tree: CitrusTree<u64, u64, ScalableRcu> =
                    CitrusTree::with_rcu(ScalableRcu::with_sharing(sharing), mode);
                runner::run_throughput(&tree, &spec, 0xAB1A ^ (rep as u64) << 32).throughput()
            })
            .sum();
        println!("  {:<42} {:>10.0} ops/s", algo.label(), total / reps as f64);
    }
    println!(
        "\nexpected: Leak (paper methodology) modestly above Epoch — EBR's pin/\n\
         retire bookkeeping is the price of bounded memory.\n"
    );

    println!("D5 — grace-period sharing (4 concurrent synchronizers, 2 readers):");
    let dur = Duration::from_millis(match std::env::var("CITRUS_DURATION_MS") {
        Ok(raw) => raw.trim().parse().unwrap_or_else(|e| {
            panic!("invalid CITRUS_DURATION_MS={raw:?}: {e} (expected milliseconds)")
        }),
        Err(std::env::VarError::NotPresent) => 200,
        Err(e) => panic!("invalid CITRUS_DURATION_MS: {e}"),
    });
    fn d5_row<F: RcuFlavor>(label: &str, rcu: &F, dur: Duration) {
        let cell = synchronize_storm(rcu, 4, 2, dur);
        println!(
            "  {label:<42} {:>10.0} sync/s  ({} piggybacked, {} full GPs)",
            cell.per_sec, cell.piggybacks, cell.grace_periods
        );
    }
    d5_row("scalable, shared", &ScalableRcu::with_sharing(true), dur);
    d5_row("scalable, unshared", &ScalableRcu::with_sharing(false), dur);
    d5_row(
        "global-lock, shared",
        &GlobalLockRcu::with_sharing(true),
        dur,
    );
    d5_row(
        "global-lock, unshared",
        &GlobalLockRcu::with_sharing(false),
        dur,
    );
    println!(
        "\nexpected: shared above unshared — queued synchronizers return on a\n\
         peer's grace period instead of scanning for themselves (DESIGN.md §6d)."
    );
}
