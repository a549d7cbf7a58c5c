//! Ablation benches for the design decisions called out in DESIGN.md:
//!
//! * **D1** — per-node lock choice: our one-byte spin-then-yield lock vs
//!   `std::sync::Mutex` (acquire/release cost, uncontended).
//! * **D2** — scalable-RCU reader word: single packed word + fence vs two
//!   separate stores + fence.
//! * **D3** — reclamation: Citrus in `Leak` mode (paper methodology) vs
//!   `Epoch` mode (EBR) under the 50%-contains workload.

use citrus_harness::{runner, Algo, BenchConfig, OpMix, WorkloadSpec};
use citrus_sync::RawSpinLock;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

fn bench_ns(label: &str, iters: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
    println!("  {label:<42} {ns:>8.1} ns/op");
    ns
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
    for algo in [Algo::Citrus, Algo::CitrusEbr] {
        let ops_per_s = runner::run_algo(algo, &spec, cfg.reps, 0xAB1A);
        println!("  {:<42} {ops_per_s:>10.0} ops/s", algo.label());
    }
    println!(
        "\nexpected: Leak (paper methodology) modestly above Epoch — EBR's pin/\n\
         retire bookkeeping is the price of bounded memory.\n"
    );
}
