//! RCU micro-benchmarks (beyond-paper): quantifies the *mechanism* behind
//! Figure 8 directly —
//!
//! 1. read-side cost (`rcu_read_lock` + `rcu_read_unlock`) per flavor;
//! 2. `synchronize_rcu` storm: aggregate completion rate as the number of
//!    *concurrent* synchronizers grows (up to 8), per flavor;
//! 3. validated range-scan storm: linearizable `range_scan` throughput on
//!    a Citrus tree as updater churn grows, with the validation-restart
//!    counts that price the guarantee (DESIGN.md §6i).
//!
//! The global-lock flavor's synchronize rate should flatten (callers
//! serialize); the scalable flavor's aggregate rate should not.
//!
//! Results are persisted to `BENCH_rcu_micro.json` (see
//! `citrus_bench::benchjson`).

use citrus_bench::{benchjson, scan_storm, synchronize_storm, ScanCell, StormCell};
use citrus_rcu::{GlobalLockRcu, RcuFlavor, RcuHandle, ScalableRcu};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const SYNCERS: [usize; 4] = [1, 2, 4, 8];
const READERS: usize = 2;
const SCANNERS: usize = 2;
const SCAN_UPDATERS: [usize; 3] = [0, 1, 4];
const SCAN_KEY_RANGE: u64 = 20_000;
const SCAN_SPAN: u64 = 256;

fn read_side_cost<F: RcuFlavor>() -> f64 {
    let rcu = F::new();
    let h = rcu.register();
    const ITERS: u32 = 2_000_000;
    let start = Instant::now();
    for _ in 0..ITERS {
        let g = h.read_lock();
        std::hint::black_box(&g);
        drop(g);
    }
    start.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

/// One storm row: a fresh domain per cell so grace-period deltas are
/// per-cell and earlier cells can't warm later ones.
fn storm_row<F: RcuFlavor>(dur: Duration) -> Vec<StormCell> {
    SYNCERS
        .iter()
        .map(|&n| synchronize_storm(&F::new(), n, READERS, dur))
        .collect()
}

fn env_duration_ms(default: u64) -> Duration {
    Duration::from_millis(match std::env::var("CITRUS_DURATION_MS") {
        Ok(raw) => raw.trim().parse().unwrap_or_else(|e| {
            panic!("invalid CITRUS_DURATION_MS={raw:?}: {e} (expected milliseconds)")
        }),
        Err(std::env::VarError::NotPresent) => default,
        Err(e) => panic!("invalid CITRUS_DURATION_MS: {e}"),
    })
}

fn main() {
    println!("=== RCU micro-benchmarks ===\n");
    println!("read-side critical section cost (lock+unlock, ns/pair):");
    let read_scalable = read_side_cost::<ScalableRcu>();
    let read_global = read_side_cost::<GlobalLockRcu>();
    println!("  {:<18} {read_scalable:>8.1}", ScalableRcu::NAME);
    println!("  {:<18} {read_global:>8.1}", GlobalLockRcu::NAME);

    let dur = env_duration_ms(200);
    println!(
        "\nsynchronize_rcu storm: aggregate completions/s ({READERS} background \
         readers, {dur:?}/cell):"
    );
    print!("{:<28}", "flavor \\ syncers");
    for n in SYNCERS {
        print!("{n:>14}");
    }
    println!();

    let rows: Vec<(&str, Vec<StormCell>)> = vec![
        (ScalableRcu::NAME, storm_row::<ScalableRcu>(dur)),
        (GlobalLockRcu::NAME, storm_row::<GlobalLockRcu>(dur)),
    ];
    for (name, cells) in &rows {
        print!("{name:<28}");
        for c in cells {
            print!("{:>14.0}", c.per_sec);
        }
        println!();
    }
    println!(
        "\nexpected: the global-lock flavor's rate stays flat or degrades with\n\
         more synchronizers (they serialize); the scalable flavor's aggregate\n\
         rate grows — the mechanism behind Fig. 8."
    );

    println!(
        "\nvalidated range scans: scans/s ({SCANNERS} scanners, span {SCAN_SPAN} of \
         [0,{SCAN_KEY_RANGE}], {dur:?}/cell):"
    );
    print!("{:<28}", "flavor \\ updaters");
    for n in SCAN_UPDATERS {
        print!("{n:>14}");
    }
    println!();
    let scan_rows: Vec<(&str, Vec<ScanCell>)> = vec![
        (
            ScalableRcu::NAME,
            SCAN_UPDATERS
                .iter()
                .map(|&u| scan_storm::<ScalableRcu>(SCANNERS, u, SCAN_KEY_RANGE, SCAN_SPAN, dur))
                .collect(),
        ),
        (
            GlobalLockRcu::NAME,
            SCAN_UPDATERS
                .iter()
                .map(|&u| scan_storm::<GlobalLockRcu>(SCANNERS, u, SCAN_KEY_RANGE, SCAN_SPAN, dur))
                .collect(),
        ),
    ];
    for (name, cells) in &scan_rows {
        print!("{name:<28}");
        for c in cells {
            print!("{:>14.0}", c.scans_per_s);
        }
        print!("   restarts:");
        for c in cells {
            print!(" {}", c.restarts);
        }
        println!();
    }
    println!(
        "\nexpected: scan throughput dips as updater churn grows — each edge\n\
         the traversal recorded must still be intact at collection end, so\n\
         interfering writers force restarts (the restart counts above) but\n\
         never a torn result (DESIGN.md §6i)."
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"rcu_micro\",\n  \"read_side_ns\": {{\"{}\": {}, \"{}\": {}}},\n  \
         \"storm\": {{\n    \"duration_ms\": {},\n    \"readers\": {READERS},\n    \"cells\": [",
        benchjson::esc(ScalableRcu::NAME),
        benchjson::num(read_scalable),
        benchjson::esc(GlobalLockRcu::NAME),
        benchjson::num(read_global),
        dur.as_millis(),
    );
    let mut first = true;
    for (name, cells) in &rows {
        for c in cells {
            let _ = write!(
                json,
                "{}\n      {{\"flavor\": \"{}\", \"syncers\": {}, \
                 \"synchronize_per_s\": {}, \"grace_periods\": {}}}",
                if first { "" } else { "," },
                benchjson::esc(name),
                c.syncers,
                benchjson::num(c.per_sec),
                c.grace_periods,
            );
            first = false;
        }
    }
    json.push_str("\n    ]\n  },\n");
    let _ = write!(
        json,
        "  \"scan\": {{\n    \"duration_ms\": {},\n    \"scanners\": {SCANNERS},\n    \
         \"key_range\": {SCAN_KEY_RANGE},\n    \"cells\": [",
        dur.as_millis(),
    );
    let mut first = true;
    for (name, cells) in &scan_rows {
        for c in cells {
            let _ = write!(
                json,
                "{}\n      {{\"flavor\": \"{}\", \"updaters\": {}, \"span\": {}, \
                 \"scans_per_s\": {}, \"entries_per_scan\": {}, \"restarts\": {}}}",
                if first { "" } else { "," },
                benchjson::esc(name),
                c.updaters,
                c.span,
                benchjson::num(c.scans_per_s),
                benchjson::num(c.entries_per_scan),
                c.restarts,
            );
            first = false;
        }
    }
    json.push_str("\n    ]\n  }\n}\n");
    match benchjson::write("rcu_micro", &json) {
        Ok(path) => println!("\n(bench json: {})", path.display()),
        Err(e) => eprintln!("\n(bench json write failed: {e})"),
    }
}
