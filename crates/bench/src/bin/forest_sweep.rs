//! Forest shard sweep (beyond-paper): quantifies what breaking
//! grace-period serialization buys.
//!
//! A single Citrus tree funnels every two-child delete's
//! `synchronize_rcu` through one RCU domain; a [`CitrusForest`] gives each
//! key shard a private domain, so grace periods in one shard never wait on
//! readers or updaters of another. This sweep measures throughput over
//! `shards ∈ CITRUS_SHARDS (default 1,2,4,8) × update ratio {50%, 100%} ×
//! RCU flavor {scalable, global-lock}` at the configured maximum thread
//! count, and persists the grid — including per-shard `synchronize_rcu`
//! and grace-period counters, the direct evidence of shard-local grace
//! periods — to `BENCH_forest.json`.
//!
//! A second grid measures whole-forest validated `range_scan` throughput
//! per shard count (`scan_cells` in the JSON), at a narrow and a
//! full-range span. Hash routing scatters every span over every shard, so
//! an ordered read must fan out to all of them and validate the
//! traversals together — scans/s falls as shards grow, the cost model of
//! DESIGN.md §6i.
//!
//! Flags: `--shards N[,M,...]` overrides the shard sweep, `--metrics` is
//! accepted for uniformity with the fig binaries.
//!
//! [`CitrusForest`]: citrus::CitrusForest

use citrus_bench::{banner, benchjson, config_from_env_and_args};
use citrus_harness::experiments::{forest_scan_sweep, forest_sweep};
use citrus_harness::{ForestCell, ForestScanCell};
use std::fmt::Write as _;

/// How to read the committed grid: node layout and measurement host.
/// Stored as the JSON's `notes` field.
const SWEEP_NOTE: &str = "Node<u64, u64> is one 64 B cache line (repr(C, align(64)), from the \
     line pool). Recorded with the binary's defaults (threads 1,2,4,8; the grid runs at 8) \
     on a 2-vCPU x86_64 KVM guest: threads outnumber CPUs, so a thread stalled in one \
     shard's synchronize_rcu yields its CPU to another instead of idling it, and the sweep \
     shows the shard trend rather than a multi-core speedup. Scan cells pay the all-shard \
     fan-out: hash routing scatters every span over every shard.";

fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

fn print_grid(cells: &[ForestCell], contains_pct: u32, shards: &[usize]) {
    let threads = cells.first().map_or(0, |c| c.threads);
    println!(
        "== {}% contains / {}% updates, {} threads ==",
        contains_pct,
        100 - contains_pct,
        threads
    );
    print!("{:<22}", "flavor \\ shards");
    for s in shards {
        print!("{s:>10}");
    }
    println!();
    for flavor in ["rcu-scalable", "rcu-global-lock"] {
        print!("{flavor:<22}");
        for &s in shards {
            let cell = cells
                .iter()
                .find(|c| c.flavor == flavor && c.shards == s && c.contains_pct == contains_pct);
            match cell {
                Some(c) => print!("{:>10}", fmt_ops(c.run.ops_per_s)),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    // Per-shard synchronize calls at the widest sweep point: all-zero
    // tails would mean grace periods are not actually spreading.
    if let Some(c) = cells.iter().find(|c| {
        c.flavor == "rcu-scalable"
            && c.contains_pct == contains_pct
            && c.shards == shards.iter().copied().max().unwrap_or(1)
    }) {
        println!(
            "scalable @ {} shards: sync calls/shard {:?}, grace periods/shard {:?}",
            c.shards, c.run.sync_calls_per_shard, c.run.grace_periods_per_shard
        );
    }
    println!();
}

fn cell_json(c: &ForestCell) -> String {
    let vec_u64 = |v: &[u64]| {
        v.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let occupancy = c
        .run
        .occupancy
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"flavor\": \"{}\", \"shards\": {}, \"contains_pct\": {}, \
         \"threads\": {}, \"key_dist\": \"{}\", \"ops_per_s\": {}, \
         \"sync_calls_per_shard\": [{}], \"grace_periods_per_shard\": [{}], \
         \"occupancy\": [{}]}}",
        benchjson::esc(c.flavor),
        c.shards,
        c.contains_pct,
        c.threads,
        benchjson::esc(&c.key_dist),
        benchjson::num(c.run.ops_per_s),
        vec_u64(&c.run.sync_calls_per_shard),
        vec_u64(&c.run.grace_periods_per_shard),
        occupancy
    )
}

fn print_scan_grid(cells: &[ForestScanCell], span: u64, shards: &[usize]) {
    let (scanners, updaters) = cells.first().map_or((0, 0), |c| (c.scanners, c.updaters));
    println!("== range scans, {scanners} scanners vs {updaters} updaters, span {span} ==");
    print!("{:<22}", "flavor \\ shards");
    for s in shards {
        print!("{s:>10}");
    }
    println!();
    for flavor in ["rcu-scalable", "rcu-global-lock"] {
        print!("{flavor:<22}");
        for &s in shards {
            let cell = cells
                .iter()
                .find(|c| c.flavor == flavor && c.span == span && c.shards == s);
            match cell {
                Some(c) => print!("{:>10}", fmt_ops(c.scans_per_s)),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    println!(
        "(expected: scans/s falls with shard count — hash routing scatters every\n\
         span over every shard, so each scan fans out to all of them and\n\
         validates the traversals together)\n"
    );
}

fn scan_cell_json(c: &ForestScanCell) -> String {
    format!(
        "{{\"flavor\": \"{}\", \"shards\": {}, \"scanners\": {}, \
         \"updaters\": {}, \"span\": {}, \"scans_per_s\": {}, \"restarts\": {}}}",
        benchjson::esc(c.flavor),
        c.shards,
        c.scanners,
        c.updaters,
        c.span,
        benchjson::num(c.scans_per_s),
        c.restarts
    )
}

fn main() {
    banner("Forest shard sweep — per-shard RCU/EBR grace-period domains");
    let cfg = config_from_env_and_args();
    let shards: Vec<usize> = cfg.shards.iter().map(|&n| n.next_power_of_two()).collect();
    let cells = forest_sweep(&cfg);

    for contains_pct in [50u32, 0] {
        print_grid(&cells, contains_pct, &shards);
    }

    let scan_cells = forest_scan_sweep(&cfg);
    let mut spans: Vec<u64> = scan_cells.iter().map(|c| c.span).collect();
    spans.sort_unstable();
    spans.dedup();
    for &span in &spans {
        print_scan_grid(&scan_cells, span, &shards);
    }

    let mut body = String::new();
    let _ = write!(
        body,
        "{{\n  \"bench\": \"forest\",\n  \"title\": \"CitrusForest shard sweep, key range [0,{}]\",\n  \
         \"notes\": \"{}\",\n  \"cells\": [",
        cfg.range_small,
        benchjson::esc(SWEEP_NOTE)
    );
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            body,
            "{}\n    {}",
            if i == 0 { "" } else { "," },
            cell_json(c)
        );
    }
    body.push_str("\n  ],\n  \"scan_cells\": [");
    for (i, c) in scan_cells.iter().enumerate() {
        let _ = write!(
            body,
            "{}\n    {}",
            if i == 0 { "" } else { "," },
            scan_cell_json(c)
        );
    }
    body.push_str("\n  ]\n}\n");
    match benchjson::write("forest", &body) {
        Ok(path) => println!("(bench json: {})", path.display()),
        Err(e) => eprintln!("(bench json write failed: {e})"),
    }
}
