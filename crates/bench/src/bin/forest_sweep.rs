//! Forest shard sweep (beyond-paper): quantifies what breaking
//! grace-period serialization buys.
//!
//! A single Citrus tree funnels every two-child delete's
//! `synchronize_rcu` through one RCU domain; a [`CitrusForest`] gives each
//! key shard a private domain, so grace periods in one shard never wait on
//! readers or updaters of another. This sweep measures throughput over
//! `shards ∈ CITRUS_SHARDS (default 1,2,4,8) × update ratio {50%, 100%} ×
//! router {hash, range} × RCU flavor {scalable, global-lock}` at the
//! configured maximum thread count, and persists the grid — including
//! per-shard `synchronize_rcu` and grace-period counters, the direct
//! evidence of shard-local grace periods — to `BENCH_forest.json`. The
//! router axis establishes that point-op throughput is router-agnostic
//! under uniform keys.
//!
//! A second grid measures whole-forest validated `range_scan` throughput
//! per shard count and router (`scan_cells` in the JSON), at a narrow and
//! a full-range span. Hash routing scatters every span over every shard,
//! so an ordered read must fan out to all of them and validate the
//! traversals together — scans/s falls as shards grow. Range routing
//! enters only the shards whose key ranges overlap the span, so
//! narrow-span scans stay (near) shard-count-independent — the cost model
//! of DESIGN.md §6i/§6j.
//!
//! A third grid (`skew_cells`) runs a YCSB-style `zipf:0.99` hot-key
//! point workload per router: the tradeoff range routing pays for its
//! scan locality is that adjacent hot keys pile into one shard, while
//! hash routing scatters them.
//!
//! Flags: `--shards N[,M,...]` overrides the shard sweep, `--metrics` is
//! accepted for uniformity with the fig binaries.
//!
//! [`CitrusForest`]: citrus::CitrusForest

use citrus_bench::{banner, benchjson, config_from_env_and_args};
use citrus_harness::experiments::{forest_scan_sweep, forest_skew_sweep, forest_sweep};
use citrus_harness::{ForestCell, ForestScanCell, ForestSkewCell};
use std::fmt::Write as _;

/// How to read the committed grid: node layout, measurement host and the
/// router axis. Stored as the JSON's `notes` field.
const SWEEP_NOTE: &str = "Node<u64, u64> is one 64 B cache line (repr(C, align(64)), from the \
     line pool). Recorded with the binary's defaults (threads 1,2,4,8; the grid runs at 8) \
     on a 2-vCPU x86_64 KVM guest: threads outnumber CPUs, so a thread stalled in one \
     shard's synchronize_rcu yields its CPU to another instead of idling it, and the sweep \
     shows the shard trend rather than a multi-core speedup. Router axis: point cells are \
     expected router-agnostic under uniform keys; scan cells pay the all-shard fan-out tax \
     under hash routing but only enter overlapping shards under range routing, so \
     narrow-span range-routed scans should not fall as shards grow; skew cells record the \
     converse tradeoff (zipf hot keys concentrate into one range-routed shard, see \
     occupancy).";

fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

fn print_grid(cells: &[ForestCell], contains_pct: u32, router: &str, shards: &[usize]) {
    let threads = cells.first().map_or(0, |c| c.threads);
    println!(
        "== {}% contains / {}% updates, {} threads, {} router ==",
        contains_pct,
        100 - contains_pct,
        threads,
        router
    );
    print!("{:<22}", "flavor \\ shards");
    for s in shards {
        print!("{s:>10}");
    }
    println!();
    for flavor in ["rcu-scalable", "rcu-global-lock"] {
        print!("{flavor:<22}");
        for &s in shards {
            let cell = cells.iter().find(|c| {
                c.flavor == flavor
                    && c.router == router
                    && c.shards == s
                    && c.contains_pct == contains_pct
            });
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
            && c.router == router
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
        "{{\"flavor\": \"{}\", \"router\": \"{}\", \"shards\": {}, \"contains_pct\": {}, \
         \"threads\": {}, \"key_dist\": \"{}\", \"ops_per_s\": {}, \
         \"sync_calls_per_shard\": [{}], \"grace_periods_per_shard\": [{}], \
         \"occupancy\": [{}]}}",
        benchjson::esc(c.flavor),
        benchjson::esc(c.router),
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

fn print_scan_grid(cells: &[ForestScanCell], router: &str, span: u64, shards: &[usize]) {
    let (scanners, updaters) = cells.first().map_or((0, 0), |c| (c.scanners, c.updaters));
    println!(
        "== range scans, {scanners} scanners vs {updaters} updaters, span {span}, {router} router =="
    );
    print!("{:<22}", "flavor \\ shards");
    for s in shards {
        print!("{s:>10}");
    }
    println!();
    for flavor in ["rcu-scalable", "rcu-global-lock"] {
        print!("{flavor:<22}");
        for &s in shards {
            let cell = cells.iter().find(|c| {
                c.flavor == flavor && c.router == router && c.span == span && c.shards == s
            });
            match cell {
                Some(c) => print!("{:>10}", fmt_ops(c.scans_per_s)),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    if router == "hash" {
        println!(
            "(expected: scans/s falls with shard count — hash routing scatters every\n\
             span over every shard, so each scan fans out to all of them and\n\
             validates the traversals together)\n"
        );
    } else {
        println!(
            "(expected: narrow spans stay flat or rise with shard count — range\n\
             routing enters only the shards whose key ranges overlap the span;\n\
             full-range spans still touch every shard and behave like hash)\n"
        );
    }
}

fn scan_cell_json(c: &ForestScanCell) -> String {
    format!(
        "{{\"flavor\": \"{}\", \"router\": \"{}\", \"shards\": {}, \"scanners\": {}, \
         \"updaters\": {}, \"span\": {}, \"scans_per_s\": {}, \"restarts\": {}}}",
        benchjson::esc(c.flavor),
        benchjson::esc(c.router),
        c.shards,
        c.scanners,
        c.updaters,
        c.span,
        benchjson::num(c.scans_per_s),
        c.restarts
    )
}

fn print_skew_grid(cells: &[ForestSkewCell], shards: &[usize]) {
    let (threads, dist) = cells
        .first()
        .map_or((0, String::new()), |c| (c.threads, c.key_dist.clone()));
    println!("== hot-key point ops ({dist}), {threads} threads, 50% contains ==");
    print!("{:<22}", "router \\ shards");
    for s in shards {
        print!("{s:>10}");
    }
    println!();
    for router in ["hash", "range"] {
        print!("{router:<22}");
        for &s in shards {
            match cells.iter().find(|c| c.router == router && c.shards == s) {
                Some(c) => print!("{:>10}", fmt_ops(c.run.ops_per_s)),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    // Per-shard synchronize calls at the widest point are the skew
    // evidence: occupancy stays prefill-uniform (hot-key inserts and
    // deletes cancel out), but the two-child deletes behind those calls
    // follow the hot keys — into one shard under range routing, spread
    // under hash.
    let widest = shards.iter().copied().max().unwrap_or(1);
    for router in ["hash", "range"] {
        if let Some(c) = cells
            .iter()
            .find(|c| c.router == router && c.shards == widest)
        {
            println!(
                "{router} @ {} shards: sync calls/shard {:?}",
                c.shards, c.run.sync_calls_per_shard
            );
        }
    }
    println!(
        "(the tradeoff bought by scan locality: zipf traffic is adjacent-key\n\
         traffic, so range routing funnels it into one shard's grace-period\n\
         domain while hash routing spreads it)\n"
    );
}

fn skew_cell_json(c: &ForestSkewCell) -> String {
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
        "{{\"flavor\": \"{}\", \"router\": \"{}\", \"shards\": {}, \"key_dist\": \"{}\", \
         \"contains_pct\": {}, \"threads\": {}, \"ops_per_s\": {}, \
         \"sync_calls_per_shard\": [{}], \"occupancy\": [{}]}}",
        benchjson::esc(c.flavor),
        benchjson::esc(c.router),
        c.shards,
        benchjson::esc(&c.key_dist),
        c.contains_pct,
        c.threads,
        benchjson::num(c.run.ops_per_s),
        vec_u64(&c.run.sync_calls_per_shard),
        occupancy
    )
}

fn main() {
    banner("Forest shard sweep — per-shard RCU/EBR grace-period domains");
    let cfg = config_from_env_and_args();
    let shards: Vec<usize> = cfg.shards.iter().map(|&n| n.next_power_of_two()).collect();
    let cells = forest_sweep(&cfg);

    for contains_pct in [50u32, 0] {
        for router in ["hash", "range"] {
            print_grid(&cells, contains_pct, router, &shards);
        }
    }

    let scan_cells = forest_scan_sweep(&cfg);
    let mut spans: Vec<u64> = scan_cells.iter().map(|c| c.span).collect();
    spans.sort_unstable();
    spans.dedup();
    for router in ["hash", "range"] {
        for &span in &spans {
            print_scan_grid(&scan_cells, router, span, &shards);
        }
    }

    let skew_cells = forest_skew_sweep(&cfg);
    print_skew_grid(&skew_cells, &shards);

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
    body.push_str("\n  ],\n  \"skew_cells\": [");
    for (i, c) in skew_cells.iter().enumerate() {
        let _ = write!(
            body,
            "{}\n    {}",
            if i == 0 { "" } else { "," },
            skew_cell_json(c)
        );
    }
    body.push_str("\n  ]\n}\n");
    match benchjson::write("forest", &body) {
        Ok(path) => println!("(bench json: {})", path.display()),
        Err(e) => eprintln!("(bench json write failed: {e})"),
    }
}
