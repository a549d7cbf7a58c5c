//! The open-loop `citrus-serve` workloads: requests are due on a fixed
//! schedule whether or not earlier ones have been answered, and each
//! request's latency runs from the moment it was due.

use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use citrus_serve::{Request, Response, Server, SubmitError, Ticket};

use crate::forest::{bad_results, record_trace_overhead};
use crate::inputs::{self, value_of, Keys, Mix, Op, OpKind, Rng, Zipf};
use crate::layers::{self, ratio, Counters, OpCounts};
use crate::program::{self, get_ok, scan_ok, Forest};
use crate::report::{Mode, Report};
use crate::stats::{median, Summary};

/// One open-loop serve workload: the session-store mix at a fixed rate.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Offered load, requests per second.
    pub rate: u64,
}

/// Offered load well below saturation (see the README for why there is no
/// higher rung).
pub const R25K: ServeSpec = ServeSpec {
    name: "serve-session-zipf.r25k",
    rate: 25_000,
};

/// Keys are Zipfian over `[0, KEY_RANGE)`; the forest is prefilled
/// (uniformly) to half of it.
const KEY_RANGE: u64 = 200_000;
/// Zipf skew (YCSB's default).
const THETA: f64 = 0.99;
/// The session-store mix.
const MIX: Mix = Mix {
    get: 60,
    insert: 18,
    remove: 17,
    scan: 5,
};
/// Scan width in keys.
const SPAN: u64 = 32;
/// Which keys are hot is part of the workload, not of the seed: the seed
/// draws the request sequence, while the popularity ranking (and with it
/// the hot shard's share of the load) stays the same from run to run.
const HOT_SET_SEED: u64 = 0x5E55_1011;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of the schedule, at its start, whose latencies are not reported.
const WARMUP_SHARE: f64 = 0.1;
/// The measured schedule is cut into windows of this many seconds by due
/// time; each latency metric is the median of its per-window values.
const WINDOW_S: f64 = 1.0;
/// A request still unanswered this long after the last one was due
/// counts as failed.
const ANSWER_GRACE: Duration = Duration::from_secs(2);

type Srv = Server<u64, u64>;

/// Builds, prefills and starts one server; returns it with the seconds
/// taken and the forest's counters before any request.
fn set_up(prefill: &[u64], threads: usize) -> Result<(Srv, f64, Counters), String> {
    let t = Instant::now();
    let forest = program::build_forest();
    program::prefill(&forest, prefill, threads)?;
    let filled = t.elapsed();
    let before = Counters::read(&forest);
    let t = Instant::now();
    let server = Server::with_config(forest, program::serve_config());
    Ok((server, (filled + t.elapsed()).as_secs_f64(), before))
}

/// Seeded inputs of one run.
fn generate(spec: &ServeSpec, seed: u64, seconds: f64) -> (Vec<u64>, Vec<Op>) {
    let prefill = inputs::prefill_keys(KEY_RANGE, (KEY_RANGE / 2) as usize, &mut Rng::new(seed, 1));
    let keys = Keys::Zipf(Zipf::new(KEY_RANGE, THETA, &mut Rng::new(HOT_SET_SEED, 2)));
    let n = ((spec.rate as f64 * seconds) as usize).max(1);
    let reqs = inputs::ops(n, &MIX, &keys, &mut Rng::new(seed, 3));
    (prefill, reqs)
}

fn request(op: Op) -> Request<u64, u64> {
    let k = op.key;
    match op.kind {
        OpKind::Get => Request::Get(k),
        OpKind::Insert => Request::Insert(k, value_of(k)),
        OpKind::Remove => Request::Remove(k),
        OpKind::Scan => Request::Scan(k, k + SPAN - 1),
    }
}

/// What the open loop observed.
#[derive(Debug, Default)]
struct LoopOut {
    /// Per request: answer observed minus due time, ns (`None`: failed).
    lat: Vec<Option<u64>>,
    /// Per request: send time minus due time, ns.
    late: Vec<u64>,
    /// Per answer: gap between the two polls that bracket its observation,
    /// ns (the bound on how late an answer can be observed).
    poll_gap: Vec<u64>,
    /// Traced only: `Server::submit` call times, ns.
    submit: Vec<u64>,
    /// Traced only: the hot shard's queue length at each send.
    depth: Vec<u64>,
    /// Requests outstanding when the warm-up ended and when the last was
    /// sent.
    backlog: (u64, u64),
    /// Time from the first due time to the last answer.
    span: Duration,
    rejected: u64,
    closed: u64,
    unanswered: u64,
    unresolved: u64,
    answered: u64,
    inserted: u64,
    removed: u64,
    writes_acked: u64,
    bad: u64,
}

impl LoopOut {
    fn settle(&mut self, op: Op, resp: Response<u64, u64>) {
        let k = op.key;
        let ok = match (op.kind, resp) {
            (OpKind::Get, Response::Value(v)) => get_ok(k, v),
            (OpKind::Insert, Response::Flag(added)) => {
                self.inserted += u64::from(added);
                self.writes_acked += 1;
                true
            }
            (OpKind::Remove, Response::Flag(gone)) => {
                self.removed += u64::from(gone);
                self.writes_acked += 1;
                true
            }
            (OpKind::Scan, Response::Entries(e)) => scan_ok(k, k + SPAN - 1, &e),
            _ => false,
        };
        self.bad += u64::from(!ok);
    }
}

/// Sends `reqs` on schedule from one thread that also collects answers.
///
/// Answers are collected from one FIFO per shard: a shard's worker answers
/// its queue in order, so only the head of each FIFO can be the next to
/// resolve, and a slow shard never delays the observation of another
/// shard's answers. The loop polls every FIFO head on every pass and
/// yields the CPU when a pass finds nothing to do, so an answer is
/// observed at most one pass after it is delivered; that gap is recorded.
fn open_loop(
    server: &Srv,
    reqs: &[Op],
    shard_of: &[usize],
    rate: u64,
    trace: bool,
    hot: usize,
) -> LoopOut {
    let n = reqs.len();
    let due = |i: usize| (i as u128 * 1_000_000_000 / u128::from(rate)) as u64;
    let warm_ns = (due(n - 1) as f64 * WARMUP_SHARE) as u64;
    let deadline = due(n - 1) + ANSWER_GRACE.as_nanos() as u64;
    let mut out = LoopOut {
        lat: vec![None; n],
        late: Vec::with_capacity(n),
        ..LoopOut::default()
    };
    let mut fifos: Vec<VecDeque<(usize, Ticket<u64, u64>)>> =
        (0..server.shard_count()).map(|_| VecDeque::new()).collect();
    let mut outstanding: u64 = 0;
    let mut warm_marked = false;
    let t0 = Instant::now();
    let ns = || t0.elapsed().as_nanos() as u64;
    let mut next = 0;
    let mut prev_pass = 0;
    loop {
        let pass = ns();
        let mut progress = false;
        while next < n && due(next) <= ns() {
            if !warm_marked && due(next) >= warm_ns {
                out.backlog.0 = outstanding;
                warm_marked = true;
            }
            let sent = ns();
            out.late.push(sent - due(next));
            let ts = trace.then(Instant::now);
            let res = server.submit(request(reqs[next]));
            if let Some(ts) = ts {
                out.submit.push(ts.elapsed().as_nanos() as u64);
                out.depth.push(server.queue_len(hot) as u64);
            }
            match res {
                Ok(ticket) => {
                    fifos[shard_of[next]].push_back((next, ticket));
                    outstanding += 1;
                }
                Err(SubmitError::Rejected { .. }) => out.rejected += 1,
                Err(SubmitError::Closed(_)) => out.closed += 1,
            }
            next += 1;
            if next == n {
                out.backlog.1 = outstanding;
            }
            progress = true;
        }
        for fifo in &mut fifos {
            while fifo.front().is_some_and(|(_, t)| t.is_ready()) {
                let (i, ticket) = fifo.pop_front().expect("front checked");
                let seen = ns();
                out.lat[i] = Some(seen - due(i));
                out.poll_gap.push(seen - prev_pass);
                out.answered += 1;
                outstanding -= 1;
                out.settle(reqs[i], ticket.wait());
                progress = true;
            }
        }
        prev_pass = pass;
        if next == n && outstanding == 0 {
            break;
        }
        if next == n && ns() > deadline {
            out.unanswered = outstanding;
            break;
        }
        if !progress {
            std::thread::yield_now();
        }
    }
    out.span = t0.elapsed();
    if out.unanswered > 0 {
        // Shutdown drains every queue and answers every accepted ticket.
        server.shutdown();
        for (i, ticket) in fifos.iter_mut().flat_map(|f| f.drain(..)) {
            if ticket.is_ready() {
                out.settle(reqs[i], ticket.wait());
            } else {
                out.unresolved += 1;
            }
        }
    }
    out
}

/// Per-window median latency percentiles over the measured schedule, µs.
fn windowed(lat: &[Option<u64>], rate: u64) -> (f64, f64, Summary) {
    let n = lat.len();
    let due = |i: usize| (i as u128 * 1_000_000_000 / u128::from(rate)) as u64;
    let end = due(n - 1) + 1;
    let warm = (end as f64 * WARMUP_SHARE) as u64;
    let count = (((end - warm) as f64 / 1e9 / WINDOW_S).round() as usize).max(3);
    let mut windows: Vec<Vec<u64>> = vec![Vec::new(); count];
    for (i, l) in lat.iter().enumerate() {
        let d = due(i);
        if let (Some(l), true) = (l, d >= warm) {
            let w = ((d - warm) as u128 * count as u128 / (end - warm) as u128) as usize;
            windows[w.min(count - 1)].push(*l);
        }
    }
    let mut all: Vec<u64> = windows.iter().flatten().copied().collect();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for w in &mut windows {
        if let Some(s) = Summary::of(w) {
            p50.push(s.p50 as f64 / 1000.0);
            p99.push(s.p99 as f64 / 1000.0);
        }
    }
    let s = Summary::of(&mut all).unwrap_or(Summary {
        n: 0,
        p50: 0,
        p99: 0,
        max: 0,
        tail: None,
    });
    if p50.is_empty() {
        return (0.0, 0.0, s);
    }
    println!("  window p50 us: {p50:?}");
    println!("  window p99 us: {p99:?}");
    (median(&p50), median(&p99), s)
}

/// One run: set-up, the open loop, and the audit. Traced runs also time
/// `submit`, sample the hot queue, read the forest's counters, and replay
/// the request stream against a fresh forest with every call timed.
///
/// # Errors
///
/// Set-up or metric recording failed.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    threads: usize,
    mode: Mode,
    setups: Option<usize>,
    untraced_ops_per_s: f64,
) -> Result<Report, String> {
    let trace = mode == Mode::Traced;
    let mut report = Report::new(mode);
    let (prefill, reqs) = generate(spec, seed, seconds);
    let (server, first_setup_s, before) = set_up(&prefill, threads)?;
    let shard_of: Vec<usize> = reqs.iter().map(|op| server.shard_for(&op.key)).collect();
    let mut per_shard = vec![0u64; server.shard_count()];
    for &s in &shard_of {
        per_shard[s] += 1;
    }
    let hot = (0..per_shard.len())
        .max_by_key(|&s| per_shard[s])
        .unwrap_or(0);
    let hot_share = per_shard[hot] as f64 / reqs.len() as f64;
    println!(
        "  requests {} at {} req/s; hot shard {hot} gets {:.1}% of them",
        reqs.len(),
        spec.rate,
        hot_share * 100.0
    );

    let ticks = program::cpu_ticks();
    let mut out = open_loop(&server, &reqs, &shard_of, spec.rate, trace, hot);
    println!("{}", program::describe_steal(ticks, program::cpu_ticks()));
    server.shutdown();
    let counters = server.counters();
    let (accepted, rejected) = (counters.accepted(), counters.rejected());
    let (executed, batches) = (counters.executed(), counters.batches());
    report.check(
        "acked_writes",
        if counters.acked_writes() == out.writes_acked {
            Ok(())
        } else {
            Err(format!(
                "server acked {} writes, clients saw {}",
                counters.acked_writes(),
                out.writes_acked
            ))
        },
    );
    report.check(
        "tickets",
        if out.unresolved == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} accepted tickets never resolved",
                out.unresolved
            ))
        },
    );
    report.check("results", bad_results(out.bad));
    let mut forest: Forest = server.into_forest();
    let after = Counters::read(&forest);
    program::audit(
        &mut forest,
        prefill.len() as u64,
        out.inserted,
        out.removed,
        &mut report,
    );
    drop(forest);

    report.attempted = reqs.len() as u64;
    report.failed = out.rejected + out.closed + out.unanswered;
    let (p50, p99, all) = windowed(&out.lat, spec.rate);
    println!("  latency from due time: {}", all.describe(1000.0, "us"));
    println!(
        "  rejected {} closed {} unanswered {}; backlog at warm-up end {} and at last send {}",
        out.rejected, out.closed, out.unanswered, out.backlog.0, out.backlog.1
    );
    let goodput = out.answered as f64 / out.span.as_secs_f64();
    if !trace {
        report.set("ops_per_s", goodput)?;
        report.set("p50_us", p50)?;
        // Peak memory of a process that ran one server: the set-ups timed
        // below would otherwise leave freed-but-retained heap behind.
        report.set("peak_rss_mb", program::peak_rss_mb()?)?;
        let mut times = vec![first_setup_s];
        for _ in 1..setups.unwrap_or(SETUPS) {
            times.push(set_up(&prefill, threads)?.1);
        }
        println!("  setup_s samples: {times:?}");
        report.set("setup_s", median(&times))?;
        return Ok(report);
    }

    report.set("p99_us", p99)?;
    let late = Summary::of(&mut out.late).ok_or("no request was sent")?;
    println!("  generator lateness: {}", late.describe(1000.0, "us"));
    report.set("gen.late_p50_us", late.p50 as f64 / 1000.0)?;
    report.set("gen.late_max_us", late.max as f64 / 1000.0)?;
    let gap = Summary::of(&mut out.poll_gap);
    report.set(
        "gen.poll_gap_p99_us",
        gap.map_or(0.0, |s| s.p99 as f64 / 1000.0),
    )?;
    report.set(
        "serve.submit_ns.p50",
        Summary::of(&mut out.submit).map_or(0.0, |s| s.p50 as f64),
    )?;
    report.set("serve.reject_ratio", ratio(rejected, accepted + rejected))?;
    report.set("serve.batch_mean", ratio(executed, batches))?;
    let depth = Summary::of(&mut out.depth);
    report.set(
        "serve.hot_queue_depth.p50",
        depth.map_or(0.0, |s| s.p50 as f64),
    )?;
    report.set(
        "serve.hot_queue_depth.max",
        depth.map_or(0.0, |s| s.max as f64),
    )?;
    report.set("serve.hot_shard_share", hot_share)?;
    let measured_s = seconds * (1.0 - WARMUP_SHARE);
    report.set(
        "serve.backlog_growth_per_s",
        (out.backlog.1 as f64 - out.backlog.0 as f64) / measured_s,
    )?;
    let count = |kind| reqs.iter().filter(|op| op.kind == kind).count() as u64;
    let counts = OpCounts {
        ops: executed,
        inserts: count(OpKind::Insert),
        removes: count(OpKind::Remove),
        sync_probes: 0,
    };
    layers::record_counters(&before, &after, counts, &mut report)?;
    record_trace_overhead(&mut report, goodput, untraced_ops_per_s)?;

    // Replay the same request stream on a fresh forest, one thread, every
    // call timed: the forest's share of a request's latency.
    println!("  replaying {} requests on a forest:", reqs.len());
    let replay_forest = program::build_forest();
    program::prefill(&replay_forest, &prefill, threads)?;
    let mut samples = layers::traced_worker(
        &replay_forest,
        &reqs,
        SPAN,
        &AtomicBool::new(false),
        Some(reqs.len() as u64),
    );
    report.check("replay results", bad_results(samples.bad));
    let forest_p50_us = samples
        .forest_all(50.0)
        .map_or(0.0, |ns| ns as f64 / 1000.0);
    report.set("serve.self_us.p50", all.p50 as f64 / 1000.0 - forest_p50_us)?;
    samples.record(&mut report)?;
    Ok(report)
}
