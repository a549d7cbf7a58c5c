//! The closed-loop forest workloads: load threads call a `CitrusForest`
//! directly, each issuing its next operation as soon as the previous one
//! returns.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::inputs::{self, value_of, Keys, Mix, Op, OpKind, Rng};
use crate::layers::{self, CallSamples, Counters};
use crate::program::{self, get_ok, scan_ok, Forest};
use crate::report::{Mode, Report};
use crate::stats::{median, LogHistogram};

/// One closed-loop forest workload.
#[derive(Debug, Clone, Copy)]
pub struct ForestSpec {
    /// Workload name.
    pub name: &'static str,
    /// Keys are uniform over `[0, key_range)`.
    pub key_range: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Scan width in keys.
    pub span: u64,
    /// Set-ups per end-to-end run; `setup_s` is their median.
    pub setups: usize,
    /// Operations generated per load thread; the stream is replayed
    /// cyclically for as long as the run lasts.
    pub stream_len: usize,
}

/// Fig. 8's update-heavy mix at a key range whose tree fits in L2.
pub const POINT_UPDATE: ForestSpec = ForestSpec {
    name: "point-update-20k",
    key_range: 20_000,
    mix: Mix {
        get: 50,
        insert: 25,
        remove: 25,
        scan: 0,
    },
    span: 0,
    setups: 7,
    // 256 KiB of operations per thread: with the 1.3 MB tree it stays in
    // L2, so the stream does not evict the nodes being updated.
    stream_len: 1 << 14,
};

/// Fig. 10's large range with scans: a read path that misses cache.
pub const READ_SCAN: ForestSpec = ForestSpec {
    name: "read-scan-2m",
    key_range: 2_000_000,
    mix: Mix {
        get: 90,
        insert: 1,
        remove: 1,
        scan: 8,
    },
    span: 64,
    setups: 3,
    // Long enough that replaying it does not warm the tree into L3.
    stream_len: 1 << 18,
};

/// The run is cut into windows of this many seconds; each metric is the
/// median of its per-window values.
const WINDOW_S: f64 = 0.5;
/// Leading windows, per ten, that warm caches and are not reported.
const WARMUP_PER_TEN: usize = 1;

/// Window count of a `seconds`-long run, and how many of them are warm-up.
fn window_count(seconds: f64) -> (usize, usize) {
    let n = ((seconds / WINDOW_S).round() as usize).max(4);
    (n, (n * WARMUP_PER_TEN / 10).max(1))
}
/// One operation in this many is timed in the end-to-end run.
const LATENCY_SAMPLE_EVERY: u64 = 8;

/// Seeded inputs of one run.
struct Inputs {
    prefill: Vec<u64>,
    streams: Vec<Vec<Op>>,
}

fn generate(spec: &ForestSpec, seed: u64, threads: usize) -> Inputs {
    let keys = Keys::Uniform {
        range: spec.key_range,
    };
    let prefill = inputs::prefill_keys(
        spec.key_range,
        (spec.key_range / 2) as usize,
        &mut Rng::new(seed, 1),
    );
    let streams = (0..threads)
        .map(|t| {
            inputs::ops(
                spec.stream_len,
                &spec.mix,
                &keys,
                &mut Rng::new(seed, 100 + t as u64),
            )
        })
        .collect();
    Inputs { prefill, streams }
}

/// Builds and prefills one forest; returns it with the seconds taken.
fn set_up(prefill: &[u64], threads: usize) -> Result<(Forest, f64), String> {
    let t = Instant::now();
    let forest = program::build_forest();
    program::prefill(&forest, prefill, threads)?;
    Ok((forest, t.elapsed().as_secs_f64()))
}

/// Results of one end-to-end load thread.
#[derive(Default)]
struct PlainOut {
    /// Sampled call times by window, ns.
    lat: Vec<LogHistogram>,
    ops: u64,
    inserted: u64,
    removed: u64,
    bad: u64,
}

/// What the timing thread shares with the end-to-end load threads.
struct Clock {
    /// Released once every load thread is ready.
    start: Barrier,
    /// Index of the current window.
    window: AtomicUsize,
    /// Number of windows in the run.
    windows: usize,
    /// Set when the run is over.
    stop: AtomicBool,
}

/// End-to-end load thread: runs `stream` cyclically, publishing its
/// operation count every 256 operations and timing every
/// [`LATENCY_SAMPLE_EVERY`]-th call into the current window.
fn plain_worker(
    forest: &Forest,
    stream: &[Op],
    span: u64,
    clock: &Clock,
    published: &AtomicU64,
) -> PlainOut {
    let mut s = forest.session();
    let mut out = PlainOut {
        lat: vec![LogHistogram::default(); clock.windows + 1],
        ..PlainOut::default()
    };
    let mut w = 0;
    clock.start.wait();
    let mut i: u64 = 0;
    loop {
        if i.is_multiple_of(256) {
            published.store(i, Ordering::Relaxed);
            if clock.stop.load(Ordering::Relaxed) {
                break;
            }
            w = clock.window.load(Ordering::Relaxed).min(clock.windows);
        }
        let op = stream[i as usize % stream.len()];
        let k = op.key;
        let timed = i.is_multiple_of(LATENCY_SAMPLE_EVERY);
        let t = timed.then(Instant::now);
        let ok = match op.kind {
            OpKind::Get => {
                let got = s.get(&k);
                record(&mut out.lat[w], t);
                get_ok(k, got)
            }
            OpKind::Insert => {
                let added = s.insert(k, value_of(k));
                record(&mut out.lat[w], t);
                out.inserted += u64::from(added);
                true
            }
            OpKind::Remove => {
                let gone = s.remove(&k);
                record(&mut out.lat[w], t);
                out.removed += u64::from(gone);
                true
            }
            OpKind::Scan => {
                let hi = k + span - 1;
                let v = s.range_scan(&k, &hi);
                record(&mut out.lat[w], t);
                scan_ok(k, hi, &v)
            }
        };
        out.bad += u64::from(!ok);
        i += 1;
    }
    out.ops = i;
    out
}

/// Records the time since `start`, if this call was timed.
fn record(hist: &mut LogHistogram, start: Option<Instant>) {
    if let Some(t) = start {
        hist.record(t.elapsed().as_nanos() as u64);
    }
}

/// The end-to-end run: one set-up, `seconds` of closed-loop load cut into
/// windows, the audit, and then `setups - 1` more timed set-ups;
/// `setup_s` is the median over all of them.
///
/// # Errors
///
/// Set-up or metric recording failed.
pub fn run_plain(
    spec: &ForestSpec,
    seed: u64,
    seconds: f64,
    threads: usize,
    setups: usize,
) -> Result<Report, String> {
    let mut report = Report::new(Mode::EndToEnd);
    let inputs = generate(spec, seed, threads);
    let (mut forest, first_setup_s) = set_up(&inputs.prefill, threads)?;
    let (windows, warmup) = window_count(seconds);
    let clock = Clock {
        start: Barrier::new(threads + 1),
        window: AtomicUsize::new(0),
        windows,
        stop: AtomicBool::new(false),
    };
    let published: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let win = Duration::from_secs_f64(seconds / windows as f64);
    let (outs, marks) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (f, st, c, p) = (&forest, &inputs.streams[t], &clock, &published[t]);
                s.spawn(move || plain_worker(f, st, spec.span, c, p))
            })
            .collect();
        clock.start.wait();
        let ticks = program::cpu_ticks();
        let t0 = Instant::now();
        let mut marks = vec![(0.0, 0u64)];
        for w in 1..=windows {
            let due = t0 + win * w as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let total: u64 = published.iter().map(|p| p.load(Ordering::Relaxed)).sum();
            marks.push((t0.elapsed().as_secs_f64(), total));
            clock.window.store(w, Ordering::Relaxed);
        }
        clock.stop.store(true, Ordering::Relaxed);
        println!("{}", program::describe_steal(ticks, program::cpu_ticks()));
        let outs: Vec<PlainOut> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (outs, marks)
    });

    let rates: Vec<f64> = marks
        .windows(2)
        .skip(warmup)
        .map(|m| (m[1].1 - m[0].1) as f64 / (m[1].0 - m[0].0))
        .collect();
    let mut p50s = Vec::new();
    let mut all = LogHistogram::default();
    for w in warmup..windows {
        let mut lat = LogHistogram::default();
        for o in &outs {
            lat.merge(&o.lat[w]);
        }
        all.merge(&lat);
        if let Some(s) = lat.summary() {
            p50s.push(s.p50 as f64 / 1000.0);
        }
    }
    if let Some(s) = all.summary() {
        println!(
            "  call latency (1 in {LATENCY_SAMPLE_EVERY} timed): {}",
            s.describe(1000.0, "us")
        );
    }
    println!(
        "  window ops/s: {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    if p50s.is_empty() {
        return Err("no latency samples in the measured windows".into());
    }
    report.set("ops_per_s", median(&rates))?;
    report.set("p50_us", median(&p50s))?;

    let (ops, inserted, removed, bad) = outs.iter().fold((0, 0, 0, 0), |a, o| {
        (a.0 + o.ops, a.1 + o.inserted, a.2 + o.removed, a.3 + o.bad)
    });
    report.attempted = ops;
    report.check("results", bad_results(bad));
    program::audit(
        &mut forest,
        inputs.prefill.len() as u64,
        inserted,
        removed,
        &mut report,
    );
    // Peak memory of a process that built one forest: the set-ups timed
    // below would otherwise leave freed-but-retained heap behind.
    report.set("peak_rss_mb", program::peak_rss_mb()?)?;
    drop(forest);
    let mut times = vec![first_setup_s];
    for _ in 1..setups {
        times.push(set_up(&inputs.prefill, threads)?.1);
    }
    println!("  setup_s samples: {times:?}");
    report.set("setup_s", median(&times))?;
    Ok(report)
}

/// The traced run: one set-up, then `seconds` of closed-loop load with
/// every call timed, routing and `synchronize` probed, and the layers'
/// counters read before and after.
///
/// # Errors
///
/// Set-up or metric recording failed.
pub fn run_traced(
    spec: &ForestSpec,
    seed: u64,
    seconds: f64,
    threads: usize,
    untraced_ops_per_s: f64,
) -> Result<Report, String> {
    let mut report = Report::new(Mode::Traced);
    let inputs = generate(spec, seed, threads);
    let (mut forest, _) = set_up(&inputs.prefill, threads)?;
    let stop = AtomicBool::new(false);
    let before = Counters::read(&forest);
    let t0 = Instant::now();
    let mut samples = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .map(|st| {
                let (f, stop) = (&forest, &stop);
                s.spawn(move || layers::traced_worker(f, st, spec.span, stop, None))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .fold(CallSamples::default(), |mut acc, o| {
                acc.merge(o);
                acc
            })
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let after = Counters::read(&forest);
    let traced_ops_per_s = samples.counts.ops as f64 / elapsed;
    report.attempted = samples.counts.ops;
    report.set(
        "p99_us",
        samples
            .forest_all(99.0)
            .map_or(0.0, |ns| ns as f64 / 1000.0),
    )?;
    samples.record(&mut report)?;
    layers::record_counters(&before, &after, samples.counts, &mut report)?;
    record_trace_overhead(&mut report, traced_ops_per_s, untraced_ops_per_s)?;
    zero_serve_metrics(&mut report)?;
    report.check("results", bad_results(samples.bad));
    program::audit(
        &mut forest,
        inputs.prefill.len() as u64,
        samples.inserted,
        samples.removed,
        &mut report,
    );
    Ok(report)
}

/// `trace.ops_per_s` and its ratio to the untraced run's throughput.
pub(crate) fn record_trace_overhead(
    report: &mut Report,
    traced: f64,
    untraced: f64,
) -> Result<(), String> {
    println!("  traced ops/s {traced:.0}, untraced ops/s {untraced:.0}");
    report.set("trace.ops_per_s", traced)?;
    report.set(
        "trace.overhead_ratio",
        if untraced > 0.0 {
            traced / untraced
        } else {
            0.0
        },
    )
}

/// The serve layer and its load generator are not part of a forest
/// workload: their metrics read 0.
fn zero_serve_metrics(report: &mut Report) -> Result<(), String> {
    for def in crate::report::PER_LAYER {
        if def.name.starts_with("serve.") || def.name.starts_with("gen.") {
            report.set(def.name, 0.0)?;
        }
    }
    Ok(())
}

/// Fails when any operation's result failed its check.
pub(crate) fn bad_results(bad: u64) -> Result<(), String> {
    if bad == 0 {
        Ok(())
    } else {
        Err(format!("{bad} results failed their check"))
    }
}
