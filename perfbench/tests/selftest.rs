//! Self-tests of the benchmark: its statistics, its correctness checks,
//! its refusal of unknown names, and its agreement with `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;

use citrus_perfbench::inputs::{self, Keys, Mix, Rng, Zipf};
use citrus_perfbench::report::{check_conservation, Mode, Report, END_TO_END, PER_LAYER};
use citrus_perfbench::stats::{nearest_rank, percentile, tail_percentile, LogHistogram, Summary};
use citrus_perfbench::{parse_args, program, Workload, WORKLOADS};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_string()).collect()
}

#[test]
fn percentiles_are_nearest_rank() {
    // 1..=100: the p-th percentile is exactly p.
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 50.0), 50);
    assert_eq!(percentile(&v, 99.0), 99);
    assert_eq!(percentile(&v, 100.0), 100);
    assert_eq!(percentile(&v, 0.0), 1);
    // Ranks round up: the median of 1..=5 is the 3rd value, of 1..=4 the
    // 2nd (no interpolation).
    assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), 30);
    assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
    // Exact integer ranks where binary floating point would round wrong.
    assert_eq!(nearest_rank(1000, 99.9), 999);
    assert_eq!(nearest_rank(10_000, 99.99), 9999);
    assert_eq!(nearest_rank(3, 99.0), 3);
}

#[test]
fn summary_reports_count_and_trustworthy_tail() {
    let mut v: Vec<u64> = (1..=1000).rev().collect();
    let s = Summary::of(&mut v).expect("non-empty");
    assert_eq!(s.n, 1000);
    assert_eq!((s.p50, s.p99, s.max), (500, 990, 1000));
    // p99.9 of 1000 leaves one sample beyond it; p99 leaves ten.
    assert_eq!(s.tail, Some((99.0, 990)));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert!(Summary::of(&mut []).is_none());
}

#[test]
fn log_histogram_stays_within_a_bucket_of_the_exact_rank() {
    let mut rng = Rng::new(7, 0);
    let mut exact: Vec<u64> = (0..50_000).map(|_| rng.below(5_000_000)).collect();
    let mut h = LogHistogram::default();
    for &v in &exact {
        h.record(v);
    }
    assert_eq!(h.len(), exact.len() as u64);
    exact.sort_unstable();
    for p in [1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
        let want = percentile(&exact, p);
        let got = h.percentile(p).expect("non-empty");
        assert!(
            got <= want && want - got <= want / 128,
            "p{p}: {got} vs {want}"
        );
    }
    // Values below 128 are exact.
    let mut small = LogHistogram::default();
    for v in 0..128 {
        small.record(v);
    }
    assert_eq!(small.percentile(50.0), Some(63));
    assert!(LogHistogram::default().percentile(50.0).is_none());
}

#[test]
fn conservation_rejects_a_planted_miscount() {
    assert!(check_conservation(10, 5, 3, 12).is_ok());
    assert!(check_conservation(10, 5, 3, 13).is_err());
    assert!(check_conservation(10, 6, 3, 12).is_err());
    assert!(
        check_conservation(1, 0, 2, 0).is_err(),
        "more removes than keys"
    );

    // The same check on a real forest: one insert left out of the tally.
    let mut forest = program::build_forest();
    let keys: Vec<u64> = (0..100).collect();
    program::prefill(&forest, &keys, 2).expect("distinct keys");
    {
        let mut s = forest.session();
        assert!(s.insert(1000, inputs::value_of(1000)));
        assert!(s.remove(&5));
    }
    let mut honest = Report::new(Mode::EndToEnd);
    program::audit(&mut forest, 100, 1, 1, &mut honest);
    assert!(honest.correct(), "{:?}", honest.problems());
    let mut planted = Report::new(Mode::EndToEnd);
    program::audit(&mut forest, 100, 0, 1, &mut planted);
    assert!(!planted.correct());
    assert!(planted.problems()[0].starts_with("conservation"));
}

#[test]
fn result_checks_reject_wrong_values() {
    let v = inputs::value_of;
    assert!(program::get_ok(3, None));
    assert!(program::get_ok(3, Some(v(3))));
    assert!(!program::get_ok(3, Some(v(4))));
    assert!(program::scan_ok(1, 5, &[(1, v(1)), (5, v(5))]));
    assert!(
        !program::scan_ok(1, 5, &[(5, v(5)), (1, v(1))]),
        "out of order"
    );
    assert!(!program::scan_ok(1, 5, &[(6, v(6))]), "out of range");
    assert!(!program::scan_ok(1, 5, &[(2, v(3))]), "wrong value");
}

#[test]
fn unknown_workloads_and_metrics_are_rejected() {
    assert!(Workload::by_name("point-update-20k").is_ok());
    assert!(Workload::by_name("point-update").is_err());
    let err = parse_args(&args(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]))
    .expect_err("unknown workload");
    assert!(err.contains("unknown workload"), "{err}");
    assert!(parse_args(&args(&[
        "--workload",
        "read-scan-2m",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "2"
    ]))
    .is_err());
    assert!(parse_args(&args(&[
        "--workload",
        "read-scan-2m",
        "--seed",
        "1",
        "--seconds",
        "1"
    ]))
    .is_err());
    assert!(parse_args(&args(&["--bogus", "1"])).is_err());
    let ok = parse_args(&args(&[
        "--workload",
        "read-scan-2m",
        "--seed",
        "9",
        "--seconds",
        "2",
        "--trace",
        "1",
    ]))
    .expect("valid");
    assert_eq!((ok.seed, ok.seconds, ok.mode), (9, 2.0, Mode::Traced));

    let mut r = Report::new(Mode::EndToEnd);
    assert!(r.set("ops_per_s", 1.0).is_ok());
    assert!(r.set("no_such_metric", 1.0).is_err());
    assert!(
        r.set("forest.route_ns", 1.0).is_err(),
        "per-layer name in an end-to-end run"
    );
    assert!(r.set("p50_us", f64::NAN).is_err());
    r.attempted = 1;
    assert!(
        r.to_json().is_err(),
        "missing metrics must not print a result"
    );
    for def in END_TO_END {
        r.set(def.name, 1.5).expect("declared");
    }
    let json = r.to_json().expect("complete");
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    assert!(json.contains("\"p50_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
}

#[test]
fn stray_library_environment_is_refused() {
    assert!(program::check_env(args(&["PATH", "HOME"])).is_ok());
    for var in program::LIBRARY_ENV {
        let err = program::check_env(args(&["PATH", var])).expect_err("must refuse");
        assert!(err.contains(var), "{err}");
    }
    assert!(program::check_env(args(&["CITRUS_SERVE_BATCH_MAX"])).is_err());
}

#[test]
fn inputs_depend_only_on_the_seed() {
    let mix = Mix {
        get: 60,
        insert: 18,
        remove: 17,
        scan: 5,
    };
    let zipf = |seed| Keys::Zipf(Zipf::new(1000, 0.99, &mut Rng::new(seed, 2)));
    let a = inputs::ops(5000, &mix, &zipf(1), &mut Rng::new(1, 3));
    let b = inputs::ops(5000, &mix, &zipf(1), &mut Rng::new(1, 3));
    let c = inputs::ops(5000, &mix, &zipf(2), &mut Rng::new(2, 3));
    assert_eq!(a, b);
    assert_ne!(a, c);
    let keys = inputs::prefill_keys(1000, 500, &mut Rng::new(1, 1));
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 500, "prefill keys are distinct");
    assert!(sorted.iter().all(|&k| k < 1000));
}

/// A minimal JSON reader: enough for `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

fn parse_json(text: &str) -> Json {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut m = BTreeMap::new();
                loop {
                    ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(m);
                    }
                    let Json::Str(k) = value(b, i) else {
                        panic!("key")
                    };
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    let v = value(b, i);
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut v = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Json::Arr(v);
                    }
                    v.push(value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                let start = *i + 1;
                let len = b[start..]
                    .iter()
                    .position(|&c| c == b'"')
                    .expect("closing quote");
                *i = start + len + 1;
                let s = std::str::from_utf8(&b[start..start + len]).expect("utf-8");
                assert!(!s.contains('\\'), "no escapes expected");
                Json::Str(s.to_string())
            }
            _ => {
                let start = *i;
                while *i < b.len() && (b[*i].is_ascii_digit() || b"+-.eE".contains(&b[*i])) {
                    *i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&b[start..*i])
                        .unwrap()
                        .parse()
                        .expect("number"),
                )
            }
        }
    }
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing data");
    v
}

fn field<'a>(j: &'a Json, k: &str) -> &'a Json {
    match j {
        Json::Obj(m) => m.get(k).unwrap_or_else(|| panic!("missing {k}")),
        _ => panic!("not an object"),
    }
}

fn text(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        _ => panic!("not a string"),
    }
}

fn list(j: &Json) -> &[Json] {
    match j {
        Json::Arr(v) => v,
        _ => panic!("not an array"),
    }
}

#[test]
fn benchmark_json_matches_the_declared_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let names: Vec<&str> = list(field(&bench, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let known: Vec<&str> = WORKLOADS.iter().map(Workload::name).collect();
    assert_eq!(names, known);
    for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = list(field(&bench, key));
        assert_eq!(listed.len(), declared.len(), "{key}");
        for (j, d) in listed.iter().zip(declared) {
            assert_eq!(text(field(j, "name")), d.name);
            assert_eq!(text(field(j, "unit")), d.unit, "{}", d.name);
            assert_eq!(text(field(j, "better")), d.better.as_str(), "{}", d.name);
        }
    }
    assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    let bounds: Vec<f64> = list(field(&bench, "end_to_end"))
        .iter()
        .map(|j| match field(j, "bound") {
            Json::Num(b) => *b,
            _ => panic!("bound"),
        })
        .collect();
    let setup = END_TO_END.iter().position(|d| d.name == "setup_s").unwrap();
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
    assert!(
        bounds.iter().all(|&b| b <= bounds[setup]),
        "setup_s has the largest bound"
    );
}

#[test]
fn a_short_run_is_correct_and_complete() {
    let a = parse_args(&args(&[
        "--workload",
        "point-update-20k",
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--setups",
        "1",
    ]))
    .expect("valid");
    let report = citrus_perfbench::run(&a).expect("run");
    assert!(report.correct(), "{:?}", report.problems());
    assert!(report.attempted > 0);
    assert!(report.get("ops_per_s").expect("measured") > 0.0);
    report.to_json().expect("every end-to-end metric measured");
}
