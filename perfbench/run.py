#!/usr/bin/env python3
"""Benchmark of record for the Citrus workspace.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package in this directory twice -- plain for the
end-to-end run, with `--features stats` for the traced run -- under
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, checks the
metric names against `BENCHMARK.json`, and prints the JSON result line last.

`--trace 0` prints the end-to-end metrics. `--trace 1` first runs the plain
build for half the time to get the untraced throughput, then the stats
build with every call timed for the other half, and prints the per-layer
metrics including `trace.overhead_ratio` (traced over untraced
throughput).

Exit status: 0 for a correct run, 1 when a correctness check failed (the
result line still prints, with `"correct": false`), 2 when no result could
be made (bad arguments, a stray `CITRUS_*` variable, a failed build).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Limit on the runs of the benchmark binary, counted after the build (a run
# may take 180 s; the first, which builds, may take longer).
RUN_TIMEOUT_S = 170
VARIANTS = {"plain": [], "stats": ["--features", "stats"]}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return bench


def build():
    """Builds both variants; returns {variant: binary path}."""
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = os.path.join(ROOT, base)
    manifest = os.path.join(HERE, "Cargo.toml")
    binaries = {}
    for variant, features in VARIANTS.items():
        target = os.path.join(base, variant)
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, "--target-dir", target] + features
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=False)
        except OSError as e:
            fail(f"cannot run cargo: {e}")
        if proc.returncode != 0:
            fail(f"build of the {variant} variant failed ({proc.returncode})")
        binaries[variant] = os.path.join(target, "release", "citrus-perfbench")
    return binaries


def run_binary(binary, args, deadline):
    """Runs the benchmark binary; returns (progress lines, result dict, exit code)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the run started")
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S}s")
    except OSError as e:
        fail(f"cannot run {binary}: {e}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        for line in lines:
            print(line, file=sys.stderr)
        fail(f"benchmark exited with {proc.returncode} and no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a result: {lines[-1]!r}")
    return lines[:-1], result, proc.returncode


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..=60")

    stray = sorted(k for k in os.environ if k.startswith("CITRUS_"))
    if stray:
        fail(f"refusing to run with {', '.join(stray)} set: "
             "the benchmark measures one fixed configuration")
    bench = load_contract()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(workloads)})")
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    binaries = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        lines, result, code = run_binary(
            binaries["plain"],
            common + ["--seconds", str(args.seconds), "--trace", "0"], deadline)
    else:
        half = args.seconds / 2
        lines, untraced, code0 = run_binary(
            binaries["plain"],
            common + ["--seconds", str(half), "--trace", "0", "--setups", "1"], deadline)
        ops = untraced["metrics"]["ops_per_s"]["value"]
        more, result, code = run_binary(
            binaries["stats"],
            common + ["--seconds", str(half), "--trace", "1",
                      "--untraced-ops-per-s", repr(ops)], deadline)
        lines += more
        result["correct"] = result["correct"] and untraced["correct"]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        code = max(code, code0)

    got = list(result["metrics"])
    if sorted(got) != sorted(declared):
        missing = sorted(set(declared) - set(got))
        unknown = sorted(set(got) - set(declared))
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, unknown {unknown}")
    for line in lines:
        print(line)
    print(f"run took {time.monotonic() - started:.1f}s")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
