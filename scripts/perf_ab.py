#!/usr/bin/env python3
"""Paired A/B run of the benchmark of record: the merge base against HEAD.

Usage (from anywhere in the repository):

    python3 scripts/perf_ab.py BASE_REF [WORKLOAD ...]

Checks out `git merge-base BASE_REF HEAD` and `HEAD` as detached worktrees
at `.perf_ab/base` and `.perf_ab/head` (paths of equal length: the checkout
path's length shifts code layout, which alone moves `point-update-20k` by a
few percent). Each worktree builds into its own `.bench_build`. For every
workload (default: all of them in `BENCHMARK.json`) it runs PAIRS pairs,
seeds 1..PAIRS, the same seed on both sides, alternating which side runs
first. Each run is

    python3 <worktree>/perfbench/run.py --workload W --seed S \
        --seconds <run_seconds> --trace 0

The metrics, their direction and their bounds are HEAD's `end_to_end` list.
The gate fails when a run exits non-zero or reports `"correct": false`,
when HEAD's failed/attempted share exceeds the base's, or when, for some
workload and metric, HEAD's median is worse than the base's by more than
the bound and HEAD is worse in at least LOSSES_TO_FAIL pairs.

Prints one row per workload and metric, then a JSON summary as the last
line. Exit status: 0 pass, 1 fail (a run that printed no result fails the
gate at once), 2 bad arguments. The worktrees are removed on exit.
"""

import json
import os
import statistics
import subprocess
import sys

# A single run on a shared host drifts by more than the bounds, so a median
# past its bound fails only when the direction also repeats: with no real
# change, a side loses 8 or more of 10 pairs by chance 5.5% of the time
# (binomial, p = 1/2), and then its median must also be past the bound.
PAIRS = 10
LOSSES_TO_FAIL = 8

SIDES = ("base", "head")


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def is_worse(base, head, better):
    return head < base if better == "higher" else head > base


def beyond_bound(base, head, better, bound):
    if better == "higher":
        return head < base * (1 - bound)
    return head > base * (1 + bound)


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def judge(workload, pairs, end_to_end):
    """Judges one workload's pairs.

    `pairs` is a list of `(base_result, head_result)` result dicts as
    perfbench prints them; `end_to_end` is `BENCHMARK.json`'s list. Returns
    `(rows, failures)`: one row per metric, and a reason for each failed
    check.
    """
    failures = []
    for seed, pair in enumerate(pairs, 1):
        for side, result in zip(SIDES, pair):
            if not result["correct"]:
                failures.append(f"{workload}: {side} run with seed {seed} was not correct")
    shares = {}
    for side, results in zip(SIDES, zip(*pairs)):
        attempted = sum(r["attempted"] for r in results)
        shares[side] = sum(r["failed"] for r in results) / attempted if attempted else 0.0
    if shares["head"] > shares["base"]:
        failures.append(f"{workload}: failed share rose from {shares['base']:.3g} "
                        f"to {shares['head']:.3g}")
    rows = []
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        losses = sum(is_worse(b, h, better) for b, h in zip(base, head))
        wins = sum(is_worse(h, b, better) for b, h in zip(base, head))
        base_med, head_med = statistics.median(base), statistics.median(head)
        fail = beyond_bound(base_med, head_med, better, bound) and losses >= LOSSES_TO_FAIL
        if fail:
            failures.append(f"{workload}: {name} median {base_med:.6g} -> {head_med:.6g} "
                            f"(bound {bound}), worse in {losses} of {len(pairs)} pairs")
        rows.append({
            "workload": workload, "metric": name, "better": better,
            "base_median": base_med, "head_median": head_med,
            "base_iqr": iqr(base), "ratio": head_med / base_med,
            "wins": wins, "losses": losses, "pass": not fail,
        })
    return rows, failures


class NoResult(Exception):
    pass


def run(tree, workload, seed, seconds):
    """Runs perfbench once in `tree`; returns its result dict."""
    # Each side must build into its own worktree's `.bench_build`.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=False)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise NoResult(f"{' '.join(cmd)} exited {proc.returncode} with no result") from None
    if proc.returncode != 0:
        result["correct"] = False
    return result


def main():
    args = sys.argv[1:]
    if not args or args[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    root = git("rev-parse", "--show-toplevel")
    bench = json.loads(git("show", "HEAD:BENCHMARK.json", cwd=root))
    known = [w["name"] for w in bench["workloads"]]
    workloads = args[1:] or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        print(f"perf_ab: unknown workload(s) {unknown} (known: {known})", file=sys.stderr)
        sys.exit(2)
    commits = {"base": git("merge-base", args[0], "HEAD", cwd=root),
               "head": git("rev-parse", "HEAD", cwd=root)}
    trees = {side: os.path.join(root, ".perf_ab", side) for side in SIDES}

    def remove_trees():
        for tree in trees.values():
            if os.path.exists(tree):
                git("worktree", "remove", "--force", tree, cwd=root)
        git("worktree", "prune", cwd=root)

    remove_trees()
    rows, failures = [], []
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", trees[side], commits[side], cwd=root)
        for workload in workloads:
            pairs = []
            for seed in range(1, PAIRS + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                got = {s: run(trees[s], workload, seed, bench["run_seconds"]) for s in order}
                pairs.append((got["base"], got["head"]))
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{s} ops_per_s {got[s]['metrics']['ops_per_s']['value']:.6g}"
                    for s in SIDES), file=sys.stderr, flush=True)
            more_rows, more_failures = judge(workload, pairs, bench["end_to_end"])
            rows += more_rows
            failures += more_failures
    except NoResult as e:
        failures.append(str(e))
    finally:
        remove_trees()

    print(f"{'workload':<26}{'metric':<13}{'base med':>11}{'head med':>11}"
          f"{'base IQR':>11}{'ratio':>8}{'win/loss':>10}  verdict")
    for r in rows:
        print(f"{r['workload']:<26}{r['metric']:<13}{r['base_median']:>11.4g}"
              f"{r['head_median']:>11.4g}{r['base_iqr']:>11.4g}{r['ratio']:>8.4g}"
              f"{r['wins']:>5}/{r['losses']:<4}  {'pass' if r['pass'] else 'FAIL'}")
    for reason in failures:
        print(f"perf_ab: {reason}", file=sys.stderr)
    print(json.dumps({"pass": not failures, "base": commits["base"], "head": commits["head"],
                      "pairs": PAIRS, "failures": failures, "rows": rows}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
