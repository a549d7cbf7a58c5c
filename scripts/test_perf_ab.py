"""Tests of the A/B gate's decision rule on synthetic pairs.

Run from the repository root: `python3 -m unittest scripts/test_perf_ab.py`.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"),
          encoding="utf-8") as f:
    END_TO_END = json.load(f)["end_to_end"]

BASE = {"ops_per_s": 1000.0, "p50_us": 10.0, "setup_s": 0.05, "peak_rss_mb": 50.0}


def result(correct=True, attempted=1000, failed=0, **metrics):
    values = {**BASE, **metrics}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v} for k, v in values.items()}}


def judge(pairs):
    rows, failures = perf_ab.judge("w", pairs, END_TO_END)
    return {r["metric"]: r for r in rows}, failures


class DecisionRule(unittest.TestCase):
    def test_consistent_loss_past_the_bound_fails(self):
        rows, failures = judge([(result(), result(ops_per_s=700.0))] * 10)
        self.assertFalse(rows["ops_per_s"]["pass"])
        self.assertEqual(rows["ops_per_s"]["losses"], 10)
        self.assertEqual(len(failures), 1)
        self.assertIn("ops_per_s", failures[0])

    def test_median_past_the_bound_with_five_losses_passes(self):
        base = [100.0] * 5 + [50.0] * 5
        head = [50.0] * 5 + [55.0] * 5
        rows, failures = judge([(result(ops_per_s=b), result(ops_per_s=h))
                                for b, h in zip(base, head)])
        row = rows["ops_per_s"]
        self.assertAlmostEqual(row["ratio"], 0.7)
        self.assertEqual((row["wins"], row["losses"]), (5, 5))
        self.assertTrue(row["pass"])
        self.assertEqual(failures, [])

    def test_consistent_loss_inside_the_bound_passes(self):
        rows, failures = judge([(result(), result(ops_per_s=950.0))] * 10)
        self.assertEqual(rows["ops_per_s"]["losses"], 10)
        self.assertTrue(rows["ops_per_s"]["pass"])
        self.assertEqual(failures, [])

    def test_memory_has_its_own_tighter_bound(self):
        rows, failures = judge([(result(), result(peak_rss_mb=56.0))] * 10)
        self.assertFalse(rows["peak_rss_mb"]["pass"])
        self.assertTrue(rows["ops_per_s"]["pass"])
        self.assertEqual(len(failures), 1)

    def test_each_metric_is_judged_in_its_own_direction(self):
        rows, failures = judge([(result(), result(ops_per_s=1300.0, p50_us=13.0))] * 10)
        self.assertEqual(rows["ops_per_s"]["wins"], 10)
        self.assertTrue(rows["ops_per_s"]["pass"])
        self.assertEqual(rows["p50_us"]["losses"], 10)
        self.assertFalse(rows["p50_us"]["pass"])
        self.assertEqual(len(failures), 1)
        self.assertIn("p50_us", failures[0])

    def test_an_incorrect_run_fails(self):
        pairs = [(result(), result())] * 10
        pairs[3] = (result(), result(correct=False))
        _, failures = judge(pairs)
        self.assertEqual(len(failures), 1)
        self.assertIn("seed 4", failures[0])

    def test_a_higher_failed_share_fails(self):
        pairs = [(result(failed=1), result(failed=1))] * 9 + [(result(), result(failed=2))]
        _, failures = judge(pairs)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])

    def test_all_ties_pass(self):
        rows, failures = judge([(result(ops_per_s=25000.0), result(ops_per_s=25000.0))] * 10)
        self.assertEqual((rows["ops_per_s"]["wins"], rows["ops_per_s"]["losses"]), (0, 0))
        self.assertEqual(rows["ops_per_s"]["ratio"], 1.0)
        self.assertEqual(failures, [])


if __name__ == "__main__":
    unittest.main()
