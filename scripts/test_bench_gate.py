"""Unit tests for bench_gate.compare().

Run from the repository root:
  PYTHONDONTWRITEBYTECODE=1 python3 -m unittest scripts/test_bench_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_gate import compare  # noqa: E402

BASELINE = {
    "bench": "packet_path",
    "unit": "seconds",
    "fig7_point_wall_seconds": 0.0737,
    "fig7_completed": 54336,
    "fig7_executed_events": 543822,
}


def run(current, baseline=None):
    return compare("packet_path",
                   BASELINE if baseline is None else baseline, current)


class CompareTest(unittest.TestCase):
    def test_identical_run_passes(self):
        rows, failures = run(dict(BASELINE))
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), 3)

    def test_exact_mismatch_fails(self):
        current = dict(BASELINE, fig7_completed=54335)
        _, failures = run(current)
        self.assertEqual(len(failures), 1)
        self.assertIn("fig7_completed", failures[0])

    def test_exact_key_missing_from_run_fails(self):
        current = dict(BASELINE)
        del current["fig7_completed"]
        _, failures = run(current)
        self.assertEqual(len(failures), 1)
        self.assertIn("fig7_completed", failures[0])

    def test_exact_key_missing_from_baseline_fails(self):
        baseline = dict(BASELINE)
        del baseline["fig7_executed_events"]
        _, failures = run(dict(BASELINE), baseline)
        self.assertEqual(len(failures), 1)
        self.assertIn("fig7_executed_events", failures[0])

    def test_info_row_drift_passes(self):
        current = dict(BASELINE,
                       fig7_point_wall_seconds=BASELINE[
                           "fig7_point_wall_seconds"] * 10)
        rows, failures = run(current)
        self.assertEqual(failures, [])
        info = [row for row in rows if row[1] == "fig7_point_wall_seconds"]
        self.assertEqual(len(info), 1)
        self.assertEqual(info[0][5], "info")


if __name__ == "__main__":
    unittest.main()
