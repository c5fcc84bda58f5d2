#!/usr/bin/env python3
"""Self-test of the benchmark's own logic.

  python3 benchmark/self_test.py

Checks, on fixed inputs, the median/quartile/bound arithmetic and the
sim_slo_krps rule; checks that the correctness gate trips (two seeds must
give different result digests, one seed the same digest twice); checks that
the interpolated percentiles stay inside the histogram's buckets; and checks
that run.py's metric tables match BENCHMARK.json. run.py --smoke runs it
first.
"""

import json
import sys
import unittest

sys.dont_write_bytecode = True

import run  # noqa: E402  (after the bytecode switch)

BINARY = None  # set by run_all()


class Arithmetic(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [4.0, 1.0, 3.0, 2.0, 10.0, 5.0, 6.0, 9.0, 8.0, 7.0]
        self.assertEqual(run.quartiles(values), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(run.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(run.spread([3.0]), 0.0)

    def test_bound(self):
        # Quartiles 1.9 / 2.0 / 2.1: a spread of exactly 10%.
        values = [1.8, 1.9, 2.0, 2.1, 2.2, 1.9, 2.1]
        self.assertAlmostEqual(run.spread(values), 0.10)
        self.assertTrue(run.over_bound(values, 0.09))
        self.assertFalse(run.over_bound(values, 0.11))
        self.assertFalse(run.over_bound([5.0] * 4, 0.0))


class SloRule(unittest.TestCase):
    # A hand-made sweep shaped like sweep_bimodal: p99 crosses 350 us
    # between 0.7 and 0.8 load, and goodput keeps rising past it.
    SWEEP = [
        {"load": 0.5, "goodput_krps": 883.4, "p99_us": 280.6},
        {"load": 0.6, "goodput_krps": 1065.6, "p99_us": 292.9},
        {"load": 0.7, "goodput_krps": 1240.2, "p99_us": 309.2},
        {"load": 0.8, "goodput_krps": 1417.5, "p99_us": 383.0},
        {"load": 0.9, "goodput_krps": 1587.0, "p99_us": 651.3},
    ]

    def test_crossing_is_interpolated_between_points(self):
        # 350 us lies 40.8/73.8 of the way from 0.7's p99 to 0.8's.
        expected = 1240.2 + (350.0 - 309.2) / (383.0 - 309.2) * (
            1417.5 - 1240.2)
        self.assertAlmostEqual(run.slo_krps(self.SWEEP), expected)

    def test_limit_is_inclusive(self):
        self.assertAlmostEqual(run.slo_krps(self.SWEEP, limit_us=383.0),
                               1417.5)

    def test_every_point_meeting_gives_the_last(self):
        self.assertEqual(run.slo_krps(self.SWEEP, limit_us=1000.0), 1587.0)
        self.assertEqual(run.slo_krps(self.SWEEP[:1]), 883.4)

    def test_a_late_dip_below_the_limit_still_counts(self):
        sweep = self.SWEEP + [{"load": 1.0, "goodput_krps": 1700.0,
                               "p99_us": 100.0}]
        self.assertEqual(run.slo_krps(sweep), 1700.0)

    def test_no_point_meets_the_limit(self):
        self.assertEqual(run.slo_krps(self.SWEEP, limit_us=100.0), 0.0)


class CorrectnessGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        def rep(seed):
            return run.run_rep(BINARY, "rack_exp25", seed, scale=0.01)
        cls.seed1, cls.seed1_again, cls.seed2 = rep(1), rep(1), rep(2)

    def test_same_seed_passes(self):
        self.assertEqual(run.failed_checks([self.seed1, self.seed1_again]),
                         [])

    def test_different_seeds_trip_the_digest_check(self):
        self.assertNotEqual(self.seed1["digest"], self.seed2["digest"])
        failures = run.failed_checks([self.seed1, self.seed2])
        self.assertEqual(len(failures), 1)
        self.assertIn("result digest", failures[0])

    def test_audit_violation_is_named(self):
        broken = dict(self.seed1, violations=["link occupancy broken"])
        failures = run.failed_checks([broken])
        self.assertEqual(len(failures), 1)
        self.assertIn("audit_invariants", failures[0])

    def test_incomplete_requests_fail(self):
        broken = dict(self.seed1, incomplete=3)
        self.assertIn("completion", run.failed_checks([broken])[0])

    def test_interpolated_quantiles_stay_in_their_bucket(self):
        # The point carries the histogram's own readings (the bucket
        # midpoint, or the maximum in the top bucket); the interpolated
        # ones must lie in the same 1/64-octave bucket.
        point = self.seed1["points"][0]
        for key in ("p50_us", "p99_us", "p999_us"):
            reading_ns = round(point[key] * 1e3)
            width_ns = 1 << (reading_ns.bit_length() - 7)
            self.assertLess(abs(self.seed1["sim"][key] * 1e3 - reading_ns),
                            width_ns, key)
        self.assertNotEqual(self.seed1["sim"]["p50_us"], point["p50_us"])


class MetricTables(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


def run_all(binary):
    """Runs every test against `binary`; returns True when all pass."""
    global BINARY  # pylint: disable=global-statement
    BINARY = binary
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    return unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()


if __name__ == "__main__":
    try:
        built, _ = run.build()
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(0 if run_all(built) else 1)
