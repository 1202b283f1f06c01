"""Self-tests for the arithmetic of perfbench/run.py.

Run with `python3 perfbench/run.py --selftest`; run.py also runs them before
every measurement and refuses to measure if one fails.
"""

import io
import math
import sys
import unittest

import run


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.50), 50)
        self.assertEqual(run.percentile(values, 0.99), 99)
        self.assertEqual(run.percentile(values, 1.0), 100)
        self.assertEqual(run.percentile([7], 0.5), 7)
        self.assertEqual(run.percentile([7], 0.99), 7)
        self.assertEqual(run.percentile([1, 2, 3], 0.5), 2)
        self.assertEqual(run.percentile([1, 2, 3, 4], 0.5), 2)

    def test_empty_sample_fails(self):
        with self.assertRaises(run.CheckFailed):
            run.percentile([], 0.5)

    def test_samples_beyond(self):
        self.assertEqual(run.samples_beyond(1000, 0.99), 10)
        self.assertEqual(run.samples_beyond(999, 0.99), 9)
        self.assertEqual(run.samples_beyond(100, 0.50), 50)
        self.assertEqual(run.samples_beyond(1, 0.99), 0)

    def test_latency_summary_reports_count_and_tail(self):
        ns = [i * 1_000_000 for i in range(1000, 0, -1)]  # 1..1000 ms, unsorted.
        s = run.latency_summary(ns)
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["beyond_p99"], 10)
        self.assertAlmostEqual(s["p50_s"], 0.500)
        self.assertAlmostEqual(s["p99_s"], 0.990)

    def test_latency_summary_refuses_thin_tail(self):
        with self.assertRaises(run.CheckFailed):
            run.latency_summary(list(range(999)))


class FailedShareTest(unittest.TestCase):
    def test_shares_sum_to_one(self):
        share, failed = run.goodput(90, 100)
        self.assertAlmostEqual(share, 0.9)
        self.assertAlmostEqual(failed, 0.1)
        self.assertEqual(run.goodput(5, 5), (1.0, 0.0))

    def test_bad_accounting_fails(self):
        for good, offered in ((1, 0), (0, 0), (11, 10), (-1, 10)):
            with self.assertRaises(run.CheckFailed):
                run.goodput(good, offered)

    def test_simulated_counts_failures_against_offered(self):
        ep = {"sim": {"good": 750, "offered": 1000, "latencies_ns": list(range(1, 1001)),
                      "ledger_offered": 1040, "ledger_answered": 780,
                      "ledger_harvest_sum": 741.0}}
        sim = run.simulated(ep)
        self.assertAlmostEqual(sim["sim_goodput"], 0.75)
        self.assertAlmostEqual(sim["_failed_share"], 0.25)
        self.assertAlmostEqual(sim["sim_yield"], 0.75)
        self.assertAlmostEqual(sim["sim_harvest"], 0.95)


class SpeedFactorTest(unittest.TestCase):
    def test_scales_to_reference(self):
        ref = run.CAL_REFERENCE_S
        self.assertAlmostEqual(run.speed_factor([ref, 2 * ref, 2 * ref]), 0.5)
        self.assertAlmostEqual(run.speed_factor([ref / 2]), 2.0)

    def test_end_to_end_normalizes_host_times(self):
        ref = run.CAL_REFERENCE_S
        ep = {"sim": {"good": 1000, "offered": 1000, "latencies_ns": list(range(1, 1001)),
                      "ledger_offered": 1000, "ledger_answered": 1000,
                      "ledger_harvest_sum": 1000.0},
              "host": {"setup_s": 0.2, "window_s": 1.0, "total_s": 3.0,
                       "peak_rss_kb": 2048, "calibration_s": [2 * ref] * 3}}
        m = run.end_to_end([ep, ep])
        self.assertAlmostEqual(m["setup_s"], 0.1)
        self.assertAlmostEqual(m["total_s"], 1.5)
        self.assertAlmostEqual(m["req_per_host_s"], 2000.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)

    def test_no_samples_fails(self):
        with self.assertRaises(run.CheckFailed):
            run.speed_factor([])


class NameGrammarTest(unittest.TestCase):
    def test_valid(self):
        for name in ("setup_s", "sim.host_ns_per_event", "cp.worker_queue_wait_p99_s",
                     "9lives", "a-b.c_d", "x" * 64):
            self.assertTrue(run.valid_name(name), name)

    def test_invalid(self):
        for name in ("", ".hidden", "_x", "-x", "a b", "a/b", "ms%", "x" * 65, "é"):
            self.assertFalse(run.valid_name(name), name)

    def test_declared_metrics_follow_grammar(self):
        e2e, layers = run.load_spec()
        for name in list(e2e) + list(layers):
            self.assertTrue(run.valid_name(name), name)
        self.assertEqual(len(set(e2e) | set(layers)), len(e2e) + len(layers))

    def test_select_rejects_non_finite(self):
        declared = {"a": {"unit": "s", "better": "lower"}}
        self.assertEqual(run.select({"a": 1.5}, declared), {"a": {"value": 1.5, "unit": "s"}})
        for bad in (math.nan, math.inf, -math.inf):
            with self.assertRaises(run.CheckFailed):
                run.select({"a": bad}, declared)
        with self.assertRaises(run.CheckFailed):
            run.select({}, declared)


class CoverageSumTest(unittest.TestCase):
    def test_nested_zones_partition_the_window(self):
        # Window 100 ns: root zone A (60 ns) contains B (25 ns) which contains
        # C (5 ns); root zone D takes 30 ns; 10 ns fall outside every zone.
        zones = [
            {"name": "A", "root_ns": 60, "self_ns": 35},
            {"name": "B", "root_ns": 0, "self_ns": 20},
            {"name": "C", "root_ns": 0, "self_ns": 5},
            {"name": "D", "root_ns": 30, "self_ns": 30},
        ]
        share, rest = run.coverage(zones, 100)
        self.assertAlmostEqual(share, 0.9)
        self.assertEqual(rest, 10)
        self.assertAlmostEqual(share + rest / 100, 1.0)

    def test_empty_window_fails(self):
        with self.assertRaises(run.CheckFailed):
            run.coverage([], 0)


def run_tests(verbose=False):
    """Runs every test; reports to stderr (always when one fails). Returns
    True when all passed."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    stream = sys.stderr if verbose else io.StringIO()
    result = unittest.TextTestRunner(stream=stream, verbosity=2 if verbose else 1).run(suite)
    if not result.wasSuccessful() and not verbose:
        sys.stderr.write(stream.getvalue())
    return result.wasSuccessful()
