"""Self-tests of the benchmark's arithmetic (stats.py).

    python3 perfbench/test_stats.py
"""

import json
import math
import unittest
from pathlib import Path

import stats

CLAIMS = json.loads(
    (Path(__file__).resolve().parent / "paper_reference.json").read_text()
)["claims"]


class TailTest(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        values = list(range(100, 0, -1))  # unsorted input
        value, percentile, n = stats.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(percentile, 90.0)

    def test_eleven_samples_is_the_minimum(self):
        value, percentile, n = stats.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(percentile, 100.0 / 11)
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))

    def test_percentile_rises_with_sample_count(self):
        _, small, _ = stats.tail([1.0] * 50)
        _, large, _ = stats.tail([1.0] * 500)
        self.assertAlmostEqual(small, 80.0)
        self.assertAlmostEqual(large, 98.0)


class PaperGapTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(stats.geomean([2.0, 8.0, 4.0]), 4.0)
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])

    def test_mean_reduction_is_per_benchmark(self):
        # Mean of per-benchmark ratios, not the ratio of sums.
        self.assertAlmostEqual(
            stats.mean_reduction([100.0, 10.0], [50.0, 10.0]), 0.25)
        with self.assertRaises(ValueError):
            stats.mean_reduction([1.0], [])

    def test_gaps(self):
        self.assertAlmostEqual(stats.relative_gap(1.48, 3.17),
                               1.69 / 3.17)
        self.assertAlmostEqual(stats.absolute_gap(0.3215, 0.32), 0.0015)
        self.assertAlmostEqual(stats.absolute_gap(0.19, 0.53), 0.34)

    def test_paper_comparison_of_rows(self):
        rows = [
            {"ipc": [1.0, 2.0], "offchip": [100.0, 60.0],
             "energy": [10.0, 8.0]},
            {"ipc": [2.0, 2.0], "offchip": [50.0, 40.0],
             "energy": [4.0, 3.0]},
        ]
        c = stats.paper_comparison(rows, CLAIMS)
        self.assertAlmostEqual(c["ipc_speedup"], math.sqrt(2.0))
        self.assertAlmostEqual(c["offchip_reduction"], 0.3)
        self.assertAlmostEqual(c["energy_reduction"], 0.225)
        self.assertAlmostEqual(c["gap_ipc_speedup"],
                               (3.17 - math.sqrt(2.0)) / 3.17)
        self.assertAlmostEqual(c["gap_offchip_reduction"], 0.02)
        self.assertAlmostEqual(c["gap_energy_reduction"], 0.305)

    def test_reference_values_are_the_abstracts(self):
        self.assertEqual(CLAIMS["ipc_speedup"]["value"], 3.17)
        self.assertEqual(CLAIMS["offchip_reduction"]["value"], 0.32)
        self.assertEqual(CLAIMS["energy_reduction"]["value"], 0.53)


def record(**overrides):
    raw = {"points": 42, "invalid_runs": 0, "serve_failures": 0,
           "serve_retries": 0, "checks": {"a": True, "b": True}}
    raw.update(overrides)
    return raw


class FailureAccountingTest(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(stats.failure_accounting(record()), (44, 0))

    def test_every_failure_kind_counts(self):
        raw = record(invalid_runs=2, serve_failures=1, serve_retries=3,
                     checks={"a": False, "b": True, "c": False})
        self.assertEqual(stats.failure_accounting(raw), (45, 8))

    def test_end_to_end_rates_are_cpu_time(self):
        raw = record(points=20, cpu_s=4.0, busy_s=2.0,
                     sim_instructions=9_000_000,
                     run_cpu_ms=[float(v) for v in range(1, 21)],
                     run_ms=[float(v) for v in range(2, 42, 2)],
                     campaign_cpu_ms=[100.0, 300.0, 200.0],
                     campaign_ms=[50.0, 70.0, 60.0], peak_rss_mb=12.5)
        gaps = {"gap_ipc_speedup": 0.5, "gap_energy_reduction": 0.3}
        metrics, details = stats.end_to_end(raw, [0.3, 0.1, 0.2], gaps)
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertEqual(metrics["points_per_cpu_s"], 5.0)
        self.assertEqual(metrics["sim_minstr_per_cpu_s"], 2.25)
        self.assertEqual(metrics["run_cpu_ms_p50"], 10.5)
        self.assertEqual(metrics["run_cpu_ms_tail"], 10.0)
        self.assertEqual(details["run_cpu_ms_tail"]["samples"], 20)
        self.assertEqual(metrics["campaign_cpu_ms_p50"], 200.0)
        # Wall-clock figures are kept beside them, not reported.
        self.assertEqual(details["wall"]["points_per_s"], 10.0)
        self.assertEqual(details["wall"]["run_ms_p50"], 21.0)
        self.assertEqual(details["wall"]["run_ms_tail"], 20.0)
        self.assertEqual(details["wall"]["campaign_ms_p50"], 60.0)

    def test_trace_overhead(self):
        untraced = {"points": 100, "cpu_s": 10.0}
        traced = {"points": 80, "cpu_s": 10.0}
        self.assertAlmostEqual(stats.trace_overhead_pct(untraced, traced),
                               25.0)


if __name__ == "__main__":
    unittest.main()
