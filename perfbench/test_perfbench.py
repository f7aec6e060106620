"""Tests of the benchmark's own helpers and of BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TailPercentileTest(unittest.TestCase):
    def test_p95_of_200_leaves_ten_beyond(self):
        values = list(range(1, 201))
        q, value = stats.tail_percentile(values, 0.95)
        self.assertEqual(q, 0.95)
        self.assertEqual(value, 190)
        self.assertEqual(stats.samples_beyond(values, value), 10)

    def test_too_few_samples_lower_the_percentile(self):
        values = list(range(1, 101))
        q, value = stats.tail_percentile(values, 0.95)
        self.assertAlmostEqual(q, 0.90)
        self.assertEqual(stats.samples_beyond(values, value), 10)

    def test_under_twenty_samples_fall_back_to_the_median(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0, 6.0]
        self.assertEqual(stats.tail_percentile(values, 0.95), (0.5, 3.5))

    def test_ten_beyond_holds_for_every_size(self):
        rng = random.Random(7)
        for n in range(20, 600, 7):
            values = [rng.random() for _ in range(n)]
            q, value = stats.tail_percentile(values, 0.95)
            self.assertLessEqual(q, 0.95)
            self.assertGreaterEqual(stats.samples_beyond(values, value),
                                    stats.MIN_BEYOND, msg=f"n={n}")

    def test_ties_never_count_as_beyond(self):
        values = [1.0] * 150 + [2.0] * 50
        _, value = stats.tail_percentile(values, 0.95)
        self.assertEqual(value, 2.0)
        self.assertEqual(stats.samples_beyond(values, value), 0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile([], 0.95)


class QuietSamplesTest(unittest.TestCase):
    def test_noisy_samples_are_dropped(self):
        self.assertEqual(
            stats.quiet_samples([1, 2, 9, 3], [2.0, 6.0, 12.5, 0.0], 6.0, 3),
            [1, 2, 3])

    def test_too_few_quiet_samples_keep_all(self):
        self.assertEqual(
            stats.quiet_samples([1, 9, 8], [2.0, 12.0, 15.0], 6.0, 2),
            [1, 9, 8])

    def test_steal_must_align(self):
        with self.assertRaises(ValueError):
            stats.quiet_samples([1, 2], [0.0], 6.0, 1)


class FailRatioTest(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.fail_ratio(0, 203), 0.0)
        self.assertEqual(stats.fail_ratio(2, 8), 0.25)
        self.assertEqual(stats.fail_ratio(8, 8), 1.0)

    def test_rejects_impossible_counts(self):
        for failed, attempted in ((0, 0), (3, 2), (-1, 4)):
            with self.assertRaises(ValueError):
                stats.fail_ratio(failed, attempted)

    def test_failed_requests_make_the_run_incorrect(self):
        raw = synthetic_raw(failed=1)
        self.assertEqual(run.run_problems(raw), [
            "1 of 12 requests failed (illegal, unplaced cells or clamped "
            "components)"])


class MetricNameTest(unittest.TestCase):
    def test_allowed_characters(self):
        for name in ("setup_s", "request_p95_ms", "eco.dirty_ratio",
                     "mmsim.ns-per-iteration", "9lives", "a" * 64):
            self.assertTrue(stats.valid_metric_name(name), name)
        for name in ("", "_x", ".x", "-x", "a b", "a/b", "a%", "ü",
                     "a" * 65, None):
            self.assertFalse(stats.valid_metric_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "sites"):
            self.assertTrue(stats.valid_unit(unit), unit)
        for unit in ("", "m s", "a" * 17):
            self.assertFalse(stats.valid_unit(unit), unit)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            {"tid": 1, "start_ns": 0, "dur_ns": 100},   # root
            {"tid": 1, "start_ns": 10, "dur_ns": 30},   # child
            {"tid": 1, "start_ns": 15, "dur_ns": 10},   # grandchild
            {"tid": 1, "start_ns": 50, "dur_ns": 20},   # child
            {"tid": 2, "start_ns": 20, "dur_ns": 50},   # other thread
        ]
        self.assertEqual(stats.self_times(spans), [50, 20, 10, 20, 50])

    def test_overhanging_span_is_clipped(self):
        spans = [{"tid": 1, "start_ns": 0, "dur_ns": 10},
                 {"tid": 1, "start_ns": 5, "dur_ns": 10}]
        self.assertEqual(stats.self_times(spans), [5, 10])


def synthetic_raw(failed=0):
    return {
        "provenance": {},
        "params": {"quiet_steal_pct": 6.0, "min_quiet_samples": 3},
        "setup_s": [2.0],
        "latency_ms": [10.0 + i for i in range(10)] + [500.0],
        "steal_pct": [1.0] * 10 + [30.0],
        "attempted": 12,
        "failed": failed, "displacement_sites": 30.0,
        "displacement_cells": 20.0, "hpwl": 102.0, "gp_hpwl": 100.0,
        "scored_designs": 2, "peak_rss_mb": 64.0,
        "layers": {"eco.solve_ms": [1.0, 2.0, 9.0]},
        "layer_values": {},
        "traced_ms": [11.0], "untraced_ms": [10.0],
        "spans": [
            {"name": "bench.request", "tid": 1, "start_ns": 0,
             "dur_ns": 100, "request": 0},
            {"name": "bench.solve", "tid": 1, "start_ns": 10,
             "dur_ns": 80, "request": 0},
        ],
        "bench_spans_opened": 2, "spans_dropped": 0, "checks": [],
    }


class MetricDerivationTest(unittest.TestCase):
    def test_end_to_end(self):
        metrics = run.end_to_end_metrics(synthetic_raw())
        self.assertEqual(set(metrics), set(run.END_TO_END))
        # The 500 ms sample ran under 30% steal and is dropped.
        self.assertEqual(metrics["request_p50_ms"][0], 14.5)
        self.assertEqual(metrics["request_p95_ms"][0], 14.5)
        self.assertAlmostEqual(metrics["requests_per_s"][0], 10 / 0.145)
        self.assertEqual(metrics["displacement_mean_sites"][0], 1.5)
        self.assertAlmostEqual(metrics["hpwl_delta_pct"][0], 2.0)

    def test_per_layer_marks_unexercised_and_flags_missing(self):
        layer_map = run.load_layer_map()
        metrics, problems = run.per_layer_metrics(synthetic_raw(), layer_map,
                                                  "eco_stream")
        self.assertEqual(set(metrics) | {p.split()[2] for p in problems},
                         set(layer_map))
        self.assertEqual(metrics["eco.solve_ms"][0], 2.0)
        self.assertAlmostEqual(metrics["solve.s"][0], 80e-9)
        self.assertAlmostEqual(metrics["trace.overhead_pct"][0], 10.0)
        self.assertIn("per-layer metric model.s was not measured", problems)
        full, _ = run.per_layer_metrics(synthetic_raw(), layer_map,
                                        "full_50k")
        self.assertEqual(full["eco.scratch_displacement_ratio"][1], 0)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()
        self.layer_map = run.load_layer_map()

    def test_keys_and_command(self):
        self.assertEqual(set(self.bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertEqual(self.bench["command"][1], "perfbench/run.py")
        self.assertEqual(self.bench["paths"], ["perfbench"])
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_workloads_match_the_runner(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(tuple(names), run.WORKLOADS)
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_end_to_end_match_the_runner(self):
        table = {m["name"]: (m["unit"], m["better"])
                 for m in self.bench["end_to_end"]}
        self.assertEqual(table, run.END_TO_END)
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_per_layer_match_the_layer_map(self):
        table = {m["name"]: (m["unit"], m["better"])
                 for m in self.bench["per_layer"]}
        self.assertEqual(table, {n: (s["unit"], s["better"])
                                 for n, s in self.layer_map.items()})

    def test_layer_map_targets_exist(self):
        workloads = {w["name"] for w in self.bench["workloads"]}
        end_to_end = {m["name"] for m in self.bench["end_to_end"]}
        for name, spec in self.layer_map.items():
            targets = spec["moves"] + spec["holds"]
            self.assertTrue(targets, name)
            for target in targets:
                self.assertIn(target["metric"], end_to_end, name)
                self.assertIn(target["workload"], workloads, name)
            self.assertTrue(set(spec["measured_on"]) <= workloads, name)
            self.assertTrue(spec["measured_on"], name)

    def test_names_and_units_are_valid_and_unique(self):
        entries = (self.bench["workloads"] + self.bench["end_to_end"] +
                   self.bench["per_layer"])
        names = [e["name"] for e in entries]
        self.assertEqual(len(names), len(set(names)))
        for entry in entries:
            self.assertTrue(stats.valid_metric_name(entry["name"]), entry)
            if "unit" in entry:
                self.assertTrue(stats.valid_unit(entry["unit"]), entry)
                self.assertIn(entry["better"], ("lower", "higher"), entry)


if __name__ == "__main__":
    unittest.main()
