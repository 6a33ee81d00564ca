"""Tests of the benchmark's analysis code (perfbench/run.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_ranks(self):
        values = list(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 0.90), 90)
        self.assertEqual(run.nearest_rank(values, 0.50), 50)
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2)  # nearest rank, no interpolation
        self.assertEqual(run.median([7.5]), 7.5)

    def test_omitted_without_ten_samples_beyond(self):
        self.assertIsNone(run.nearest_rank(list(range(99)), 0.90))  # rank 90, 9 beyond
        self.assertEqual(run.nearest_rank(list(range(100)), 0.90), 89)  # 10 beyond
        self.assertIsNone(run.nearest_rank(list(range(999)), 0.99))  # rank 990, 9 beyond
        self.assertEqual(run.nearest_rank(list(range(1000)), 0.99), 989)
        self.assertIsNone(run.nearest_rank([], 0.5, min_beyond=0))

    def test_order_does_not_matter(self):
        self.assertEqual(run.nearest_rank([5, 3, 9, 1] * 30, 0.9), 9)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # completion order: children before their parents
        spans = [
            ["grandchild", 15, 25, 1],
            ["a", 10, 40, 1],
            ["b", 50, 90, 1],
            ["cycle", 0, 100, 1],
        ]
        rows = run.self_times(spans)
        got = {r[0]: round(r[2] * 1e9) for r in rows}
        self.assertEqual(got, {"grandchild": 10, "a": 20, "b": 40, "cycle": 30})
        parents = {r[0]: (spans[r[3]][0] if r[3] is not None else None) for r in rows}
        self.assertEqual(parents, {"grandchild": "a", "a": "cycle", "b": "cycle", "cycle": None})

    def test_same_interval_nests_under_later_span(self):
        # the benchmark's own span and a stage span can share their stamps
        rows = run.self_times([["inner", 0, 50, 1], ["outer", 0, 50, 1]])
        self.assertEqual([(r[0], r[2], r[3]) for r in rows], [("inner", 5e-8, 1), ("outer", 0.0, None)])

    def test_siblings_and_separate_roots(self):
        spans = [["x", 0, 10, 1], ["y", 10, 20, 1], ["cycle", 0, 30, 1], ["gen.churn", 40, 45, 2]]
        rows = run.self_times(spans)
        self.assertEqual([round(r[2] * 1e9) for r in rows], [10, 10, 10, 5])
        self.assertIsNone(rows[3][3])

    def test_layer_table_shares_and_remainder(self):
        raw = {
            "cycles": [{"i": 1, "traced": True}, {"i": 2, "traced": False}],
            "spans": [
                ["controller.allocate", 10, 70, 1],
                ["controller.cycle", 5, 80, 1],
                ["cycle", 0, 100, 1],
                ["cycle", 200, 300, 2],  # untraced cycles are left out
            ],
        }
        table, unattributed, traced = run.layer_table(raw)
        self.assertEqual(traced, [1])
        self.assertAlmostEqual(table["controller.allocate"]["share"], 0.60)
        self.assertAlmostEqual(table["controller.cycle"]["share"], 0.15)
        self.assertAlmostEqual(unattributed, 0.25)
        self.assertEqual(table["engine.step"]["self_sum_s"], 0.0)


class Classification(unittest.TestCase):
    def test_interface_event_cycles(self):
        cycles = [{"i": i, "iface_events": e} for i, e in enumerate([0, 1, 1, 0, 0, 2, 0])]
        events, quiet = run.classify_cycles(cycles)
        self.assertEqual([c["i"] for c in events], [1, 2, 5])
        self.assertEqual([c["i"] for c in quiet], [0, 3, 4, 6])

    def test_no_events(self):
        events, quiet = run.classify_cycles([{"i": 0, "iface_events": 0}])
        self.assertEqual((events, len(quiet)), ([], 1))

    def test_iface_median_only_with_events(self):
        raw = {
            "setup_s": [1.0],
            "setup_wall_s": [1.5],
            "heap_peak_mb": 10.0,
            "heap_live_mb": 5.0,
            "cycles": [{"cpu_s": d, "dur_s": 2 * d, "iface_events": e}
                       for d, e in [(1, 0), (5, 1), (7, 1), (2, 0)]],
        }
        self.assertEqual(run.end_to_end(raw)["iface_cycle_p50_s"], 5)
        for c in raw["cycles"]:
            c["iface_events"] = 0
        self.assertNotIn("iface_cycle_p50_s", run.end_to_end(raw))


class Schema(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads(run.BENCHMARK.read_text())

    def result(self, trace):
        group = "per_layer" if trace else "end_to_end"
        return {
            "correct": True,
            "attempted": 120,
            "failed": 0,
            "metrics": {m["name"]: {"value": 0.5, "unit": m["unit"]} for m in self.bench[group]},
        }

    def test_benchmark_json_is_well_formed(self):
        self.assertEqual(run.validate_benchmark(self.bench), [])

    def test_benchmark_names_every_layer_metric_run_py_reports(self):
        names = {m["name"] for m in self.bench["per_layer"]}
        for layer in run.LAYERS:
            self.assertIn(layer + ".self_p50_s", names)
            self.assertIn(layer + ".share", names)

    def test_good_results(self):
        for trace in (0, 1):
            self.assertEqual(run.validate_result(self.result(trace), self.bench, trace), [])

    def test_bad_results(self):
        r = self.result(0)
        r["extra"] = 1
        self.assertTrue(run.validate_result(r, self.bench, 0))
        r = self.result(0)
        r["attempted"] = 0
        self.assertTrue(run.validate_result(r, self.bench, 0))
        r = self.result(0)
        r["failed"] = 1.5
        self.assertTrue(run.validate_result(r, self.bench, 0))
        r = self.result(0)
        del r["metrics"]["setup_s"]
        self.assertTrue(run.validate_result(r, self.bench, 0))
        r = self.result(0)
        r["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.validate_result(r, self.bench, 0))
        r = self.result(0)
        r["metrics"]["setup_s"]["value"] = float("nan")
        self.assertTrue(run.validate_result(r, self.bench, 0))
        # the per-layer metrics do not satisfy an untraced run
        self.assertTrue(run.validate_result(self.result(1), self.bench, 0))

    def test_bad_benchmark(self):
        b = json.loads(json.dumps(self.bench))
        b["end_to_end"][0]["bound"] = 0.3
        self.assertTrue(run.validate_benchmark(b))
        b = json.loads(json.dumps(self.bench))
        b["end_to_end"] = [m for m in b["end_to_end"] if m["name"] != "setup_s"]
        self.assertTrue(run.validate_benchmark(b))
        b = json.loads(json.dumps(self.bench))
        b["workloads"][0]["why"] = "x" * 201
        self.assertTrue(run.validate_benchmark(b))
        b = json.loads(json.dumps(self.bench))
        b["per_layer"].append(dict(b["per_layer"][0]))
        self.assertTrue(run.validate_benchmark(b))


if __name__ == "__main__":
    unittest.main()
