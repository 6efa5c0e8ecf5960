"""Tests of the benchmark's own logic: metric extraction from canned probe
records, and rejection of corrupted ones.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import copy
import json
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
CANNED = json.loads((HERE / "testdata" / "canned_records.json").read_text())


class MetricExtraction(unittest.TestCase):
    def test_end_to_end_metrics_from_canned_records(self):
        records = CANNED["untraced"]
        metrics = run.end_to_end_metrics(records)
        self.assertEqual([n for n, _ in run.END_TO_END], list(metrics))
        a, b = records
        setup = sorted(r["load_s"] + r["expand_s"] + r["timing"]["setup_s"] for r in records)
        self.assertAlmostEqual(metrics["setup_s"], (setup[0] + setup[1]) / 2, places=12)
        self.assertAlmostEqual(metrics["wall_s"], (a["wall_s"] + b["wall_s"]) / 2, places=12)
        rate = [r["users"] * r["horizon"] / (r["run_s"] - r["timing"]["setup_s"]) for r in records]
        self.assertAlmostEqual(metrics["user_slots_per_s"], sum(rate) / 2, places=6)
        self.assertEqual(metrics["sim_updates"], a["result"]["total_updates"])
        self.assertGreater(metrics["peak_rss_mib"], 0)

    def test_per_layer_metrics_from_canned_traced_record(self):
        traced, untraced = CANNED["traced"], CANNED["untraced"][0]
        metrics = run.per_layer_metrics(traced, untraced)
        self.assertEqual(sorted(n for n, _ in run.PER_LAYER), sorted(metrics))
        r = traced["result"]
        consults = r["decisions_scheduled"] + r["decisions_idle"]
        self.assertEqual(metrics["driver.decide_consults"], consults)
        self.assertAlmostEqual(metrics["online.decide_useful_ratio"],
                               r["decisions_scheduled"] / consults)
        self.assertAlmostEqual(metrics["trace.overhead_s"],
                               traced["wall_s"] - untraced["wall_s"])
        self.assertEqual(metrics["fl.local_epoch_ms.n"], len(traced["kernels"]["fl.local_epoch_ms"]))
        # Kernels this workload does not run report n = 0.
        self.assertEqual(metrics["planner.plan_ms.n"], 0)
        self.assertEqual(metrics["sim_final_accuracy"], r["final_accuracy"])
        self.assertAlmostEqual(metrics["sim_energy_kj"], r["total_energy_j"] / 1000)

    def test_tail_is_highest_percentile_with_ten_samples_beyond(self):
        stats = run.tail_stats([float(x) for x in range(1, 101)])
        self.assertEqual(stats, {"p50": 50.0, "tail": 90.0, "tail_pct": 90.0, "n": 100})
        # Fewer than 20 samples: the tail falls back to the median.
        self.assertEqual(run.tail_stats([3.0, 1.0, 2.0])["tail"], 2.0)
        self.assertEqual(run.tail_stats([])["n"], 0)

    def test_result_line_has_exactly_the_four_keys(self):
        line = run.result_line(run.end_to_end_metrics(CANNED["untraced"]), run.END_TO_END, 2, 0)
        self.assertEqual({"correct", "attempted", "failed", "metrics"}, set(line))
        self.assertTrue(line["correct"])
        json.dumps(line)

    def test_metric_lists_match_benchmark_json(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(run.END_TO_END, [(m["name"], m["unit"]) for m in doc["end_to_end"]])
        self.assertEqual(run.PER_LAYER, [(m["name"], m["unit"]) for m in doc["per_layer"]])
        self.assertEqual(list(run.WORKLOADS), [w["name"] for w in doc["workloads"]])


class Rejection(unittest.TestCase):
    def test_canned_records_pass(self):
        for rec in CANNED["untraced"] + [CANNED["traced"]]:
            self.assertEqual([], run.check_record(rec))
        self.assertEqual([[], []], run.check_outcomes(CANNED["untraced"], None))

    def test_broken_energy_sum_is_rejected(self):
        rec = copy.deepcopy(CANNED["untraced"][0])
        rec["result"]["idle_j"] *= 1.0 + 1e-6
        self.assertTrue(any("energy breakdown" in e for e in run.check_record(rec)))

    def test_updates_beyond_sessions_are_rejected(self):
        rec = copy.deepcopy(CANNED["untraced"][0])
        r = rec["result"]
        r["total_updates"] = r["corun_sessions"] + r["separate_sessions"] + 1
        self.assertTrue(any("exceed" in e for e in run.check_record(rec)))

    def test_non_deterministic_updates_are_rejected(self):
        records = copy.deepcopy(CANNED["untraced"])
        records[1]["result"]["total_updates"] += 1
        errors = run.check_outcomes(records, None)
        self.assertEqual([], errors[0])
        self.assertIn("total_updates", errors[1][0])
        # Against a stored reference from an earlier run, both disagree.
        reference = copy.deepcopy(CANNED["untraced"][0]["result"])
        reference["total_updates"] -= 1
        self.assertTrue(all(run.check_outcomes(CANNED["untraced"], reference)))

    def test_non_release_build_is_refused(self):
        good = {"build_type": "Release",
                "probe_build": {"type": "Release", "compiler": "x", "ndebug": True}}
        run.check_release(good)
        for broken in ({"build_type": "Debug"}, {"probe_build": {"ndebug": False}},
                       {"probe_build": {"type": "RelWithDebInfo", "ndebug": True}}):
            stamp = copy.deepcopy(good)
            for key, value in broken.items():
                stamp[key] = {**stamp[key], **value} if isinstance(value, dict) else value
            with self.assertRaises(run.BenchError):
                run.check_release(stamp)


if __name__ == "__main__":
    unittest.main()
