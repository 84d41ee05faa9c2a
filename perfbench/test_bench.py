"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/test_bench.py

Checks that every metric is emitted with its unit, that BENCHMARK.json names
the same metrics and workloads, and that each workload's output check counts
a failure when its expected value is wrong.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402


def _wrong(request: workloads.Request) -> workloads.Request:
    """The request with an expected value its correct output cannot match."""
    exp = dict(request.expected)
    op = request.payload["op"]
    if op == "verify":
        status = dict(exp["status"])
        status[next(iter(status))] = "FAIL"
        exp["status"] = status
    elif op in ("hist", "classes"):
        exp["total"] += 1
    elif op == "eval":
        exp["nonzero"] = [[0, "1"]]
    return dataclasses.replace(request, expected=exp)


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result, extra = run.run_workload(workload, seed=3, seconds=0.1,
                                                     trace=trace, tiny=True)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                    for entry in result["metrics"].values():
                        self.assertIsInstance(entry["value"], (int, float))
                    self.assertEqual(extra["ops_failed"], (0, "count"))
                    if not trace:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
                    if workload == "rank-enum":
                        self.assertIn("quadruples_per_s", extra)
                    if workload == "expr-session":
                        self.assertIn("evals_per_s", extra)

    def test_benchmark_json_names_the_emitted_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_traced_pass_writes_linked_spans(self):
        run.OUT.mkdir(parents=True, exist_ok=True)
        path = run.OUT / "spans-selftest.jsonl.gz"
        requests = workloads.build("expr-session", 1, tiny=True)[:5]
        traced = run.run_pass(requests, trace=True, spans=path)
        with gzip.open(path, "rt") as fh:
            spans = [json.loads(line) for line in fh]
        path.unlink()
        self.assertEqual(len(spans), traced.finish["spans"])
        names = {s[0] for s in spans}
        self.assertIn("qexpr.evaluate", names)
        self.assertIn("series.mul", names)
        for name, start, end, parent, request_id in spans:
            self.assertLessEqual(start, end)
            self.assertTrue(1 <= request_id <= len(requests))
            if parent >= 0:
                self.assertEqual(spans[parent][4], request_id)


class OutputCheckTest(unittest.TestCase):
    def test_wrong_expected_value_counts_as_failed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                requests = workloads.build(workload, 1, tiny=True,
                                           series_coeffs=run.program_counts)
                good = run.run_pass(requests)
                self.assertEqual(good.failed, 0)
                bad = run.run_pass([_wrong(requests[0])] + requests[1:])
                self.assertGreaterEqual(bad.failed, 1)

    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rank-enum", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
