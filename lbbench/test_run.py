"""Tests of run.py over short runs of every workload.

    python3 -m unittest discover -s lbbench -p 'test_*.py'

Run from the root of the repository; it builds lbbench first.
"""

import json
import unittest
from pathlib import Path

import run

SPAN = ("--span-ms", "300")
SEED = 4


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_every_metric_run_py_prints(self):
        spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_metric_names_are_unique(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))


class ShortRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.target, cls.binary = run.build()

    def runs(self, workload, mode="run", n=1, extra=()):
        return [run.child(self.binary, mode, workload, SEED, (*SPAN, *extra)) for _ in range(n)]

    def test_every_workload_passes_every_check_and_prints_every_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                timed = self.runs(w, n=2)
                ref = self.runs("kv_fig3")[0] if w == "kv_recorded" else None
                self.assertEqual(run.check_runs(timed, ref), [])
                e2e = run.end_to_end(timed, True)
                self.assertEqual(list(e2e), [n for n, _ in run.END_TO_END])
                self.assertTrue(all(v != 0 for v in e2e.values()), e2e)

                spans = Path(self.target) / "lbbench" / f"test-spans-{w}.ndjson"
                spans.parent.mkdir(parents=True, exist_ok=True)
                traced = self.runs(w, "trace", extra=("--spans-out", str(spans)))[0]
                self.assertEqual(run.check_traced(timed[0], traced), [])
                layer = run.per_layer(timed[0], traced, ref)
                self.assertEqual(sorted(layer), sorted(n for n, _ in run.PER_LAYER))
                names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
                self.assertTrue({"setup", "run", "run_until", "replay"} <= names, names)

    def test_a_recorded_run_that_moved_a_packet_is_caught(self):
        fig3 = self.runs("kv_fig3")[0]
        recorded = self.runs("kv_recorded")[0]
        recorded["sim"]["netsim.events"] += 1
        self.assertTrue(run.check_runs([recorded], fig3))

    def test_a_run_that_drops_records_is_caught(self):
        recorded = self.runs("kv_recorded")[0]
        recorded["sim"]["telemetry.dropped"] = 1
        self.assertTrue(run.check_runs([recorded]))


if __name__ == "__main__":
    unittest.main()
