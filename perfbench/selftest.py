#!/usr/bin/env python3
"""Self-test of the benchmark: perfbench/parse.py against outputs captured
from usched, and BENCHMARK.json against the tables in perfbench/run.py.

usage: python3 perfbench/selftest.py

The fixtures were written by the CLI on small instances: batch, faulty
(with stranded tasks and recovery) and stream `solve` stdout, the first
records and the `outcome` record of the faulty run's --trace log, and one
`run fig3 --csv` file.
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import parse  # noqa: E402


def fixture(name):
    with open(os.path.join(HERE, "fixtures", name)) as f:
        return f.read()


class SolveStdout(unittest.TestCase):
    def test_batch(self):
        s = parse.solve_stdout(fixture("solve_batch.stdout"))
        self.assertEqual(s["algo"], "LS-Group(k=2)")
        self.assertEqual((s["cmax"], s["lower_bound"], s["ratio"]),
                         ("43.7928", "37.9043", "1.1554"))
        self.assertEqual((s["replicas_max"], s["mem_max"]), (3, "22.0000"))
        self.assertEqual(s["machine_tasks"], 40)
        self.assertNotIn("faulty", s)
        self.assertNotIn("stream", s)

    def test_faulty_with_stranded_tasks(self):
        s = parse.solve_stdout(fixture("solve_faulty.stdout"))
        self.assertEqual(s["cmax"], "45.8582")
        self.assertEqual(s["faulty"], {
            "completed": 30, "n": 40, "cmax": "55.9209", "rereplications": 29,
            "stranded": [0, 6, 8, 12, 16, 18, 21, 24, 28, 34],
        })
        self.assertNotIn("stream", s)

    def test_stream(self):
        s = parse.solve_stdout(fixture("solve_stream.stdout"))
        self.assertEqual(s["stream"], {
            "arrival": "poisson:2.5", "offered_load": "2.133", "completed": 40,
            "n": 40, "p50": "12.9425", "p95": "27.5699", "p99": "31.8914",
            "mean": "14.6781",
        })
        self.assertNotIn("faulty", s)

    def test_rejects_other_output(self):
        with self.assertRaises(ValueError):
            parse.solve_stdout("wrote x.usched (20 tasks, 4 machines, alpha=1.5)\n")


class TraceOutcome(unittest.TestCase):
    def test_outcome_matches_stdout(self):
        outcome = parse.trace_outcome(fixture("solve_faulty.trace.jsonl").splitlines())
        faulty = parse.solve_stdout(fixture("solve_faulty.stdout"))["faulty"]
        self.assertEqual(outcome["completed"], faulty["completed"])
        self.assertEqual(outcome["stranded"], faulty["stranded"])
        self.assertEqual("%.4f" % outcome["makespan"], faulty["cmax"])
        self.assertEqual(outcome["metrics"]["engine.rereplications"],
                         faulty["rereplications"])

    def test_no_outcome(self):
        self.assertIsNone(parse.trace_outcome(['{"type":"meta"}', '{"type":"summary"}']))


class Fig3Csv(unittest.TestCase):
    def test_rows(self):
        rows = parse.fig3_csv(fixture("fig3_m210_alpha1.5.csv"))
        self.assertEqual(len(rows), 16)
        self.assertEqual(rows[0], {"replication": 1, "groups_k": 210,
                                   "guarantee": 4.462722, "measured_worst": 2.013942})
        self.assertIsNone(rows[1]["measured_worst"])
        measured = [r["replication"] for r in rows if r["measured_worst"] is not None]
        self.assertEqual(measured, [1, 3, 10, 42, 210])
        for r in rows:
            if r["measured_worst"] is not None:
                self.assertTrue(1.0 <= r["measured_worst"] <= r["guarantee"])


class InstanceShape(unittest.TestCase):
    def test_shape(self):
        text = "# usched-instance m=3 alpha=1.5\nid,est,size\n0,2.0,1\n1,4.0,1\n"
        self.assertEqual(parse.instance_shape(text), (3, 3.0))

    def test_rejects_empty(self):
        with self.assertRaises(ValueError):
            parse.instance_shape("# usched-instance m=3 alpha=1.5\nid,est,size\n")


class BenchmarkJson(unittest.TestCase):
    def test_matches_harness(self):
        import run
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            doc = json.load(f)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]], run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


if __name__ == "__main__":
    unittest.main()
