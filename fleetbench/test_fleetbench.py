"""Tests of the fleet-engine benchmark's own code.

    python3 -m unittest discover -s fleetbench -p 'test_*.py'

The small-shape tests build the benchmark (release) and run every
workload at about 200 vehicles through the same path as a measured run,
including the width-1 and straight-run determinism checks.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec():
    return json.loads(run.SPEC.read_text())


def invoke(workload, trace, cwd=None, env=None):
    cmd = [sys.executable, "fleetbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd or HERE.parent, env=env, capture_output=True, text=True,
                          timeout=900)


class MetricSpec(unittest.TestCase):
    def test_every_metric_has_a_valid_name_unit_and_direction(self):
        s = spec()
        metrics = s["end_to_end"] + s["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)), "metric names repeat")
        for m in metrics:
            self.assertTrue(NAME.fullmatch(m["name"]), m)
            self.assertTrue(UNIT.fullmatch(m["unit"]), m)
            self.assertIn(m["better"], ("higher", "lower"), m)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_benchmark_lists_the_workloads_run_py_accepts(self):
        self.assertEqual(tuple(w["name"] for w in spec()["workloads"]), run.WORKLOADS)


class SmallShapes(unittest.TestCase):
    def test_every_workload_passes_its_checks_and_reports_every_metric(self):
        s = spec()
        for workload in run.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = invoke(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], run.MIN_REPS)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in s[group]])
                    for m in s[group]:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], float, m["name"])
                    if trace == 0:
                        for name, got in result["metrics"].items():
                            self.assertGreater(got["value"], 0, name)

    def test_trace_spans_nest_and_carry_self_time(self):
        proc = invoke("crash-resume", 1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        path = HERE / "out" / "crash-resume-seed7.trace.json"
        events = json.loads(path.read_text())["traceEvents"]
        names = {e["name"] for e in events}
        for want in ("try_new", "run_supervised", "newest_valid", "restore", "summary",
                     "engine.tick", "engine.barrier", "ckpt.write", "ckpt.load"):
            self.assertIn(want, names)
        for e in events:
            children = [c["dur"] for c in events if c["args"]["parent_id"] == e["args"]["id"]]
            if e["name"] in ("run_supervised", "restore"):
                self.assertTrue(children, e)
            self.assertAlmostEqual(e["args"]["self_us"], max(0.0, e["dur"] - sum(children)),
                                   delta=0.01)

    def test_fails_without_a_result_outside_the_repository(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            shutil.copy(run.SPEC, tmp)
            shutil.copytree(HERE, Path(tmp) / "fleetbench",
                            ignore=shutil.ignore_patterns("target", "out", "__pycache__",
                                                          "Cargo.lock"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / ".bench_build"))
            proc = invoke("steady-city", 0, cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
