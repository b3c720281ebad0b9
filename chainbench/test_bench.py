#!/usr/bin/env python3
"""Self-tests of the chain benchmark, at smoke size.

    python3 chainbench/test_bench.py

Checks, for every workload: an untraced run emits every end-to-end metric of
BENCHMARK.json with its unit and a traced run every per-layer metric; a
second seed also passes its gates; a deliberately wrong oracle comparison
makes the gate fire (nonzero exit, correct false); and the command refuses to
run, without printing a result, where only BENCHMARK.json and the benchmark's
own files exist.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=3, trace=0, extra=(), cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class ChainBenchTest(unittest.TestCase):
    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIsInstance(result["failed"], int)
        emitted = result["metrics"]
        for m in metrics:
            self.assertIn(m["name"], emitted, m["name"])
            self.assertEqual(emitted[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(emitted[m["name"]]["value"], (int, float), m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, metrics in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, err = run(w["name"], trace=trace)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.check_result(result, metrics)
                    if trace == 0:
                        for m in metrics:
                            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_second_seed_passes_its_gates(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, err = run(w["name"], seed=4)
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])

    def test_gate_fires_on_a_wrong_oracle(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, _ = run(w["name"], extra=("--break-oracle",))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_without_the_sources(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path)
            code, result, _ = run(SPEC["workloads"][0]["name"], cwd=tmp,
                                  script=Path(tmp) / "chainbench" / "run.py")
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
