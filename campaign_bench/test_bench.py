#!/usr/bin/env python3
"""Self-tests of the campaign benchmark.

    python3 campaign_bench/test_bench.py

Builds the binary through run.py and checks that:
  - every printed metric name matches [A-Za-z0-9_.-]+ and carries a unit,
    for every workload, traced and untraced, and matches BENCHMARK.json;
  - count metrics repeat exactly across two traced runs;
  - a corrupted reference hash fails the run.
Takes a few minutes: each case runs real (short) campaigns.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(workload, trace, seed=1, reference=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class BenchmarkTest(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        if run.build() is None:
            raise RuntimeError("build failed")

    def traced_run(self, workload):
        if workload not in self.traced:
            self.traced[workload] = bench(workload, 1)
        return self.traced[workload]

    def check_names(self, metrics, expected):
        self.assertEqual(set(metrics), set(expected))
        for name, m in metrics.items():
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertLessEqual(len(name), 64)
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            self.assertEqual(m["unit"], expected[name])
            self.assertIsInstance(m["value"], (int, float))

    def test_names_and_units(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench(workload, 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_names(result["metrics"], declared("end_to_end"))
                code, result = self.traced_run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_names(result["metrics"], declared("per_layer"))

    def test_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, first = self.traced_run(workload)
                _, second = bench(workload, 1)
                counts = {k for k, m in first["metrics"].items()
                          if m["unit"] == "count"}
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_corrupted_reference_fails(self):
        reference = run.load_reference(run.REFERENCE)
        good = reference["web_curl"]["1"]
        reference["web_curl"]["1"] = good[:-1] + ("0" if good[-1] != "0"
                                                  else "1")
        corrupted = run.build_dir() / "corrupted_reference.json"
        corrupted.write_text(json.dumps(reference))
        code, result = bench("web_curl", 0, reference=str(corrupted))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
