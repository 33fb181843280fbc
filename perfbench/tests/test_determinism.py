#!/usr/bin/env python3
"""Generator determinism for the serving benchmark.

    python3 perfbench/tests/test_determinism.py

Builds the benchmark (perfbench/run.py) and runs every workload three
times at --seconds 1: seed 1 untraced, seed 1 traced and seed 2 untraced.
The same seed must give the same probe and update streams (the input
digest) and the same exact outputs (service bytes, index entries, fresh
entries, routing counts, transition-row builds, property shares), traced or
not; a different seed must give a different stream. Every run must be
correct with no failed operation.
"""

import json
import os
import re
import subprocess
import sys
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402

WORKLOADS = ("kernel-er20k", "compose-comm10k", "churn-comm5k")


def run_bench(workload, seed, trace):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--workdir",
         os.path.join(run.BUILD, "test-" + workload)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.splitlines()

    def line(prefix):
        return next(l for l in lines if l.startswith(prefix))

    return {
        "digest": re.search(r"digest=([0-9a-f]+)", line("inputs:")).group(1),
        "exact": line("exact:"),
        "properties": line("properties:"),
        "result": json.loads(lines[-1]),
    }


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("benchmark build failed")

    def test_same_seed_same_inputs_and_outputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run_bench(workload, 1, 0)
                traced = run_bench(workload, 1, 1)
                other = run_bench(workload, 2, 0)
                self.assertEqual(first["digest"], traced["digest"])
                self.assertEqual(first["exact"], traced["exact"])
                self.assertEqual(first["properties"], traced["properties"])
                self.assertNotEqual(first["digest"], other["digest"])
                for r in (first, traced, other):
                    self.assertTrue(r["result"]["correct"])
                    self.assertEqual(r["result"]["failed"], 0)
                    self.assertGreater(r["result"]["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
