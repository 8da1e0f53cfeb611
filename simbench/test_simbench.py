#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 simbench/test_simbench.py

For every workload it checks that:
- every metric named in BENCHMARK.json is emitted, with its unit;
- the result line parses as JSON;
- the deterministic counts repeat exactly between two untraced runs and a
  traced run of one seed;
- a held-out seed, not used while the benchmark was tuned, runs clean.

It builds through run.py, so the first run compiles the driver.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
HELD_OUT_SEED = 90210


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} seed={seed} trace={trace} exited "
                             f"{proc.returncode}\n{proc.stderr[-2000:]}")
    counts = [l for l in lines if l.startswith("counts ")]
    return json.loads(lines[-1]), json.loads(counts[0][len("counts "):])


class SimbenchTest(unittest.TestCase):
    def check_workload(self, name):
        s = spec()
        untraced, counts_a = run(name, SEED, 0)
        _, counts_b = run(name, SEED, 0)
        traced, counts_t = run(name, SEED, 1)
        self.assertEqual(counts_a, counts_b, "counts differ between runs")
        self.assertEqual(counts_a, counts_t, "tracing changed the counts")
        self.assertGreater(counts_a["ops"], 0)
        for result, group in ((untraced, "end_to_end"), (traced, "per_layer")):
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            want = {m["name"]: m["unit"] for m in s[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            for k, v in result["metrics"].items():
                self.assertIsInstance(v["value"], (int, float), k)
        held_out, _ = run(name, HELD_OUT_SEED, 0)
        self.assertTrue(held_out["correct"])
        self.assertEqual(held_out["failed"], 0)

    def test_rbtree(self):
        self.check_workload("rbtree")

    def test_replay_churn(self):
        self.check_workload("replay_churn")

    def test_server_open(self):
        self.check_workload("server_open")

    def test_stamp_planes(self):
        self.check_workload("stamp_planes")

    def test_workloads_match_spec(self):
        names = [w["name"] for w in spec()["workloads"]]
        self.assertEqual(names, ["rbtree", "replay_churn", "server_open",
                                 "stamp_planes"])


if __name__ == "__main__":
    unittest.main()
