#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_bench.py

They build the benchmark through run.py and run every workload for one
cycle of ops (--seconds 0), so they take a minute or two.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.join("perfbench", "run.py")
REFERENCE = os.path.join("perfbench", "reference.json")

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=None):
    """Run the benchmark; return (exit code, stdout lines, parsed last line or None)."""
    proc = subprocess.run(
        [sys.executable, BENCH, *args], capture_output=True, text=True, cwd=cwd
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, lines, result


def one_cycle(workload, seed, trace, reference=REFERENCE):
    return run(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--reference", reference,
    )


def inputs(workload, seed):
    code, lines, _ = run("--workload", workload, "--seed", str(seed), "--inputs")
    assert code == 0
    return lines


class WrongReference(unittest.TestCase):
    def corrupted(self, edit):
        with open(REFERENCE) as f:
            ref = json.load(f)
        edit(ref)
        tmp = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        self.addCleanup(os.unlink, tmp.name)
        json.dump(ref, tmp)
        tmp.close()
        return tmp.name

    def assert_fails(self, code, result):
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_wrong_default_digest(self):
        def edit(ref):
            ref["workloads"]["corpus"]["default_digest"] = "0" * 32

        code, _, result = one_cycle("corpus", 42, 0, self.corrupted(edit))
        self.assert_fails(code, result)

    def test_wrong_input_digest(self):
        key = inputs("long-tests", 7)[0]

        def edit(ref):
            ref["workloads"]["long-tests"]["inputs"][key]["digest"] = "0" * 32

        for trace in (0, 1):
            code, _, result = one_cycle("long-tests", 7, trace, self.corrupted(edit))
            self.assert_fails(code, result)


class NamedMetrics(unittest.TestCase):
    def check(self, workload, trace, declared):
        code, lines, result = one_cycle(workload, 3, trace)
        self.assertEqual(code, 0, lines[-5:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])
            self.assertIn((m["name"], m["unit"]), printed, m["name"])

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, SPEC["end_to_end"])

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, SPEC["per_layer"])


class Seeds(unittest.TestCase):
    def test_seed_changes_inputs(self):
        for w in WORKLOADS:
            drawn = [tuple(inputs(w, seed)) for seed in (1, 2, 3, 42)]
            self.assertEqual(len(set(drawn)), len(drawn), w)
            self.assertEqual(tuple(inputs(w, 2)), drawn[1], w)


class Standalone(unittest.TestCase):
    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy("BENCHMARK.json", d)
            shutil.copytree(
                "perfbench", os.path.join(d, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            code, _, result = run(
                "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=d,
            )
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
