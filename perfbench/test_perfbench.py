#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload at --tiny size (seconds each, after one build), untraced
and traced, and requires exit 0, every named metric and passing checks; shows
that a deliberately skipped remove fails the ownership / empty-platform
audit; that the serial fingerprint repeats on one seed; that BENCHMARK.json
is the manifest run.py writes; and that a directory holding only the
benchmark (no sources) fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the manifest tables)

WORKLOADS = [name for name, _ in run.WORKLOADS]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def info_line(proc, key):
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == key:
            return parts[1]
    return None


class PerfbenchTest(unittest.TestCase):

    def test_manifest_is_written_from_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), run.manifest())

    def test_tiny_runs_print_every_metric_and_pass_checks(self):
        for workload in WORKLOADS:
            for trace, table in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = bench("--workload", workload, "--seed", "3",
                                         "--seconds", "1", "--trace", trace,
                                         "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = [entry[0] for entry in table]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    for name, unit in ((e[0], e[1]) for e in table):
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                        self.assertIn(name, proc.stdout)  # printed by name

    def test_skipped_remove_fails_the_audit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = bench("--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", "0",
                                     "--tiny", "--skip-remove")
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertRegex(proc.stdout,
                                 r"check empty_after_remove_all\s+FAIL")

    def test_serial_fingerprint_repeats_on_one_seed(self):
        prints = []
        for _ in range(2):
            proc, result = bench("--workload", "serial-mesh10k", "--seed", "7",
                                 "--seconds", "1", "--trace", "0", "--tiny")
            self.assertEqual(proc.returncode, 0, proc.stdout)
            self.assertTrue(result["correct"])
            prints.append(info_line(proc, "fingerprint"))
        self.assertIsNotNone(prints[0])
        self.assertEqual(prints[0], prints[1])
        proc, _ = bench("--workload", "serial-mesh10k", "--seed", "8",
                        "--seconds", "1", "--trace", "0", "--tiny")
        self.assertNotEqual(info_line(proc, "fingerprint"), prints[0])

    def test_benchmark_alone_fails_without_a_result(self):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bare = os.path.join(ROOT, target, "perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc, result = bench("--workload", "daemon-crisp", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
