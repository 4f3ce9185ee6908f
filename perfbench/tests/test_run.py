"""Tests of the benchmark's own tooling (no build, no timing).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def metric_specs(array_name):
    """(name, unit) pairs of one array in src/metrics.hpp, in order."""
    src = (BENCH_DIR / "src" / "metrics.hpp").read_text()
    start = src.index(array_name)
    end = src.index("}};", start)
    return re.findall(r'\{"([^"]+)", "([^"]+)"\}', src[start:end])


class ContractTest(unittest.TestCase):
    def test_keys_and_limits(self):
        b = load()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)

    def test_metric_lists_match_metrics_hpp(self):
        b = load()
        self.assertEqual([(m["name"], m["unit"]) for m in b["end_to_end"]],
                         metric_specs("kEndToEnd"))
        self.assertEqual([(m["name"], m["unit"]) for m in b["per_layer"]],
                         metric_specs("kPerLayer"))


class SteadinessTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        s, m = run.spread(values)
        self.assertAlmostEqual(s, (q3 - q1) / med)
        self.assertAlmostEqual(m, med)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(run.spread([3.0] * 10)[0], 0.0)

    def test_classify(self):
        self.assertEqual(run.classify(0.02, 0.15), "steady")
        self.assertEqual(run.classify(0.10, 0.15), "within bound")
        self.assertEqual(run.classify(0.20, 0.15), "OVER BOUND")
        self.assertEqual(run.classify(0.30, 0.25), "OVER BOUND")


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        """With only BENCHMARK.json and perfbench/, a run exits non-zero
        and prints no result line."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "certify-cold",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
            self.assertFalse((Path(tmp) / ".bench_build").exists())


if __name__ == "__main__":
    unittest.main()
