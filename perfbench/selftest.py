"""Self-tests of the benchmark at smoke size.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

Each workload runs untraced on two seeds and traced twice on one seed, as
separate processes, exactly as the benchmark command runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Traced metrics that must repeat bit for bit on one seed.
EXACT = (
    "bench.rmse",
    "dspu.sync_events",
    "circuit.steps",
    "circuit.member_steps",
    "circuit.rejected_steps",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    process = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return process


def parsed(process) -> tuple[dict, dict]:
    lines = process.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            cls.runs[workload] = {
                key: bench(workload, seed, trace)
                for key, (seed, trace) in {
                    "a": (1, 0), "b": (2, 0), "traced": (1, 1), "again": (1, 1),
                }.items()
            }

    def test_every_workload_completes_on_two_seeds(self):
        for workload, runs in self.runs.items():
            for key, process in runs.items():
                with self.subTest(workload=workload, run=key):
                    self.assertEqual(process.returncode, 0, process.stderr[-3000:])
                    details, result = parsed(process)
                    self.assertTrue(result["correct"])
                    self.assertTrue(details["check_self_test"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)

    def test_every_metric_appears_with_its_unit(self):
        for workload, runs in self.runs.items():
            for key, kind in (("a", "end_to_end"), ("traced", "per_layer")):
                with self.subTest(workload=workload, kind=kind):
                    metrics = parsed(runs[key])[1]["metrics"]
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    self.assertEqual(
                        {name: m["unit"] for name, m in metrics.items()}, expected
                    )
                    if kind == "end_to_end":
                        self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_exact_counts_repeat_bit_for_bit(self):
        for workload, runs in self.runs.items():
            first = parsed(runs["traced"])[1]["metrics"]
            second = parsed(runs["again"])[1]["metrics"]
            for name in EXACT:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first[name]["value"], second[name]["value"])

    def test_traced_self_times_add_up_to_traced_wall_time(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                details = parsed(runs["traced"])[0]
                self.assertAlmostEqual(
                    details["traced_self_sum_s"], details["traced_wall_s"],
                    delta=1e-9 * details["traced_wall_s"],
                )

    def test_fails_without_the_program(self):
        stripped = ROOT / ".perfbench" / "stripped"
        shutil.rmtree(stripped, ignore_errors=True)
        shutil.copytree(
            ROOT / "perfbench", stripped / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        try:
            process = bench(WORKLOADS[0], 1, 0, cwd=stripped)
        finally:
            shutil.rmtree(stripped)
        self.assertNotEqual(process.returncode, 0)
        self.assertNotIn('"metrics"', process.stdout)


if __name__ == "__main__":
    unittest.main()
