"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Smoke-runs every workload with and without tracing (one small round each)
and checks that the result line carries exactly the metrics BENCHMARK.json
names, with their units; and checks that the correctness checker rejects
outputs whose sigma_min is off by 1e-6.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import joincond  # noqa: E402
import joincond.cli  # noqa: E402,F401

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for wl in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    result = _smoke(wl["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], float, name)


class CheckerTest(unittest.TestCase):
    """A result whose sigma_min is off by 1e-6 must be rejected."""

    OFF = 1e-6

    def test_oracle_rejects_shifted_sigma(self):
        d = joincond.experiments.paatero_sequence(3, 10)
        report = joincond.cpd_condition_number(d)
        truth = oracle.cp_sigma([t.vectors for t in d.terms])
        self.assertIsNone(oracle.check_sigma(report.sigma_min, report.kappa, truth))
        shifted = report.sigma_min + self.OFF
        self.assertIsNotNone(oracle.check_sigma(shifted, 1.0 / shifted, truth))
        self.assertIsNotNone(oracle.check_kappa(1.0 / shifted, truth))
        self.assertIsNotNone(oracle.check_certificate(report.sigma_min + 1e-6, truth))

    def test_cli_ladder_rejects_shifted_report(self):
        tmp = ROOT / ".bench_work" / "selftest"
        self.addCleanup(shutil.rmtree, tmp, True)
        wl = workloads.CliLadder(joincond, 5, tmp, smoke=True)
        op = next(op for op in wl.round(0) if op.label.startswith("cond-cpd"))
        code, text = wl.run(op)
        self.assertIsNone(wl.check(op, (code, text)))
        out = json.loads(text)
        out["sigma_min"] += self.OFF
        out["kappa"] = 1.0 / out["sigma_min"]
        self.assertIsNotNone(wl.check(op, (code, json.dumps(out))))
        nb = next(op for op in wl.round(0) if op.label.startswith("norm-balanced"))
        kappa = wl.run(nb)
        self.assertIsNone(wl.check(nb, kappa))
        self.assertIsNotNone(wl.check(nb, 1.0 / (1.0 / kappa + self.OFF)))

    def test_boundary_rejects_shifted_step(self):
        wl = workloads.Boundary(joincond, 5, None, smoke=True)
        for op in wl.round(0):
            sigma, kappa, distance = wl.run(op)
            self.assertIsNone(wl.check(op, (sigma, kappa, distance)))
            shifted = sigma + self.OFF
            self.assertIsNotNone(wl.check(op, (shifted, 1.0 / shifted, distance)))


if __name__ == "__main__":
    unittest.main()
