#!/usr/bin/env python3
"""Regression tests for bench_compare.py (run by ctest).

Covers the symmetric-comparison fix: entries present only in the fresh
results (scalar, case, per-case metric) must be *reported* and must fail
under --strict — previously a fresh-only per-case metric was silently
ignored, so a new bench config could regress unnoticed.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")

BASE = {
    "scalars": {"async_improvement": 1.30},
    "cases": [
        {"problem": "tiny", "variant": "acc.async", "ranks": 4,
         "mean_step_ps": 1000.0, "gflops": 2.0, "counted_flops": 5.0e9,
         "host_ms": 100.0},
    ],
}


def run_compare(base, fresh, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        bpath = os.path.join(tmp, "base.json")
        fpath = os.path.join(tmp, "fresh.json")
        with open(bpath, "w") as f:
            json.dump(base, f)
        with open(fpath, "w") as f:
            json.dump(fresh, f)
        return subprocess.run(
            [sys.executable, SCRIPT, bpath, fpath, *flags],
            capture_output=True, text=True)


class BenchCompareTest(unittest.TestCase):
    def test_identical_passes(self):
        r = run_compare(BASE, BASE)
        self.assertEqual(r.returncode, 0, r.stderr)
        r = run_compare(BASE, BASE, "--strict")
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_regression_fails(self):
        fresh = copy.deepcopy(BASE)
        fresh["cases"][0]["mean_step_ps"] = 1200.0  # 20% slower
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 1)
        self.assertIn("REGRESSION", r.stdout)

    def test_improvement_passes(self):
        fresh = copy.deepcopy(BASE)
        fresh["cases"][0]["mean_step_ps"] = 800.0
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("improved", r.stdout)

    def test_counted_flops_must_match_exactly(self):
        fresh = copy.deepcopy(BASE)
        fresh["cases"][0]["counted_flops"] = 5.1e9
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 1)

    def test_baseline_metric_missing_from_fresh_always_fails(self):
        fresh = copy.deepcopy(BASE)
        del fresh["cases"][0]["gflops"]
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 1)
        self.assertIn("missing from fresh", r.stderr)

    def test_fresh_only_scalar_noted_then_strict_fails(self):
        fresh = copy.deepcopy(BASE)
        fresh["scalars"]["new_ratio"] = 2.0
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("NOTE", r.stderr)
        r = run_compare(BASE, fresh, "--strict")
        self.assertEqual(r.returncode, 1)
        self.assertIn("not in baseline", r.stderr)

    def test_fresh_only_case_noted_then_strict_fails(self):
        fresh = copy.deepcopy(BASE)
        fresh["cases"].append({"problem": "tiny", "variant": "host.sync",
                               "ranks": 4, "mean_step_ps": 9999.0})
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("NOTE", r.stderr)
        r = run_compare(BASE, fresh, "--strict")
        self.assertEqual(r.returncode, 1)

    def test_host_ms_noise_passes(self):
        # Host wall-clock is machine-dependent: a 10x slowdown (slow CI
        # box, sanitizer build) and any speedup must both pass silently.
        for value in (1000.0, 5.0):
            fresh = copy.deepcopy(BASE)
            fresh["cases"][0]["host_ms"] = value
            r = run_compare(BASE, fresh, "--strict")
            self.assertEqual(r.returncode, 0, r.stderr)
            self.assertNotIn("host_ms", r.stdout)

    def test_host_ms_blowup_fails(self):
        fresh = copy.deepcopy(BASE)
        fresh["cases"][0]["host_ms"] = 2600.0  # 26x: past the 25x net
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 1)
        self.assertIn("host wall-clock blowup", r.stdout)

    def test_host_ms_missing_from_fresh_fails(self):
        fresh = copy.deepcopy(BASE)
        del fresh["cases"][0]["host_ms"]
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 1)
        self.assertIn("host_ms", r.stderr)

    def test_failure_table_names_class_and_band(self):
        # Every flagged delta must say which tolerance class judged it and
        # the allowed band, so a red CI log is self-explanatory.
        fresh = copy.deepcopy(BASE)
        fresh["cases"][0]["mean_step_ps"] = 1200.0
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 1)
        self.assertIn("class", r.stdout)
        self.assertIn("allowed", r.stdout)
        self.assertIn("HIGHER_IS_WORSE", r.stdout)
        self.assertIn("<= +5%", r.stdout)

        fresh = copy.deepcopy(BASE)
        fresh["cases"][0]["counted_flops"] = 5.1e9
        r = run_compare(BASE, fresh)
        self.assertIn("EXACT", r.stdout)
        self.assertIn("1e-12", r.stdout)

        fresh = copy.deepcopy(BASE)
        fresh["cases"][0]["host_ms"] = 2600.0
        r = run_compare(BASE, fresh)
        self.assertIn("LOOSE_HIGHER_IS_WORSE", r.stdout)
        self.assertIn("<= +2400%", r.stdout)

        fresh = copy.deepcopy(BASE)
        fresh["cases"][0]["gflops"] = 1.0
        r = run_compare(BASE, fresh)
        self.assertIn("LOWER_IS_WORSE", r.stdout)
        self.assertIn(">= -5%", r.stdout)

        fresh = copy.deepcopy(BASE)
        fresh["scalars"]["async_improvement"] = 1.0
        r = run_compare(BASE, fresh)
        self.assertIn("SCALAR", r.stdout)

    def test_comm_volume_regression_fails(self):
        # msgs_total / mpi_post_count gate the comm layer: a change that
        # inflates traffic or undoes message aggregation must fail, and a
        # reduction (better coalescing) must pass as an improvement.
        base = copy.deepcopy(BASE)
        base["cases"][0]["msgs_total"] = 1000.0
        base["cases"][0]["mpi_post_count"] = 600.0
        for metric, worse in (("msgs_total", 1100.0),
                              ("mpi_post_count", 700.0)):
            fresh = copy.deepcopy(base)
            fresh["cases"][0][metric] = worse
            r = run_compare(base, fresh)
            self.assertEqual(r.returncode, 1)
            self.assertIn(metric, r.stdout)
            self.assertIn("REGRESSION", r.stdout)
        fresh = copy.deepcopy(base)
        fresh["cases"][0]["mpi_post_count"] = 400.0
        r = run_compare(base, fresh)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("improved", r.stdout)

    def test_duplicate_case_fails(self):
        # Cases are keyed by (problem, variant, ranks); a second copy used
        # to replace the first silently, so a 2x slower first copy passed.
        slow = copy.deepcopy(BASE["cases"][0])
        slow["mean_step_ps"] *= 2
        doubled = copy.deepcopy(BASE)
        doubled["cases"].insert(0, slow)
        r = run_compare(BASE, doubled, "--strict", "--tolerance", "0")
        self.assertEqual(r.returncode, 1)
        self.assertIn("case ('tiny', 'acc.async', 4) listed twice in fresh "
                      "results", r.stderr)
        r = run_compare(doubled, BASE)
        self.assertEqual(r.returncode, 1)
        self.assertIn("listed twice in baseline", r.stderr)

    def test_fresh_only_case_metric_noted_then_strict_fails(self):
        # The original hole: a known metric present only in the fresh case
        # was silently skipped by the baseline-driven metric loop.
        fresh = copy.deepcopy(BASE)
        fresh["cases"][0]["wait_ps"] = 123.0
        r = run_compare(BASE, fresh)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("wait_ps", r.stderr)
        r = run_compare(BASE, fresh, "--strict")
        self.assertEqual(r.returncode, 1)


if __name__ == "__main__":
    unittest.main()
