#!/usr/bin/env python3
"""Compare fresh BENCH_*.json results against committed baselines.

The benches report *virtual* (simulated) times, so the numbers are
deterministic and machine-independent: any drift is a real behavioral
change in the runtime model, not host noise. The default tolerance
therefore only absorbs benign last-digit float formatting churn; a
genuine perf regression (or improvement) shows up as a clean delta.

Usage:
  scripts/bench_compare.py --baseline-dir bench/baselines --fresh-dir build/bench
  scripts/bench_compare.py baseline.json fresh.json [--tolerance 0.05]

Exit codes: 0 = within tolerance, 1 = regression/mismatch, 2 = usage error.

The comparison is symmetric: entries missing from the fresh results are
hard errors (a bench silently stopped reporting something), while entries
present only in the fresh results — new scalars, new cases, new per-case
metrics — are reported as notes and, under --strict, also fail (so a new
bench config cannot land without a committed baseline). CI runs --strict.
A case (problem, variant, ranks) listed twice in either file is a hard
error too: only one copy could be compared.

Regression policy, per metric:
  * "higher is worse" metrics (mean_step_ps, wait_ps, critical_path_ps,
    cpe_idle_frac, msgs_total, mpi_post_count) fail when
    fresh > baseline * (1 + tolerance);
  * "lower is worse" metrics (gflops, overlap_efficiency, scalars)
    fail when fresh < baseline * (1 - tolerance);
  * counted_flops is a work-volume invariant and must match exactly
    (relative 1e-12): changing it silently would invalidate the
    Gflop/s comparison entirely.
  * host wall-clock metrics (host_ms) are machine- and load-dependent, so
    they get their own LOOSE tolerance class: fail only past a 25x blowup
    (a sanity net against host-side livelocks/contention catastrophes),
    and improvements are never even noted.
  * improvements beyond tolerance are reported but do not fail; commit a
    new baseline to lock them in (see Re-baselining below).

Re-baselining (after an intentional model/perf change), from build/bench
so the JSON lands there:
  cmake --build build -j && cd build/bench && ./paper_sweep && \
      ./ablation_tile_policy && ./ablation_fault && ./scale_smoke && \
      ./future_work && cd -
  cp build/bench/BENCH_*.json bench/baselines/
  git add bench/baselines && git commit  # explain the shift in the message
"""

import argparse
import json
import math
import os
import sys

# metric -> direction in which it gets WORSE. msgs_total and
# mpi_post_count are the comm-volume gauges (deterministic counts of
# logical messages and emulated MPI posts): a change that silently
# inflates traffic or undoes message aggregation fails here.
HIGHER_IS_WORSE = ("mean_step_ps", "wait_ps", "critical_path_ps",
                   "cpe_idle_frac", "msgs_total", "mpi_post_count")
LOWER_IS_WORSE = ("gflops", "overlap_efficiency")
EXACT = ("counted_flops",)
EXACT_REL = 1e-12
# Host wall-clock metrics: machine-dependent, so the shared --tolerance
# does not apply. metric -> own relative tolerance in the higher-is-worse
# direction (24.0 = fail when fresh > 25x baseline). Never reported as
# "improved" — a faster machine is not a perf win to lock in.
LOOSE_HIGHER_IS_WORSE = {"host_ms": 24.0}


class Delta:
    def __init__(self, where, metric, base, fresh, worse, cls, band, note=""):
        self.where = where
        self.metric = metric
        self.base = base
        self.fresh = fresh
        self.worse = worse  # True = regression direction
        self.cls = cls      # tolerance class the metric was judged under
        self.band = band    # human-readable allowed band for that class
        self.note = note

    def rel(self):
        if self.base == 0:
            return math.inf if self.fresh != 0 else 0.0
        return (self.fresh - self.base) / abs(self.base)


def metric_class(metric, tolerance):
    """Tolerance class and allowed band for a metric, as shown in the
    failure table: every flagged delta names the rule it broke."""
    if metric in EXACT:
        return "EXACT", f"|delta| <= {EXACT_REL:g} rel"
    if metric in LOOSE_HIGHER_IS_WORSE:
        return ("LOOSE_HIGHER_IS_WORSE",
                f"<= +{LOOSE_HIGHER_IS_WORSE[metric]:.0%}")
    if metric in HIGHER_IS_WORSE:
        return "HIGHER_IS_WORSE", f"<= +{tolerance:.0%}"
    if metric in LOWER_IS_WORSE:
        return "LOWER_IS_WORSE", f">= -{tolerance:.0%}"
    return "SCALAR", f">= -{tolerance:.0%}"


def case_key(case):
    return (case["problem"], case["variant"], case["ranks"])


def index_cases(doc, which, errors):
    """Cases keyed by case_key. A key listed twice is an error: keeping
    either copy would hide the other from the comparison."""
    cases = {}
    for case in doc.get("cases", []):
        key = case_key(case)
        if key in cases:
            errors.append(f"case {key} listed twice in {which}")
        cases[key] = case
    return cases


def compare_metric(where, metric, base, fresh, tolerance, deltas):
    cls, band = metric_class(metric, tolerance)
    if metric in EXACT:
        denom = max(abs(base), 1.0)
        if abs(fresh - base) / denom > EXACT_REL:
            deltas.append(Delta(where, metric, base, fresh, True, cls, band,
                                "must match exactly"))
        return
    if base == 0 and fresh == 0:
        return
    rel = (fresh - base) / abs(base) if base != 0 else math.inf
    if metric in LOOSE_HIGHER_IS_WORSE:
        if rel > LOOSE_HIGHER_IS_WORSE[metric]:
            deltas.append(Delta(where, metric, base, fresh, True, cls, band,
                                "host wall-clock blowup"))
        return
    if metric in HIGHER_IS_WORSE:
        regressed, improved = rel > tolerance, rel < -tolerance
    elif metric in LOWER_IS_WORSE:
        regressed, improved = rel < -tolerance, rel > tolerance
    else:  # scalars: all are "bigger = better improvement factors"
        regressed, improved = rel < -tolerance, rel > tolerance
    if regressed:
        deltas.append(Delta(where, metric, base, fresh, True, cls, band))
    elif improved:
        deltas.append(Delta(where, metric, base, fresh, False, cls, band,
                            "improved"))


def compare_files(baseline_path, fresh_path, tolerance):
    """Returns (deltas, errors, extras).

    errors: baseline entries missing from the fresh results — always fail.
    extras: fresh-only entries (scalar / case / per-case metric) with no
    baseline to compare against — notes by default, failures under --strict.
    """
    with open(baseline_path) as f:
        base = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    deltas, errors, extras = [], [], []

    base_scalars = base.get("scalars", {})
    fresh_scalars = fresh.get("scalars", {})
    for name, bval in sorted(base_scalars.items()):
        if name not in fresh_scalars:
            errors.append(f"scalar '{name}' missing from fresh results")
            continue
        compare_metric(f"scalar:{name}", name, bval, fresh_scalars[name],
                       tolerance, deltas)
    for name in sorted(set(fresh_scalars) - set(base_scalars)):
        extras.append(f"scalar '{name}' not in baseline (re-baseline to add)")

    base_cases = index_cases(base, "baseline", errors)
    fresh_cases = index_cases(fresh, "fresh results", errors)
    for key in sorted(base_cases):
        if key not in fresh_cases:
            errors.append(f"case {key} missing from fresh results")
            continue
        bc, fc = base_cases[key], fresh_cases[key]
        where = "{}/{}/{}cg".format(*key)
        for metric in (HIGHER_IS_WORSE + LOWER_IS_WORSE + EXACT +
                       tuple(LOOSE_HIGHER_IS_WORSE)):
            if metric not in bc and metric not in fc:
                continue
            if metric not in fc:
                errors.append(
                    f"case {where}: metric '{metric}' missing from fresh "
                    "results")
                continue
            if metric not in bc:
                extras.append(
                    f"case {where}: metric '{metric}' not in baseline "
                    "(re-baseline to add)")
                continue
            compare_metric(where, metric, bc[metric], fc[metric],
                           tolerance, deltas)
    for key in sorted(set(fresh_cases) - set(base_cases)):
        extras.append(f"case {key} not in baseline (re-baseline to add)")

    return deltas, errors, extras


def print_table(bench, deltas):
    rows = [("case", "metric", "class", "baseline", "fresh", "delta",
             "allowed", "")]
    for d in deltas:
        rows.append((d.where, d.metric, d.cls, f"{d.base:.6g}",
                     f"{d.fresh:.6g}", f"{d.rel():+.2%}", d.band,
                     ("REGRESSION" if d.worse else "ok") +
                     (f" ({d.note})" if d.note else "")))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print(f"\n{bench}: {len(deltas)} metric(s) outside tolerance")
    for r in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="explicit BASELINE.json FRESH.json pair")
    ap.add_argument("--baseline-dir", help="directory of committed baselines")
    ap.add_argument("--fresh-dir", help="directory with fresh BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="relative tolerance (default 0.05 = 5%%)")
    ap.add_argument("--strict", action="store_true",
                    help="fail on fresh-only entries (new scalar/case/metric "
                         "without a committed baseline), not just report them")
    args = ap.parse_args()

    pairs = []
    if args.files:
        if len(args.files) != 2 or args.baseline_dir or args.fresh_dir:
            ap.error("pass either BASELINE FRESH or --baseline-dir/--fresh-dir")
        pairs.append((args.files[0], args.files[1]))
    elif args.baseline_dir and args.fresh_dir:
        names = sorted(n for n in os.listdir(args.baseline_dir)
                       if n.startswith("BENCH_") and n.endswith(".json"))
        if not names:
            print(f"error: no BENCH_*.json baselines in {args.baseline_dir}",
                  file=sys.stderr)
            return 2
        for name in names:
            pairs.append((os.path.join(args.baseline_dir, name),
                          os.path.join(args.fresh_dir, name)))
    else:
        ap.error("pass either BASELINE FRESH or --baseline-dir/--fresh-dir")

    failed = False
    for baseline_path, fresh_path in pairs:
        bench = os.path.basename(baseline_path)
        if not os.path.exists(fresh_path):
            print(f"\n{bench}: FRESH RESULT MISSING ({fresh_path}) — "
                  "did the bench run?", file=sys.stderr)
            failed = True
            continue
        deltas, errors, extras = compare_files(baseline_path, fresh_path,
                                               args.tolerance)
        if deltas:
            print_table(bench, deltas)
        else:
            print(f"\n{bench}: all metrics within "
                  f"{args.tolerance:.0%} of baseline")
        for e in errors:
            print(f"  ERROR: {e}", file=sys.stderr)
        for e in extras:
            tag = "ERROR" if args.strict else "NOTE"
            print(f"  {tag}: {e}", file=sys.stderr)
        if errors or any(d.worse for d in deltas):
            failed = True
        if args.strict and extras:
            failed = True

    if failed:
        print("\nbench_compare: FAIL — see deltas above. If the change is "
              "intentional, re-baseline:\n  cp build/bench/BENCH_*.json "
              "bench/baselines/  (and explain why in the commit)",
              file=sys.stderr)
        return 1
    print("\nbench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
