#!/usr/bin/env python3
"""End-to-end benchmark of the uintah-sw runtime.

Builds bench/e2e (usw_e2e and usw_e2e_traced), runs the four workloads as
fresh child processes pinned to one CPU, checks their outputs, and reports
the end-to-end and per-layer metrics named in BENCHMARK.json. A calibration
loop is timed before the first child and after each one; end-to-end host
times are scaled by it to the speed of the reference machine.

  python3 bench/e2e/run.py [--seed=S] [--repeats=5]    every workload, in an order
                                                       shuffled by the seed; writes
                                                       bench/e2e/out/results.json
  python3 bench/e2e/run.py --quick                     1 repeat of 3 steps each
  python3 bench/e2e/run.py --check-probes              also exit 1 if a probe never fired
  python3 bench/e2e/run.py --compare A.json B.json     verdict per (workload, metric)
  python3 bench/e2e/run.py --selftest                  unit tests of the statistics
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload for about S seconds; the last stdout line is one JSON
        object with correct / attempted / failed / metrics (the end-to-end
        metrics with --trace 0, the per-layer ones with --trace 1)

The simulator's inputs are deterministic: the seed only orders the runs.
See README.md for the workloads, the metrics and how the layers are probed.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

WORKLOADS = ["halo-1024", "stencil-8p", "paper-128", "observed-512"]
LAYERS = ["sim", "comm", "sched", "athread", "dma", "obs"]
CHILD_TIMEOUT_S = 150
TAIL_Q = 0.90   # step_host_ms_p90
TAIL_MIN = 10   # samples that must lie beyond a reported percentile
QUICK_STEPS = 3

# Exact end-to-end metrics reported next to the host metrics of
# BENCHMARK.json. They read the same on every run, so BENCHMARK.json does
# not list them; a run whose exact values are wrong counts as failed, and
# --compare applies them with bound 0.
EXACT_E2E = {
    "virtual_step_ms": {"unit": "sim_ms", "better": "lower", "bound": 0.0},
    "failed_frac": {"unit": "fraction", "better": "lower", "bound": 0.0},
}
# Host metrics printed in the full report but not gated: the p90s and the
# raw (unnormalised) readings vary too much on a shared machine.
REPORTED_E2E = {
    "step_host_ms_p90": "ms",
    "raw_step_host_ms": "ms",
    "raw_step_host_ms_p90": "ms",
    "raw_setup_s": "s",
}
# Per-layer figures printed only in the full report: each is zero on some
# workload or reads the same on every run.
EXTRA_LAYER_UNITS = {
    "obs.report_ms": "ms",
    "vt.kernel_ms": "sim_ms",
    "vt.mpe_task_ms": "sim_ms",
    "vt.comm_ms": "sim_ms",
    "vt.wait_ms": "sim_ms",
    "vt.critical_path_ms": "sim_ms",
    "vt.overlap_efficiency": "fraction",
}
EXACT_COUNTS = ["comm.msgs", "comm.bytes", "comm.mpi_posts", "athread.offloads",
                "athread.cells", "dma.bytes", "var.pack_bytes"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics

def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail_percentile(xs, q=TAIL_Q):
    """Nearest-rank q-percentile of xs and the number of samples above it."""
    s = sorted(xs)
    k = max(1, math.ceil(q * len(s)))
    return s[k - 1], len(s) - k


def setup_seconds(run_s, step_ms):
    """A child's wall time outside its timed steps."""
    return run_s - sum(step_ms) / 1e3


def relative_spread(xs):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(xs)
    if med:
        return (q3 - q1) / abs(med)
    return 0.0 if q3 == q1 else math.inf


def verdict(a, b, better, bound):
    """Compares per-repeat values of side A (before) and side B (after).

    `unresolved` when either side's interquartile range is wider than the
    bound (as a share of its median). Otherwise `worse` or `better` when B's
    median moved past the bound in that direction, as a share of A's median
    (an absolute difference when A's median is 0), else `unchanged`. A bound
    of 0 marks an exact metric: any change counts.
    """
    if bound > 0 and max(relative_spread(a), relative_spread(b)) > bound:
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / abs(ma) if ma else mb - ma
    if better == "higher":
        change = -change
    tol = max(bound, 1e-9)
    if change > tol:
        return "worse"
    if change < -tol:
        return "better"
    return "unchanged"


# --------------------------------------------------------------------- build

def build():
    """Configures and builds both executables; returns them by `traced`."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"run.py: no repository sources at {ROOT}; the "
                         "benchmark builds the runtime from them")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("run.py: build failed: " + " ".join(cmd))
    return {False: BUILD / "usw_e2e", True: BUILD / "usw_e2e_traced"}


def pick_cpu():
    """The highest-numbered CPU this process may use (CPU 0 usually takes
    the most interrupts)."""
    return max(os.sched_getaffinity(0))


# -------------------------------------------------------------------- running

def run_child(binary, workload, steps, cpu, traced):
    """Runs one fresh child pinned to `cpu` and returns its run record.
    `steps` None keeps the workload's own step count."""
    rec = {"workload": workload, "traced": traced, "cpu": cpu,
           "load_before": os.getloadavg()[0], "ok": False, "error": ""}
    cmd = [str(binary), f"--workload={workload}"]
    if steps is not None:
        cmd.append(f"--steps={steps}")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        rec["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return rec
    finally:
        rec["wall_s"] = time.monotonic() - t0
        rec["load_after"] = os.getloadavg()[0]
    if proc.returncode != 0:
        rec["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return rec
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as e:
        rec["error"] = f"unparsable output: {e}"
        return rec
    rec.update(out)
    rec["ok"] = True
    rec["setup_s"] = setup_seconds(out["run_s"], out["step_ms"])
    rec["peak_rss_mb"] = out["maxrss_kb"] / 1024.0
    return rec


def run_calibration(binary, cpu):
    """Times the calibration loop (usw_e2e --calibrate) in its own process
    pinned to `cpu` and returns its milliseconds."""
    proc = subprocess.run([str(binary), "--calibrate"], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        raise SystemExit(f"run.py: calibration failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["calib_ms"]


class Runner:
    """Runs children on one CPU with a calibration before the first and
    after every child; each run record carries the two around it."""

    def __init__(self, bins, cpu):
        self.bins, self.cpu = bins, cpu
        self.last_calib = run_calibration(bins[False], cpu)

    def run(self, workload, steps, traced):
        rec = run_child(self.bins[traced], workload, steps, self.cpu, traced)
        calib = run_calibration(self.bins[False], self.cpu)
        rec["calib_ms"] = [self.last_calib, calib]
        self.last_calib = calib
        return rec


def check_runs(runs, reference):
    """Marks a run failed when it did not exit cleanly, its counted flops
    differ from the reference, its L-inf error is non-finite or above the
    tolerance, or any exact value differs from the first good run of the
    same workload and step count (repeats and the traced binary alike)."""
    first = {}
    for r in runs:
        if not r["ok"]:
            continue
        ref = reference[r["workload"]]
        expect = ref["flops_per_step"] * r["steps"]
        if r["exact"]["counted_flops"] != expect:
            r["ok"] = False
            r["error"] = (f"counted_flops {r['exact']['counted_flops']} != "
                          f"reference {expect}")
            continue
        if "linf_max" in ref:
            linf = r.get("linf_error")
            if linf is None or not math.isfinite(linf) or linf > ref["linf_max"]:
                r["ok"] = False
                r["error"] = f"linf_error {linf} above {ref['linf_max']}"
                continue
        key = (r["workload"], r["steps"])
        base = first.setdefault(key, r["exact"])
        if r["exact"] != base:
            diff = sorted(k for k in r["exact"] if r["exact"][k] != base.get(k))
            r["ok"] = False
            r["error"] = "exact values differ between runs: " + ", ".join(diff)


# ------------------------------------------------------------------- metrics

def speed_scale(r, calib_ref):
    """The factor that brings run r's host times to the reference machine's
    speed: calib_ref over the mean of the calibrations just before and after
    r."""
    return calib_ref / statistics.mean(r["calib_ms"])


def norm_samples(runs, calib_ref):
    """Every step sample of the given runs, scaled by speed_scale."""
    return [x * speed_scale(r, calib_ref) for r in runs for x in r["step_ms"]]


def e2e_values(good, calib_ref):
    """End-to-end metrics over a workload's good untraced runs, and the
    step-sample count. Host times are normalised run by run with
    speed_scale; the raw_* values are the same statistics unscaled."""
    raw = [x for r in good for x in r["step_ms"]]
    norm = norm_samples(good, calib_ref)
    p90, beyond = tail_percentile(norm)
    values = {
        "step_host_ms": statistics.median(norm),
        "step_host_ms_p90": p90,
        "setup_s": statistics.median(
            r["setup_s"] * speed_scale(r, calib_ref) for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "raw_step_host_ms": statistics.median(raw),
        "raw_step_host_ms_p90": tail_percentile(raw)[0],
        "raw_setup_s": statistics.median(r["setup_s"] for r in good),
        "virtual_step_ms": good[0]["exact"]["virtual_step_ps"] / 1e9,
    }
    calibs = [c for r in good for c in r["calib_ms"]]
    return values, {"n": len(raw), "beyond_p90": beyond,
                    "calib_ms": statistics.median(calibs)}


def layer_values(traced, untraced):
    """Per-layer metrics per simulated step (run totals divided by the step
    count): medians over the traced runs of probe calls and self times, the
    tracing overhead and per-kernel CPU from the untraced runs, and the
    exact counts. The overhead compares normalised step times, since the
    traced and untraced runs alternate in time."""
    def one(r):
        steps = r["steps"]
        layers = r["probes"]["layers"]
        v = {}
        attributed_ms = 0.0
        for name in LAYERS:
            self_ms = layers[name]["self_ns"] / 1e6
            if name == "obs":
                self_ms += r["report_ms"]
            attributed_ms += self_ms
            v[f"{name}.self_ms"] = self_ms / steps
            v[f"{name}.calls"] = layers[name]["calls"] / steps
        v["runtime.other_ms"] = (r["process_cpu_ms"] - attributed_ms) / steps
        v["obs.report_ms"] = r["report_ms"] / steps
        return v

    per_run = [one(r) for r in traced]
    out = {k: statistics.median(v[k] for v in per_run) for k in per_run[0]}
    out["trace.overhead_frac"] = (statistics.median(norm_samples(traced, 1.0)) /
                                  statistics.median(norm_samples(untraced, 1.0)) - 1.0)
    out["sched.host_us_per_kernel"] = statistics.median(
        r["process_cpu_ms"] * 1e3 / r["kernels"] for r in untraced)
    ex, steps = untraced[0]["exact"], untraced[0]["steps"]
    for k in EXACT_COUNTS:
        out[k] = ex[k] / steps
    for k in ("kernel", "mpe_task", "comm", "wait"):
        out[f"vt.{k}_ms"] = ex[f"vt.{k}_ps"] / 1e9 / steps
    if "vt.critical_path_ps" in ex:
        out["vt.critical_path_ms"] = ex["vt.critical_path_ps"] / 1e9
        out["vt.overlap_efficiency"] = ex["vt.overlap_efficiency"]
    return out


def coverage(traced):
    """Calls per wrapped symbol, summed over the given traced runs."""
    cov = {}
    for r in traced:
        for s in r["probes"]["symbols"]:
            c = cov.setdefault(s["symbol"], {"name": s["name"], "layer": s["layer"],
                                             "calls": 0, "linked": True})
            c["calls"] += s["calls"]
            c["linked"] = c["linked"] and s["linked"]
    return cov


def load_json(path):
    return json.loads(Path(path).read_text())


# ------------------------------------------------------------- driver mode

def driver(args):
    """Runs one workload for about --seconds and prints the JSON line."""
    spec = load_json(BENCHMARK)
    runner = Runner(build(), pick_cpu())
    rng = random.Random(args.seed)
    runs = []
    deadline = time.monotonic() + args.seconds
    while True:
        # --trace 1 runs untraced/traced pairs (the overhead needs both); the
        # seed decides which of each pair goes first.
        kinds = [False, True] if args.trace else [False]
        rng.shuffle(kinds)
        for traced in kinds:
            runs.append(runner.run(args.workload, None, traced))
        # Start another round only if at least half of it fits.
        round_s = statistics.median(r["wall_s"] for r in runs) * len(kinds)
        if time.monotonic() + round_s / 2 > deadline:
            break
    reference = load_json(REFERENCE)
    check_runs(runs, reference["workloads"])
    for r in runs:
        if not r["ok"]:
            log(f"run.py: failed run: {r['error']}")
    good_u = [r for r in runs if r["ok"] and not r["traced"]]
    good_t = [r for r in runs if r["ok"] and r["traced"]]
    if not good_u or (args.trace and not good_t):
        raise SystemExit("run.py: no successful run to measure")
    if args.trace:
        values, wanted = layer_values(good_t, good_u), spec["per_layer"]
    else:
        values = e2e_values(good_u, reference["calib_ref_ms"])[0]
        wanted = spec["end_to_end"]
    failed = sum(1 for r in runs if not r["ok"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


# --------------------------------------------------------------- full mode

def full(args):
    """Every workload: shuffled repeats plus one traced run each."""
    spec = load_json(BENCHMARK)
    runner = Runner(build(), pick_cpu())
    steps = QUICK_STEPS if args.quick else None
    repeats = 1 if args.quick else args.repeats
    plan = [(w, i, False) for w in WORKLOADS for i in range(repeats)]
    plan += [(w, 0, True) for w in WORKLOADS]
    random.Random(args.seed).shuffle(plan)
    runs = []
    for n, (w, i, traced) in enumerate(plan, 1):
        rec = runner.run(w, steps, traced)
        rec["repeat"] = i
        runs.append(rec)
        log(f"[{n}/{len(plan)}] {w}{' traced' if traced else f' #{i}'}: "
            f"{rec['wall_s']:.2f} s{'' if rec['ok'] else ' FAILED ' + rec['error']}")
    reference = load_json(REFERENCE)
    check_runs(runs, reference["workloads"])

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e_units.update(REPORTED_E2E)
    e2e_units.update({k: m["unit"] for k, m in EXACT_E2E.items()})
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layer_units.update(EXTRA_LAYER_UNITS)
    good_runs = [r for r in runs if r["ok"]]
    first = good_runs[0] if good_runs else {}
    results = {
        "provenance": {
            "git_sha": first.get("git_sha", "unknown"),
            "compiler": first.get("compiler", "unknown"),
            "build_type": first.get("build_type", "unknown"),
            "cpu": runner.cpu, "nproc": os.cpu_count(), "seed": args.seed,
            "repeats": repeats, "steps": steps or "workload default",
            "order": [f"{w}{'/traced' if t else f'#{i}'}" for w, i, t in plan],
            "runs": [{k: r.get(k) for k in ("workload", "repeat", "traced", "cpu",
                                            "load_before", "load_after", "wall_s",
                                            "calib_ms", "ok", "error")}
                     for r in runs],
        },
        "workloads": {},
    }
    for w in WORKLOADS:
        mine = [r for r in runs if r["workload"] == w]
        good_u = [r for r in mine if r["ok"] and not r["traced"]]
        good_t = [r for r in mine if r["ok"] and r["traced"]]
        failed = sum(1 for r in mine if not r["ok"])
        entry = {"attempted": len(mine), "failed": failed,
                 "end_to_end": {}, "per_layer": {}, "coverage": {}}
        if good_u:
            values, entry["samples"] = e2e_values(good_u, reference["calib_ref_ms"])
            values["failed_frac"] = failed / len(mine)
            # Each run alone gives the per-repeat values --compare reads.
            per_rep = [e2e_values([r], reference["calib_ref_ms"])[0] for r in good_u]
            for name, unit in e2e_units.items():
                entry["end_to_end"][name] = {
                    "value": values[name], "unit": unit,
                    "per_repeat": ([values[name]] if name == "failed_frac"
                                   else [p[name] for p in per_rep])}
        if good_u and good_t:
            values = layer_values(good_t, good_u)
            entry["per_layer"] = {k: {"value": values[k], "unit": u}
                                  for k, u in layer_units.items() if k in values}
            entry["coverage"] = coverage(good_t)
        results["workloads"][w] = entry

    print_report(results)
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nwrote {OUT / 'results.json'}")

    missing = probe_missing(results)
    for sym in missing:
        print(f"probe_missing: {sym}")
    failed = sum(1 for r in runs if not r["ok"])
    return 1 if failed or (args.check_probes and missing) else 0


def probe_missing(results):
    """Wrapped symbols that never fired in any workload of the set."""
    total = {}
    for entry in results["workloads"].values():
        for sym, c in entry["coverage"].items():
            total[sym] = total.get(sym, 0) + (c["calls"] if c["linked"] else 0)
    return sorted(s for s, n in total.items() if n == 0)


def print_report(results):
    prov = results["provenance"]
    print(f"uintah-sw e2e benchmark  sha={prov['git_sha']} {prov['compiler']} "
          f"{prov['build_type']}  cpu={prov['cpu']} nproc={prov['nproc']} "
          f"seed={prov['seed']}")
    for w, e in results["workloads"].items():
        s = e.get("samples", {"n": 0, "beyond_p90": 0})
        tail_note = "" if s["beyond_p90"] >= TAIL_MIN else (
            f"; fewer than {TAIL_MIN} samples beyond p90")
        print(f"\n== {w}: {e['attempted']} runs, {e['failed']} failed, "
              f"n={s['n']} step samples, {s['beyond_p90']} beyond p90{tail_note}")
        for name, m in e["end_to_end"].items():
            print(f"  {name:26s} {m['value']:>14.6g} {m['unit']}")
        if e["per_layer"]:
            print("  per layer, per simulated step (traced run):")
            for name, m in e["per_layer"].items():
                print(f"  {name:26s} {m['value']:>14.6g} {m['unit']}")
    covs = {w: e["coverage"] for w, e in results["workloads"].items() if e["coverage"]}
    if covs:
        syms = next(iter(covs.values()))
        print("\nprobe coverage (calls per run):")
        print(f"  {'probe':36s}" + "".join(f"{w:>14s}" for w in covs))
        for sym, info in syms.items():
            cells = "".join(f"{covs[w].get(sym, {}).get('calls', 0):>14d}" for w in covs)
            print(f"  {info['layer'] + ' ' + info['name']:36s}{cells}")


# --------------------------------------------------------------- compare

def compare(path_a, path_b):
    """One row per (workload, end-to-end metric): medians, quartiles over
    the repeats, and the verdict under BENCHMARK.json's bound."""
    spec = {m["name"]: m for m in load_json(BENCHMARK)["end_to_end"]}
    spec.update(EXACT_E2E)
    a, b = load_json(path_a)["workloads"], load_json(path_b)["workloads"]
    def cell(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"{'workload':14s} {'metric':16s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s}  verdict")
    counts = {}
    for w in WORKLOADS:
        if w not in a or w not in b:
            continue
        for name, m in spec.items():
            if name not in a[w]["end_to_end"] or name not in b[w]["end_to_end"]:
                continue
            va = a[w]["end_to_end"][name]["per_repeat"]
            vb = b[w]["end_to_end"][name]["per_repeat"]
            v = verdict(va, vb, m["better"], m["bound"])
            counts[v] = counts.get(v, 0) + 1
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else qb[1] - qa[1]
            print(f"{w:14s} {name:16s} {cell(qa):>32s} {cell(qb):>32s} "
                  f"{100 * change:>+7.1f}%  {v}")
    print("\n" + ", ".join(f"{k}: {n}" for k, n in sorted(counts.items())))
    return 0


# --------------------------------------------------------------- selftest

class StatsTest(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        for n in (100, 101, 137, 1000):
            value, beyond = tail_percentile(list(range(n)))
            self.assertGreaterEqual(beyond, TAIL_MIN)
            self.assertEqual(sum(1 for x in range(n) if x > value), beyond)
        self.assertEqual(tail_percentile(list(range(99)))[1], 9)
        self.assertEqual(tail_percentile(list(range(100))), (89, 10))

    def test_quartiles(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        self.assertEqual(quartiles(xs), tuple(statistics.quantiles(xs, n=4)))
        self.assertEqual(quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertAlmostEqual(relative_spread([9.0, 10.0, 10.0, 11.0]), 0.15)

    def test_setup_seconds_subtracts_steps(self):
        self.assertAlmostEqual(setup_seconds(2.5, [1000.0, 500.0, 250.0]), 0.75)
        self.assertAlmostEqual(setup_seconds(0.1, []), 0.1)

    def test_normalisation_scales_steps_and_setup(self):
        run = {"step_ms": [10.0, 30.0, 20.0], "run_s": 0.56, "calib_ms": [18.0, 22.0],
               "peak_rss_mb": 5.0, "exact": {"virtual_step_ps": 2_000_000_000}}
        run["setup_s"] = setup_seconds(run["run_s"], run["step_ms"])
        values, info = e2e_values([run], calib_ref=10.0)
        self.assertAlmostEqual(values["raw_step_host_ms"], 20.0)
        self.assertAlmostEqual(values["step_host_ms"], 10.0)     # 20 * 10/20
        self.assertAlmostEqual(values["raw_setup_s"], 0.5)
        self.assertAlmostEqual(values["setup_s"], 0.25)
        self.assertAlmostEqual(values["virtual_step_ms"], 2.0)
        self.assertEqual(info["n"], 3)

    def test_verdicts(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(verdict(base, [x * 1.05 for x in base], "lower", 0.10),
                         "unchanged")
        self.assertEqual(verdict(base, [x * 1.20 for x in base], "lower", 0.10),
                         "worse")
        self.assertEqual(verdict(base, [x * 0.80 for x in base], "lower", 0.10),
                         "better")
        self.assertEqual(verdict(base, [x * 1.20 for x in base], "higher", 0.10),
                         "better")
        noisy = [60.0, 100.0, 140.0, 100.0, 90.0]
        self.assertEqual(verdict(base, noisy, "lower", 0.10), "unresolved")
        self.assertEqual(verdict(noisy, base, "lower", 0.10), "unresolved")

    def test_exact_metrics_use_zero_bound(self):
        self.assertEqual(verdict([5.0], [5.0], "lower", 0.0), "unchanged")
        self.assertEqual(verdict([5.0], [5.0 * (1 + 1e-6)], "lower", 0.0), "worse")
        self.assertEqual(verdict([0.0], [0.25], "lower", 0.0), "worse")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--check-probes", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.repeats < 1 or args.seconds < 1:
        p.error("--repeats and --seconds must be positive")
    if args.selftest:
        prog = unittest.main(argv=[sys.argv[0]], exit=False, verbosity=2)
        return 0 if prog.result.wasSuccessful() else 1
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return driver(args)
    return full(args)


if __name__ == "__main__":
    sys.exit(main())
