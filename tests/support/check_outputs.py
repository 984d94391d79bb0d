#!/usr/bin/env python3
"""Runs a command and checks the JSON files it writes, for ctests whose
pass condition is more than an exit code or an output regex.

    check_outputs.py CHECK DIR -- COMMAND [ARG...]

Empties DIR, runs COMMAND, then applies CHECK to the files COMMAND wrote
into DIR (their names are fixed per check, below). Exits 0 when every
assertion holds.
"""

import json
import os
import shutil
import subprocess
import sys


def load(dir_, name):
    with open(os.path.join(dir_, name)) as f:
        return json.load(f)


def exports(dir_, run):
    """trace.json and metrics.json of a traced 3-step run: every step's
    critical path fits its wall, and the trace names its MPE and MPI
    threads, and its CPE groups when the variant offloads."""
    assert run.returncode == 0, run.returncode
    metrics = load(dir_, "metrics.json")
    assert metrics["timesteps"] == 3 and len(metrics["steps"]) == 3
    for step in metrics["steps"]:
        assert 0 < step["critical_path_ps"] <= step["wall_ps"], step
    trace = load(dir_, "trace.json")
    names = {e["args"]["name"] for e in trace["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"MPE", "MPI"} <= names, names
    if "--variant=host.sync" not in run.args:
        assert any(n.startswith("CPE") for n in names), names
        assert 0.0 < metrics["totals"]["overlap_efficiency"] < 1.0


def diag_final(dir_, run):
    """diag.json and stream.jsonl of a clean 6-step run streaming every 2
    steps: the final dump holds every rank, their flight rings, the
    provenance and the host profile; the stream a header and 3 snapshots."""
    assert run.returncode == 0, run.returncode
    dump = load(dir_, "diag.json")
    assert dump["diag"] == "final" and "provenance" in dump
    assert len(dump["ranks"]) == 2
    assert any(e["kind"] == "step_end" for r in dump["ranks"] for e in r["flight"])
    assert "host_profile" in dump
    with open(os.path.join(dir_, "stream.jsonl")) as f:
        lines = [json.loads(line) for line in f]
    assert lines[0]["stream"] == "uswsim" and "provenance" in lines[0]
    snaps = lines[1:]
    assert len(snaps) == 3  # after completed steps 2, 4 and 6
    assert all("counted_flops" in s and "t_ps" in s for s in snaps)
    assert snaps[-1]["step"] == 5  # 0-based index of the last step


def diag_hang(dir_, run):
    """diag.json of a run that deadlocks on a lost message: exit 3, a run
    that did not complete, not a usage error; and a crash dump that names
    the stalled ranks, the pending lost send and the last schedule points."""
    assert run.returncode == 3, run.returncode
    assert "diagnostic dump written to" in run.stderr, run.stderr
    assert "simulation did not complete (virtual-time deadlock" in run.stderr, run.stderr
    assert "--help" not in run.stderr, run.stderr
    dump = load(dir_, "diag.json")
    assert dump["diag"] == "crash"
    assert "ranks_status" in dump, "dump must name the stalled ranks"
    pending = [p for r in dump["ranks"] for p in r["comm"]["pending"]]
    assert any(p["lost"] for p in pending), "dump must show the lost send"
    assert any(e["kind"] == "msg_lost" for r in dump["ranks"] for e in r["flight"])
    picks = [e for e in dump["schedule_points"]["flight"] if e["kind"] == "rank_pick"]
    assert len(picks) >= 3, "dump must keep the last schedule points"


def parses(dir_, run):
    """Every .json file in DIR is well-formed JSON."""
    assert run.returncode == 0, run.returncode
    files = [n for n in os.listdir(dir_) if n.endswith(".json")]
    assert files, "no JSON written"
    for name in files:
        load(dir_, name)


CHECKS = {f.__name__: f for f in (exports, diag_final, diag_hang, parses)}


def main(argv):
    if len(argv) < 5 or argv[1] not in CHECKS or argv[3] != "--":
        sys.exit(__doc__)
    dir_ = argv[2]
    shutil.rmtree(dir_, ignore_errors=True)
    os.makedirs(dir_)
    run = subprocess.run(argv[4:], capture_output=True, text=True)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    CHECKS[argv[1]](dir_, run)


if __name__ == "__main__":
    main(sys.argv)
