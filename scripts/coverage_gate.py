#!/usr/bin/env python3
"""Fails when src/ holds a function that no production run reaches.

    python3 scripts/coverage_gate.py [--build-dir build-coverage] [--jobs 4]
    python3 scripts/coverage_gate.py --skip-build     reuse a configured build

Builds the tree with coverage (Debug, `--coverage -O0`), then runs the
production entry points: the example_*, uswsim_* and microbench_host_smoke
ctests, and every binary in <build>/bench. A uswsim run that reaches code
no other entry point does belongs among the uswsim_* ctests.

It runs `gcov --json-format --stdout` over every .gcno in the build and keys
each function by its definition site (file, line), so a template or a
lambda counts once and is reached if any instantiation is. It then clears
the counters, runs the remaining ctests and labels the sites that only unit
tests reach.

It exits 1, listing the offenders, when a src/ site that no production run
reached is not excused by scripts/coverage_allowlist.txt, or when an
allowlist entry excuses nothing (production reaches it now, it no longer
exists, or the entries before it already excuse every unreached site of its
name). Each entry excuses one site: a file and a function name, which a
lambda shares with the function around it, so a second unreached site of
the same name needs an entry of its own.

Blind spot: a header-inline function that no translation unit calls has no
gcov record at all, so the gate cannot see it (-fkeep-inline-functions
would expose it, but breaks the gtest link). Grep for callers of a new
inline function by hand.
"""

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "scripts" / "coverage_allowlist.txt"
REASONS = ("error path", "test reference", "test accessor", "bench/e2e")
PRODUCTION_CTESTS = r"^(example_|uswsim_|microbench_host_smoke$)"
RUN_TIMEOUT_S = 900

# --------------------------------------------------------------------------
# Collection and comparison (pure functions: test_coverage_gate.py feeds
# them hand-made gcov JSON).

Site = namedtuple("Site", "file line")


class SiteInfo:
    """One function definition site: its names and whether a pass ran it."""

    def __init__(self):
        self.names = set()
        self.reached = False


OPERATOR = re.compile(r"(?<!\w)operator(\(\)|\[\]|[<>=!+\-*/%^&|~,]+|\s+[\w:]+)")


def qualified_name(demangled):
    """The function's qualified name without return type, template arguments
    or parameters: `double usw::obs::f<double>(double)` -> `usw::obs::f`. A
    lambda takes the name of the function that encloses it."""
    s = re.sub(r"\[abi:\w+\]", "", demangled).replace("(anonymous namespace)", "{anonymous}")
    out, depth, i = "", 0, 0
    while i < len(s):
        m = OPERATOR.match(s, i) if depth == 0 else None
        if m:  # an operator's name may hold ( ) < > or a space
            out += m.group(0)
            i = m.end()
            continue
        c = s[i]
        if c == "(" and depth == 0:
            break
        if c == "{":  # {anonymous}, {lambda(int)#1}: copied whole
            end = s.index("}", i) + 1
            out += s[i:end] if depth == 0 else ""
            i = end
            continue
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            out = ""  # what came before was the return type
        elif depth == 0:
            out += c
        i += 1
    return out


def parse_gcov(docs, src_root):
    """Function sites under src_root from gcov JSON documents (one per data
    file): {Site: SiteInfo}, every instrumented (file, line) and the ones
    that ran."""
    src_root = str(src_root).rstrip("/") + "/"
    sites, lines_run, lines_all = {}, set(), set()
    for doc in docs:
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src_root):
                continue
            rel = "src/" + path[len(src_root):]
            for fn in f["functions"]:
                info = sites.setdefault(Site(rel, fn["start_line"]), SiteInfo())
                info.names.add(qualified_name(fn["demangled_name"]))
                info.reached |= fn["execution_count"] > 0
            for ln in f.get("lines", []):
                key = (rel, ln["line_number"])
                lines_all.add(key)
                if ln["count"] > 0:
                    lines_run.add(key)
    return sites, lines_all, lines_run


Entry = namedtuple("Entry", "file function reason note lineno")


def parse_allowlist(text):
    """Entries of `file  function  reason[: note]` lines; # starts a comment."""
    entries, errors = [], []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            errors.append(f"allowlist line {n}: expected 'file function reason'")
            continue
        file, function, rest = parts
        reason, _, note = rest.partition(":")
        reason, note = reason.strip(), note.strip()
        if reason not in REASONS:
            errors.append(f"allowlist line {n}: reason '{reason}' is not one of {REASONS}")
        elif reason == "test accessor" and not note:
            errors.append(f"allowlist line {n}: a test accessor names the test that reads it")
        entries.append(Entry(file, function, reason, note, n))
    return entries, errors


def matches(entry, site, info):
    if entry.file != site.file:
        return False
    return any(name == entry.function or name.endswith("::" + entry.function)
               for name in info.names)


def compare(prod, tests, entries):
    """prod and tests are {Site: SiteInfo} from the two passes (the same
    sites). Each entry excuses the first unreached site it matches that no
    earlier entry excuses. Returns (offenders, stale entries, {Site: label})
    where label is 'tests' for sites only unit tests reach and 'none' for
    sites nothing reaches."""
    unreached = {site: ("tests" if tests.get(site) and tests[site].reached else "none")
                 for site, info in prod.items() if not info.reached}
    excused = set()
    stale = []
    for entry in entries:
        hit = [s for s in sorted(unreached) if matches(entry, s, prod[s])]
        free = [s for s in hit if s not in excused]
        if free:
            excused.add(free[0])
        elif hit:
            stale.append((entry, "earlier entries excuse every unreached site of this name"))
        elif any(matches(entry, s, i) for s, i in prod.items()):
            stale.append((entry, "production reaches it"))
        else:
            stale.append((entry, "no such function"))
    offenders = sorted(s for s in unreached if s not in excused)
    return offenders, stale, unreached


# --------------------------------------------------------------------------
# Driving the build and the runs.


def run(cmd, **kw):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    subprocess.run(cmd, check=True, **kw)


def build(build_dir, jobs):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    run(["cmake", "-S", str(ROOT), "-B", str(build_dir), *gen,
         "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS=--coverage -O0"],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", str(build_dir), "-j", str(jobs)], stdout=subprocess.DEVNULL)


def clear_counters(build_dir):
    for p in Path(build_dir).rglob("*.gcda"):
        p.unlink()


def run_bench(exe, scratch):
    cwd = tempfile.mkdtemp(dir=scratch)
    # Every microbenchmark once, briefly: the gate wants the code paths, not
    # the timings.
    args = ["--benchmark_min_time=0.01"] if exe.name == "microbench_host" else []
    r = subprocess.run([str(exe), *args], cwd=cwd, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return [] if r.returncode == 0 else [f"{exe.name}: exit {r.returncode}"]


def production_pass(build_dir, jobs):
    failures = []
    r = subprocess.run(["ctest", "--test-dir", str(build_dir), "-j", str(jobs),
                        "-R", PRODUCTION_CTESTS, "--output-on-failure"])
    if r.returncode != 0:
        failures.append("a production ctest failed")
    with tempfile.TemporaryDirectory(prefix="usw-coverage-") as scratch:
        benches = sorted(p for p in (Path(build_dir) / "bench").iterdir()
                         if p.is_file() and os.access(p, os.X_OK))
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            for found in pool.map(lambda b: run_bench(b, scratch), benches):
                failures += found
    return failures


def is_defaulted(site):
    """A `= default` function holds no code of the project's, and GCC records
    it only where it is value-initialized: `App app;` runs a defaulted
    constructor without a call, `App()` calls it."""
    lines = (ROOT / site.file).read_text().splitlines()
    return re.search(r"=\s*default\s*;", lines[site.line - 1]) is not None


def collect(build_dir):
    docs = []
    gcnos = sorted(str(p) for p in Path(build_dir).rglob("*.gcno"))
    for i in range(0, len(gcnos), 32):
        out = subprocess.run(["gcov", "--json-format", "--stdout", *gcnos[i:i + 32]],
                             cwd=build_dir, check=True, capture_output=True, text=True)
        docs += [json.loads(line) for line in out.stdout.splitlines() if line.strip()]
    sites, lines_all, lines_run = parse_gcov(docs, ROOT / "src")
    return ({s: i for s, i in sites.items() if not is_defaulted(s)}, lines_all, lines_run)


def describe(site, info):
    return f"{site.file}:{site.line} {', '.join(sorted(info.names))}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(ROOT / "build-coverage"))
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--skip-build", action="store_true",
                        help="reuse an already built coverage tree")
    args = parser.parse_args()
    build_dir = Path(args.build_dir).resolve()

    entries, errors = parse_allowlist(ALLOWLIST.read_text())
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    if not args.skip_build:
        build(build_dir, args.jobs)

    clear_counters(build_dir)
    failures = production_pass(build_dir, args.jobs)
    if failures:
        print("production runs failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    prod, lines_all, prod_lines = collect(build_dir)

    clear_counters(build_dir)
    subprocess.run(["ctest", "--test-dir", str(build_dir), "-j", str(args.jobs),
                    "-E", PRODUCTION_CTESTS, "--output-on-failure"], check=True)
    tests, _, test_lines = collect(build_dir)

    offenders, stale, unreached = compare(prod, tests, entries)
    only_tests = sum(1 for v in unreached.values() if v == "tests")
    print(f"\nsrc/ function sites: {len(prod)}; production reaches "
          f"{len(prod) - len(unreached)}, only unit tests {only_tests}, "
          f"nothing {len(unreached) - only_tests}")
    print(f"src/ lines: {len(lines_all)}; production runs "
          f"{len(prod_lines)}, only unit tests {len(test_lines - prod_lines)}, "
          f"nothing {len(lines_all - prod_lines - test_lines)}")
    print(f"allowlist: {len(entries)} entries excuse {len(unreached) - len(offenders)} sites")
    if offenders:
        print(f"\n{len(offenders)} src/ function site(s) no production run reaches:")
        for site in offenders:
            label = "only unit tests" if unreached[site] == "tests" else "nothing"
            print(f"  {describe(site, prod[site])}  [{label}]")
    if stale:
        print(f"\n{len(stale)} stale allowlist entr{'y' if len(stale) == 1 else 'ies'}:")
        for entry, why in stale:
            print(f"  line {entry.lineno}: {entry.file} {entry.function} ({why})")
    if offenders or stale:
        print("\nDelete the code, call it from production, or allowlist it with a reason.")
        return 1
    print("coverage gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
