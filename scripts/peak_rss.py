#!/usr/bin/env python3
"""Runs a command and gates its peak resident set size.

    python3 scripts/peak_rss.py --max-mb 66 -- ./build/bench/scale_smoke

Prints the command's peak RSS (the largest of its process tree, as
getrusage(RUSAGE_CHILDREN) reports it) and exits 1 when it exceeds
--max-mb. The command's own exit code is passed through when it fails.
A child counts the pages it shares with this script between fork and
exec, so no reading falls below the script's own size (about 14 MiB).
"""

import argparse
import resource
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="fail when the peak RSS exceeds this (MiB)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    code = subprocess.run(command).returncode
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS: {peak_mb:.1f} MiB (ceiling {args.max_mb:.1f} MiB)")
    if code != 0:
        return code
    if peak_mb > args.max_mb:
        print(f"FAIL: peak RSS {peak_mb:.1f} MiB is above the ceiling",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
