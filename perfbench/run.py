#!/usr/bin/env python3
"""Build and run the SherLock end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 42 --seconds 20 --trace 0

Builds perfbench/bench.exe from source with dune (the shared dune cache is
off, so the build writes only under _build), then runs it with the same
arguments. Build output goes to standard error; the benchmark's standard
output, whose last line is the JSON result, passes through unchanged. The
exit code is the build's when it fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
