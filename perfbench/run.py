#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-budget, prove, lp-file (the three in BENCHMARK.json), and
prove-j2 (see WORKLOADS.md for why it is left out).  The script builds
perfbench/main.exe with dune (build output goes to standard error) and runs
it with the given arguments; the program prints its result as the last
line of standard output and exits non-zero when a check fails.
"""
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    needed = ["dune-project", "lib", os.path.join("perfbench", "main.ml")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: not a source checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
