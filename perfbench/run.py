#!/usr/bin/env python3
"""Build and run the perf-taint end-to-end benchmark.

Run from the root of a perf-taint checkout:

    python3 perfbench/run.py --workload model-e2e --seed 1 --seconds 20 --trace 0

Workloads: model-e2e, taint-sweep, serve-mix (see perfbench/NOTES.md).
The driver is built with dune into the checkout's _build directory, then
run with the given arguments.  Its last stdout line is the JSON result;
the exit code is nonzero when the build fails or an output check fails.
Traces and scratch catalogs go to .perfbench/ in the checkout.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def dune_command():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: %s is not a perf-taint checkout" % ROOT)
    dune = dune_command()
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    # Keep every build artifact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/e2e.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "e2e.exe")
    args = sys.argv[1:] + [
        "--golden", os.path.join(HERE, "golden.txt"),
        "--out", os.path.join(ROOT, ".perfbench"),
    ]
    sys.stdout.flush()
    result = subprocess.run([exe] + args, cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
