#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload optimize|corun|serve \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/ (dune's build directory for this
benchmark, apart from the repository's own _build/). The pool width is
pinned to the cores this process may run on (what `nproc` reports) and
passed on as --jobs. Exit status is the benchmark's; a checkout without
the repository's sources fails before printing any result.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: no dune-project and lib/ here; run from the repository root\n")
        return 2
    dune = find_dune()
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    jobs = len(os.sched_getaffinity(0))
    return subprocess.run([exe] + argv + ["--jobs", str(jobs)]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
