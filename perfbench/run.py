#!/usr/bin/env python3
"""Build and run the whole-system benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload experiment|analyze|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds the repository's libraries, the
phase_serve frontend and the benchmark harness under .bench_build/ in the
checkout; later calls only re-check that build. Build output goes to
stderr, so the last line of stdout is always the benchmark's JSON result.
Exits non-zero without printing a result when the build fails, e.g. when
the repository sources are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def build(targets):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main(argv):
    if argv == ["--selftest"]:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not build(["perfbench", "phase_serve"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "perfbench"), *argv,
               "--phase-serve", os.path.join(BUILD, "phase_serve"),
               "--work-dir", WORK]
    # Inputs kept between runs are made in a process of their own, so the
    # measured run never pays for them, in time or in peak memory.
    prepare = subprocess.run(command + ["--prepare", "1"])
    if prepare.returncode != 0:
        return prepare.returncode
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
