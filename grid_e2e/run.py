#!/usr/bin/env python3
"""Builds the grid_e2e benchmark from source and runs it.

    python3 grid_e2e/run.py --workload batch_backlog --seed 1 --seconds 20 --trace 0
    python3 grid_e2e/run.py --test      # build and run the benchmark's own tests

All arguments except --test go to the grid_e2e binary (see grid_e2e/README.md).
The build lives in .bench_build/grid_e2e under the repository root and is
incremental, so only the first run compiles. Build output goes to stderr;
the benchmark's result is the last line of stdout.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "grid_e2e")
BUILD = os.path.join(ROOT, ".bench_build", "grid_e2e")
JOBS = str(min(4, os.cpu_count() or 1))


def run_quiet(cmd):
    """Runs a build step; on failure shows its output and exits non-zero."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("grid_e2e: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("grid_e2e: no crossgrid sources under %s\n" % ROOT)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure)
    run_quiet(["cmake", "--build", BUILD, "--target", target, "-j", JOBS])


def main():
    args = sys.argv[1:]
    if args == ["--test"]:
        build("grid_e2e_test")
        return subprocess.run(["ctest", "--test-dir", BUILD, "--output-on-failure"],
                              cwd=ROOT).returncode
    build("grid_e2e")
    return subprocess.run([os.path.join(BUILD, "grid_e2e")] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
