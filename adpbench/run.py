#!/usr/bin/env python3
"""Builds the ADP serving benchmark from source and runs one workload.

Usage (from the repository root):

    python3 adpbench/run.py --workload solve_mix --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/adpbench (default .bench_build/adpbench,
relative to the working directory) as a CMake Release build; later runs
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. Extra arguments are passed to
the driver (`--selftest` runs only the benchmark's self-tests).
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("adpbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src", "engine", "engine.h")):
        fail("the ADP sources (src/) are missing next to " + BENCH_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "adpbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "adpbench")
    binary = build(build_dir)
    spans = os.path.join(build_dir, "spans")
    os.makedirs(spans, exist_ok=True)
    args = [binary] + sys.argv[1:] + ["--span-dir", spans]
    sys.stdout.flush()
    r = subprocess.run(args)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
