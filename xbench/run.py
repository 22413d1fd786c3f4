#!/usr/bin/env python3
"""Builds the xplain benchmark from source and runs one workload.

Run from the root of an xplain checkout:

    python3 xbench/run.py --workload natality_adhoc --seed 1 --seconds 30 --trace 0

The first call configures and builds xbench (and the xplain library it
links) under .bench_build/xbench; later calls only let CMake confirm the
build is current. Build output goes to standard error, so the last line of
standard output is the benchmark's result line. Every argument is passed on
to the xbench binary (see xbench/src/main.cc); --trace 1 writes the span
file to .bench_out/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "xbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("xbench: no xplain sources under %s/src; run from the root "
                 "of a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "xbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "xbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("xbench: build step failed: " + " ".join(step))


def main():
    build()
    done = subprocess.run([os.path.join(BUILD, "xbench")] + sys.argv[1:],
                          cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
