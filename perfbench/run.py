#!/usr/bin/env python3
"""Build (on first use) and run the IceBreaker end-to-end benchmark.

    python3 perfbench/run.py --workload azure-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. It configures perfbench/CMakeLists.txt
in Release mode under .bench_build/perfbench, builds the benchmark and
the repository libraries it links, then runs one workload. The last line
of standard output is the benchmark's JSON result; build output goes to
standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_e2e")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no IceBreaker sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_e2e"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
