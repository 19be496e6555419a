#!/usr/bin/env python3
"""Builds the EGACS benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload rmat-push --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The driver is compiled with CMake into
.bench_build/perfbench against the repository's default configuration (the
first run builds the library, a few minutes on four cores; later runs only
check that it is up to date). Every argument is passed to the driver, which
prints a fingerprint, a metric table and, as its last line, one JSON object.
See perfbench/METRICS.md for the workloads and metrics.

Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
BUILD_LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    with open(BUILD_LOG, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return True
    with open(BUILD_LOG) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.stderr.write("perfbench: build failed (log: %s)\n" % BUILD_LOG)
    return False


def main():
    if not build():
        return 1
    # The same argv[0] wherever the checkout is: the driver's peak_rss_mb
    # moves by up to 12 % with the program name it is started under (66 vs
    # 74 MB on road-push), while the path of the executable does not move it.
    try:
        return subprocess.run(["perfbench_driver"] + sys.argv[1:],
                              executable=DRIVER, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
