#!/usr/bin/env python3
"""Serve benchmark entry point.

Builds `nettomo` and the benchmark driver from the source tree this
file sits in, then runs one workload:

    python3 perfbench/run.py --workload core-churn --seed 1 --seconds 24 --trace 0

All arguments are passed on to the driver (perfbench/src/perfbench_main.ml);
see perfbench/README.md. Build output goes to standard error, so the last
line of standard output is the driver's JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER = "perfbench/src/perfbench_main.exe"
# Sources the benchmark builds; without them there is nothing to measure.
REQUIRED = ["dune-project", "bin/nettomo.ml", "lib/engine/server.ml"]


def main():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write(
            "perfbench: not a nettomo source tree (missing %s)\n" % ", ".join(missing)
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/nettomo.exe", "./" + DRIVER],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    work = os.path.join("perfbench", ".work", "run-%d" % os.getpid())
    cmd = [
        os.path.join("_build", "default", DRIVER),
        "--exe",
        os.path.join(ROOT, "_build", "default", "bin", "nettomo.exe"),
        "--work",
        work,
    ] + sys.argv[1:]
    # The driver and the servers it spawns share one process group, so a
    # timeout or a stop request can end them all.
    driver = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def kill():
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    def stop(signum, _frame):
        kill()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return driver.wait(timeout=175)
    except subprocess.TimeoutExpired:
        kill()
        sys.stderr.write("perfbench: driver timed out\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
