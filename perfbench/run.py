#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the checkout. The first run configures and builds
`.bench_build/` (CMake, Release); later runs rebuild incrementally. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero without a result when the library
sources are missing or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rlc_bench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "rlc")):
        print("run.py: library sources (src/rlc) not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "rlc_bench", "-j",
                  jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD, "run-" + args.workload)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
