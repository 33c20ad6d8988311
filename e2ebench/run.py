#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every call configures and builds the library
sources and the benchmark binary under .bench_build/e2ebench (after the
first call only what changed is rebuilt); build output goes to stderr.
The binary then runs the workload with its fixtures under
.bench_build/e2e-work, and its standard output -- whose last line is the
JSON result -- passes through unchanged. The exit code is the binary's, or
1 when the build fails or the run exceeds its time limit.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "e2e-work")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "e2e", "-j", "4"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def main(argv):
    try:
        if not build():
            print("run.py: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    try:
        done = subprocess.run([os.path.join(BUILD, "e2e")] + argv +
                              ["--workdir", WORK], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: workload exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
