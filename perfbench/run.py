#!/usr/bin/env python3
"""Builds and runs the same-host benchmark (perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload map_smalln --seed 1 --seconds 20 --trace 0

The first call configures and compiles perfbench/CMakeLists.txt (which
compiles the repository's libraries from src/) into .bench_build/perfbench;
later calls only re-check the build. The driver binary then runs the
workload and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. Build output goes to
standard error so that standard output stays machine-readable.

Exit status is 0 only when the build succeeded, the driver exited 0 and its
last line is a well-formed result. Without the library sources (a directory
holding only the benchmark) the script exits 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ffc_perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--negative-control", action="store_true",
                        help="feed every oracle a wrong expected value; the "
                             "run must then report failures")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark (expected src/ at the "
             "checkout root)", code=2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "ffc_perfbench",
                "-j", jobs], BUILD_TIMEOUT_S)


def commit_id():
    """The git commit when the checkout is a repository, else 'unknown'."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and driver sources: identifies the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "driver")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def main(argv):
    args = parse_args(argv)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--src-digest", source_digest(),
           "--out-dir", os.path.join(BUILD_DIR, "results")]
    if args.negative_control:
        cmd.append("--negative-control")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"driver exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"malformed result keys {sorted(result)}")
    sys.stdout.write(done.stdout if done.stdout.endswith("\n")
                     else done.stdout + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
