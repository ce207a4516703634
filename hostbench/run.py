#!/usr/bin/env python3
"""Build the host-time benchmark from source, then run one workload.

Usage, from the repository root:

    python3 hostbench/run.py --workload cold-asbr|warm-sweep|sampled-sweep \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/hostbench (default .bench_build) and its
log to stderr.  The benchmark's report goes to stdout; its last line is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is non-zero, and no JSON line is printed, when the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-asbr", "warm-sweep", "sampled-sweep")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then (re)build; returns the binary's path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(target, "hostbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"hostbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pins", os.path.join(HERE, "pins.txt")]
    try:
        # On timeout, run() kills the benchmark and waits for it to exit.
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hostbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if result.returncode != 0:
        print(f"hostbench: exited with {result.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
