#!/usr/bin/env bash
# Host-time trajectory: run hostbench's two BENCHMARK.json workloads
# (warm-sweep, sampled-sweep) on the default input seed (1) and the
# held-out seed (2), and append one record per (commit, workload, seed) to
# the committed BENCH_host.json.  A record holds the median and the
# interquartile range of every end-to-end metric over the runs, plus the
# failed and attempted job counts summed over them.
#
# Usage: ci/perf.sh [CHECKOUT...]
#
#   CHECKOUT  a git checkout to measure (default: this repository).  Given
#             several, the runs alternate between them — checkout innermost,
#             then seed, then workload, five rounds — and every other round
#             runs the checkouts in reverse order, so that neither load from
#             neighbours on the host nor going first favours one checkout.
#             Pass a change and a clone of its parent to compare them pair
#             by pair.
#
# Each run lasts BENCHMARK.json's run_seconds.  PERF_OUT names the file to
# append to (default BENCH_host.json).
#
# A record's commit is `git describe --always --dirty` of its checkout, so
# uncommitted work is marked as such.  Every run's own result line goes to
# stderr, so pairs can be compared run by run from the log.  The script
# only calls `python3 hostbench/run.py` in each checkout; hostbench itself
# stays as it is.  Any failed run or failed job makes the script exit
# non-zero after the records are written.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
OUT=${PERF_OUT:-$ROOT/BENCH_host.json}

if (( $# == 0 )); then set -- "$ROOT"; fi

python3 - "$OUT" "$@" <<'PY'
import json
import os
import statistics
import subprocess
import sys

out = sys.argv[1]
checkouts = [os.path.abspath(c) for c in sys.argv[2:]]
RUNS = 5
WORKLOADS = ("warm-sweep", "sampled-sweep")
SEEDS = (1, 2)


def describe(checkout):
    return subprocess.run(
        ["git", "-C", checkout, "describe", "--always", "--dirty"],
        check=True, capture_output=True, text=True).stdout.strip()


def run_once(checkout, workload, seed):
    """One hostbench run; its result line, or None when the run failed."""
    command = ["python3", "hostbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    result = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                            text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


commits = {c: describe(c) for c in checkouts}
with open(os.path.join(checkouts[0], "BENCHMARK.json")) as f:
    benchmark = json.load(f)
end_to_end = [m["name"] for m in benchmark["end_to_end"]]
seconds = str(benchmark["run_seconds"])

samples = {}
for r in range(RUNS):
    order = checkouts if r % 2 == 0 else checkouts[::-1]
    for workload in WORKLOADS:
        for seed in SEEDS:
            for checkout in order:
                result = run_once(checkout, workload, seed)
                samples.setdefault((checkout, workload, seed), []).append(result)
                status = "failed" if result is None else json.dumps(result)
                print(f"ci/perf.sh: run {r + 1}/{RUNS} {commits[checkout]} "
                      f"{workload} seed {seed}: {status}", file=sys.stderr)

history = []
if os.path.exists(out):
    with open(out) as f:
        history = json.load(f)
ok = True
for (checkout, workload, seed), results in samples.items():
    good = [r for r in results if r is not None]
    record = {
        "commit": commits[checkout],
        "workload": workload,
        "seed": seed,
        "runs": len(results),
        "failed_runs": len(results) - len(good),
        "attempted": sum(r["attempted"] for r in good),
        "failed": sum(r["failed"] for r in good),
        "metrics": {},
    }
    if len(good) >= 2:
        for name in end_to_end:
            median, iqr = quartiles([r["metrics"][name]["value"] for r in good])
            record["metrics"][name] = {
                "median": round(median, 6), "iqr": round(iqr, 6),
                "unit": good[0]["metrics"][name]["unit"]}
    ok = ok and record["failed_runs"] == 0 and record["failed"] == 0
    history.append(record)
    print(json.dumps(record))
with open(out, "w") as f:
    json.dump(history, f, indent=2)
    f.write("\n")
sys.exit(0 if ok else 1)
PY
