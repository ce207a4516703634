#!/usr/bin/env bash
# CI gate: crash-safe sweeps (docs/robustness.md).
#
# Proves, with the real binaries, the durable-execution properties the unit
# tests pin at the library layer:
#
#   1. kill-and-resume — an asbr-sweep SIGKILL'd mid-grid and resumed with
#      --resume must write a report byte-identical to the run that never
#      crashed, at --threads=1 and --threads=8;
#   2. torn-journal replay — appending garbage + a torn half-record to the
#      journal must not corrupt the resume (same byte-identity);
#   3. quarantine — a persistently failing job (1 ms wall-clock watchdog)
#      must land in the report's failed_jobs section with exit code 3, not
#      abort the grid, for a sweep cell and for a campaign's injections;
#      and the same kill-and-resume must hold for an asbr-faults campaign;
#   4. duplicate keys — a journaled grid whose cells repeat a job key runs
#      each key once at --threads=8, byte-identical to --threads=1;
#   5. twins — a journaled grid of distinct keys whose BIT sizes hold the
#      same branches simulates each machine once at --threads=8, journals
#      every key, and stays byte-identical to --threads=1;
#   6. pipeline-phase watchdog — a baseline job, which has no profile walk,
#      must trip its 50 ms wall-clock bound through the pipeline's poll:
#      exit 1 with one `job watchdog` line, in under a second.
#
# The kill lands mid-run by construction: each run is SIGKILL'd as soon as
# its journal records the first completed job, and the grid has more jobs
# than the 8-thread pass has workers, so work is still pending then.  The
# journal is still required to be non-empty and the report unwritten at the
# moment of death (otherwise the test degenerates).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
SWEEP="$BUILD_DIR/tools/asbr-sweep"
FAULTS="$BUILD_DIR/tools/asbr-faults"
STATS="$BUILD_DIR/tools/asbr-stats"

for tool in "$SWEEP" "$FAULTS" "$STATS"; do
    if [[ ! -x "$tool" ]]; then
        echo "ci/resume.sh: $tool not built; run cmake --build first" >&2
        exit 1
    fi
done

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
status=0

# 16 adpcm-enc/dec cells at 30k samples: twice the workers of the
# --threads=8 pass.
SWEEP_ARGS=(--adpcm=30000 --workloads=adpcm-enc,adpcm-dec
            --predictors=bimodal,gshare --bits=2,4,8 --baseline --seed=2001)

# SIGKILL run $1 once journal $2 records its first completed job (or the
# run exits on its own), and reap it.
kill_at_first_done() {
    local pid=$1 journal=$2
    for _ in $(seq 1200); do
        grep -qs '"status":"done"' "$journal" && break
        kill -0 "$pid" 2> /dev/null || break
        sleep 0.05
    done
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
}

echo "--- one-shot reference (serial)"
"$SWEEP" "${SWEEP_ARGS[@]}" --threads=1 --json="$tmpdir/oneshot.json" \
    > /dev/null 2>&1

for threads in 1 8; do
    dir="$tmpdir/journal_t$threads"
    echo "--- kill-and-resume at --threads=$threads"
    "$SWEEP" "${SWEEP_ARGS[@]}" --threads=$threads --journal="$dir" \
        --json="$tmpdir/never_t$threads.json" > /dev/null 2>&1 &
    kill_at_first_done $! "$dir/journal.jsonl"

    if [[ ! -s "$dir/journal.jsonl" ]]; then
        echo "FAIL: journal empty at the kill — it landed before any work" >&2
        status=1
        continue
    fi
    if [[ -f "$tmpdir/never_t$threads.json" ]]; then
        echo "FAIL: sweep finished before the kill — grid too small to" \
             "exercise resume" >&2
        status=1
        continue
    fi

    if [[ $threads -eq 8 ]]; then
        # Torn-journal replay: garbage + a half-written record must be
        # skipped, not parsed into state.
        printf 'definitely not json\n{"status":"done","jobKey":"x","att' \
            >> "$dir/journal.jsonl"
    fi

    if ! "$SWEEP" "${SWEEP_ARGS[@]}" --threads=$threads --journal="$dir" \
            --resume --json="$tmpdir/resumed_t$threads.json" \
            > /dev/null 2> "$tmpdir/resume.log"; then
        echo "FAIL: --resume run failed:" >&2
        cat "$tmpdir/resume.log" >&2
        status=1
        continue
    fi
    if ! grep -q 'resumed' "$tmpdir/resume.log"; then
        echo "FAIL: resume log never mentions resumed jobs" >&2
        status=1
    fi
    if ! cmp -s "$tmpdir/oneshot.json" "$tmpdir/resumed_t$threads.json"; then
        echo "FAIL: resumed sweep differs from the one-shot run at" \
             "--threads=$threads:" >&2
        diff "$tmpdir/oneshot.json" "$tmpdir/resumed_t$threads.json" \
            | head -20 >&2
        status=1
    else
        echo "ok: resumed sweep byte-identical at --threads=$threads"
    fi
    "$STATS" validate "$tmpdir/resumed_t$threads.json" > /dev/null || {
        echo "FAIL: resumed sweep report does not validate" >&2
        status=1
    }
done

# ------------------------------------------------------ duplicate keys ---
# adpcm-enc's paper BIT size is 4, so --bits=0,4 gives 16 cells but only 8
# job keys; each key must run (and write its journal artifact) once.
echo "--- duplicate job keys at --threads=8"
DUP_ARGS=(--workloads=adpcm-enc --bits=0,4 --stages=ex_end,commit
          --predictors=bimodal,gshare,tage,perceptron --quick)
"$SWEEP" "${DUP_ARGS[@]}" --threads=1 --json="$tmpdir/dup_t1.json" \
    > /dev/null 2>&1
if ! "$SWEEP" "${DUP_ARGS[@]}" --threads=8 --journal="$tmpdir/dupj" \
        --json="$tmpdir/dup_t8.json" > /dev/null 2> "$tmpdir/dup.log"; then
    echo "FAIL: duplicate-key sweep failed:" >&2
    cat "$tmpdir/dup.log" >&2
    status=1
else
    done_records=$(grep -c '"status":"done"' "$tmpdir/dupj/journal.jsonl" \
                   || true)
    done_keys=$(grep -o '"status":"done","jobKey":"[^"]*"' \
                "$tmpdir/dupj/journal.jsonl" | sort -u | wc -l)
    if [[ $done_records -ne 8 || $done_keys -ne 8 ]]; then
        echo "FAIL: want one done record for each of 8 keys, got" \
             "$done_records record(s) for $done_keys key(s)" >&2
        status=1
    elif ! cmp -s "$tmpdir/dup_t1.json" "$tmpdir/dup_t8.json"; then
        echo "FAIL: duplicate-key sweep differs between --threads=1 and 8:" >&2
        diff "$tmpdir/dup_t1.json" "$tmpdir/dup_t8.json" | head -20 >&2
        status=1
    else
        echo "ok: 16 cells, 8 keys, one done record each, byte-identical"
    fi
    "$STATS" validate "$tmpdir/dup_t8.json" > /dev/null || {
        echo "FAIL: duplicate-key sweep report does not validate" >&2
        status=1
    }
fi

# ----------------------------------------------------------------- twins ---
# adpcm-dec's paper BIT size is 3 and g711-enc's is 8, so --bits=0,4 gives 16
# distinct job keys; on both codecs the two BIT sizes hold the same branches,
# so the 16 cells are 8 machines: 8 simulated, 8 shared.
echo "--- twin cells at --threads=8"
TWIN_ARGS=(--workloads=adpcm-dec,g711-enc --bits=0,4 --stages=ex_end,commit
           --predictors=bimodal,tage --quick)
"$SWEEP" "${TWIN_ARGS[@]}" --threads=1 --json="$tmpdir/twin_t1.json" \
    > /dev/null 2>&1
if ! "$SWEEP" "${TWIN_ARGS[@]}" --threads=8 --journal="$tmpdir/twinj" \
        --json="$tmpdir/twin_t8.json" > /dev/null 2> "$tmpdir/twin.log"; then
    echo "FAIL: twin sweep failed:" >&2
    cat "$tmpdir/twin.log" >&2
    status=1
else
    done_keys=$(grep -o '"status":"done","jobKey":"[^"]*"' \
                "$tmpdir/twinj/journal.jsonl" | sort -u | wc -l)
    if [[ $done_keys -ne 16 ]]; then
        echo "FAIL: want a done record for each of 16 keys, got $done_keys" >&2
        status=1
    elif ! grep -q '^engine: 8 job(s), 8 shared,' "$tmpdir/twin.log"; then
        echo "FAIL: want 8 jobs run and 8 shared on the engine line:" >&2
        grep '^engine:' "$tmpdir/twin.log" >&2
        status=1
    elif ! cmp -s "$tmpdir/twin_t1.json" "$tmpdir/twin_t8.json"; then
        echo "FAIL: twin sweep differs between --threads=1 and 8:" >&2
        diff "$tmpdir/twin_t1.json" "$tmpdir/twin_t8.json" | head -20 >&2
        status=1
    else
        echo "ok: 16 cells, 16 keys, 8 runs shared, byte-identical"
    fi
    "$STATS" validate "$tmpdir/twin_t8.json" > /dev/null || {
        echo "FAIL: twin sweep report does not validate" >&2
        status=1
    }
fi

# ------------------------------------------------------------ quarantine ---
echo "--- quarantine (1 ms wall-clock watchdog)"
set +e
"$SWEEP" --workloads=g721-enc --bits=2 --g721=20000 --job-timeout=1 \
    --max-attempts=2 --journal="$tmpdir/qj" --json="$tmpdir/q.json" \
    > /dev/null 2> "$tmpdir/q.log"
code=$?
set -e
if [[ $code -ne 3 ]]; then
    echo "FAIL: quarantined sweep exited $code, want 3:" >&2
    cat "$tmpdir/q.log" >&2
    status=1
elif ! grep -q '"failed_jobs"' "$tmpdir/q.json" \
        || ! grep -q 'job watchdog' "$tmpdir/q.json"; then
    echo "FAIL: quarantined job missing from the report's failed_jobs" >&2
    status=1
else
    echo "ok: watchdogged job quarantined into failed_jobs (exit 3)"
fi
"$STATS" validate "$tmpdir/q.json" > /dev/null || {
    echo "FAIL: quarantine report does not validate" >&2
    status=1
}

echo "--- campaign quarantine (1 ms wall-clock watchdog)"
set +e
"$FAULTS" campaign --bench=g721-enc --quick --injections=4 --job-timeout=1 \
    --max-attempts=2 --json="$tmpdir/fq.json" > /dev/null 2> "$tmpdir/fq.log"
code=$?
set -e
if [[ $code -ne 3 ]]; then
    echo "FAIL: quarantined campaign exited $code, want 3:" >&2
    cat "$tmpdir/fq.log" >&2
    status=1
elif ! grep -q '"failed_jobs"' "$tmpdir/fq.json" \
        || ! grep -q 'job watchdog' "$tmpdir/fq.json"; then
    echo "FAIL: quarantined injections missing from the report's" \
         "failed_jobs" >&2
    status=1
else
    echo "ok: watchdogged injections quarantined into failed_jobs (exit 3)"
fi
"$FAULTS" validate "$tmpdir/fq.json" > /dev/null || {
    echo "FAIL: campaign quarantine report does not validate" >&2
    status=1
}

# ------------------------------------------------ pipeline-phase watchdog ---
# A baseline run resolves no profile walk, so only the cycle loop's poll can
# see the deadline pass; a long G.721 input keeps it simulating well past it.
echo "--- pipeline-phase watchdog (50 ms wall-clock bound)"
set +e
start_ns=$(date +%s%N)
"$STATS" run --bench=g721-enc --g721=40000 --job-timeout=50 \
    > /dev/null 2> "$tmpdir/wd.log"
code=$?
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
set -e
if [[ $code -ne 1 ]]; then
    echo "FAIL: watchdogged run exited $code, want 1:" >&2
    cat "$tmpdir/wd.log" >&2
    status=1
elif [[ $(grep -c 'job watchdog' "$tmpdir/wd.log") -ne 1 ]]; then
    echo "FAIL: want one 'job watchdog' line from the watchdogged run:" >&2
    cat "$tmpdir/wd.log" >&2
    status=1
elif [[ $elapsed_ms -ge 1000 ]]; then
    echo "FAIL: watchdogged run took ${elapsed_ms} ms, want under 1000" >&2
    status=1
else
    echo "ok: pipeline poll tripped the job watchdog in ${elapsed_ms} ms"
fi

# ----------------------------------------------- fault-campaign resume -----
echo "--- fault-campaign kill-and-resume"
CAMPAIGN_ARGS=(campaign --bench=g721-enc --quick --injections=24
               --fault-seed=11)
"$FAULTS" "${CAMPAIGN_ARGS[@]}" --json="$tmpdir/fc_oneshot.json" \
    > /dev/null 2>&1
"$FAULTS" "${CAMPAIGN_ARGS[@]}" --journal="$tmpdir/fcj" \
    --json="$tmpdir/fc_never.json" > /dev/null 2>&1 &
kill_at_first_done $! "$tmpdir/fcj/journal.jsonl"

if [[ -f "$tmpdir/fc_never.json" ]]; then
    echo "note: campaign finished before the kill; resume degenerates to" \
         "full splice (still byte-checked)" >&2
fi
if ! "$FAULTS" "${CAMPAIGN_ARGS[@]}" --journal="$tmpdir/fcj" --resume \
        --json="$tmpdir/fc_resumed.json" > /dev/null 2>&1; then
    echo "FAIL: campaign --resume failed" >&2
    status=1
elif ! cmp -s "$tmpdir/fc_oneshot.json" "$tmpdir/fc_resumed.json"; then
    echo "FAIL: resumed campaign differs from the one-shot run:" >&2
    diff "$tmpdir/fc_oneshot.json" "$tmpdir/fc_resumed.json" | head -20 >&2
    status=1
else
    echo "ok: resumed fault campaign byte-identical"
fi
"$FAULTS" validate "$tmpdir/fc_resumed.json" > /dev/null || {
    echo "FAIL: resumed fault report does not validate" >&2
    status=1
}

if [[ $status -eq 0 ]]; then
    echo "ok: SIGKILL'd sweeps and campaigns resume byte-identically;" \
         "poisoned jobs quarantine instead of aborting"
fi
exit $status
