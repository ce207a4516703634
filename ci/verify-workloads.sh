#!/usr/bin/env bash
# CI gate for the static tools and the committed golden reports:
#
#   1. fixture lints: asbr-verify must verify every legal fixture in
#      tests/fixtures/ clean and flag every illegal_* one (an Illegal
#      verdict, BIT conflict or BranchInfo inconsistency exits nonzero);
#   2. golden reports: the command of every GOLDENS entry below must
#      produce a schema-valid document that reproduces its committed file in
#      tests/golden/ byte for byte;
#   3. the jalr dispatch fixture must stay resolved and WCET-bounded;
#   4. ci/faults.sh (fault-campaign goldens) and ci/resume.sh (crash safety).
#
# `ci/verify-workloads.sh --regen` runs steps 2-3 only and installs each
# validated document over its golden instead of diffing it — the way
# ci/regen-goldens.sh regenerates these families after an intentional change.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
VERIFY="$BUILD_DIR/tools/asbr-verify"
STATS="$BUILD_DIR/tools/asbr-stats"
GOLDEN_DIR=tests/golden

for tool in "$VERIFY" "$STATS" "$BUILD_DIR/tools/asbr-sweep"; do
    if [[ ! -x "$tool" ]]; then
        echo "ci/verify-workloads.sh: $tool not built; run cmake --build first" >&2
        exit 1
    fi
done

regen=0
[[ "${1:-}" == "--regen" ]] && regen=1

# Each golden report and the one command that produces it (a tool in
# $BUILD_DIR/tools, @OUT@ = the output path).  Every document holds only
# integers, strings and bools, so it is a pure function of its command line
# at any --threads value:
#   analysis_*  the static fold-legality analysis of the two paper encoders
#   wcet_*      the WCET pipeline: cost model, loop bounds, solver, cost-aware
#               selection and the measured soundness check
#   ipa_*       SSA construction, SCCP, value-set resolution and call-graph
#               summaries; the jalr fixture is the resolution showcase
#   sampling_*  one sampled run with its full reference: the decode-cached
#               pipeline, fast-forward, window scheduler and error-bound math
#   sweep_*     the predictor registry token path through the driver, the
#               per-family metrics and the selection artifacts
GOLDENS=(
    "analysis_adpcm_enc.json asbr-verify analyze --bench=adpcm-enc --quiet --out=@OUT@"
    "analysis_g721_enc.json asbr-verify analyze --bench=g721-enc --quiet --out=@OUT@"
    "wcet_adpcm_enc.json asbr-verify wcet --bench=adpcm-enc --samples=256 --seed=2001 --threads=2 --quiet --out=@OUT@"
    "wcet_g721_enc.json asbr-verify wcet --bench=g721-enc --samples=256 --seed=2001 --threads=2 --quiet --out=@OUT@"
    "ipa_adpcm_enc.json asbr-verify ipa --bench=adpcm-enc --quiet --out=@OUT@"
    "ipa_g721_enc.json asbr-verify ipa --bench=g721-enc --quiet --out=@OUT@"
    "ipa_jalr_dispatch.json asbr-verify ipa tests/fixtures/jalr_dispatch.s --quiet --out=@OUT@"
    "sampling_adpcm_enc.json asbr-stats run --bench=adpcm-enc --quick --sample=2000:10000:60000 --sample-ref --asbr --json=@OUT@"
    "sweep_predictors.json asbr-sweep --quick --workloads=adpcm-enc --predictors=bimodal,tage,perceptron --bits=4 --baseline --threads=2 --json=@OUT@"
)

status=0
if [[ $regen -eq 0 ]]; then
    for fixture in tests/fixtures/*.s; do
        base=$(basename "$fixture")
        if [[ "$base" == illegal_* ]]; then
            if "$VERIFY" "$fixture" --all --no-schedule --quiet; then
                echo "FAIL: $fixture should have been flagged Illegal" >&2
                status=1
            else
                echo "ok: $fixture flagged as expected"
            fi
        else
            if "$VERIFY" "$fixture" --all --no-schedule --quiet; then
                echo "ok: $fixture verified clean"
            else
                echo "FAIL: $fixture should verify clean" >&2
                status=1
            fi
        fi
    done
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
for entry in "${GOLDENS[@]}"; do
    read -r golden tool args <<< "$entry"
    out="$tmpdir/$golden"
    read -ra argv <<< "${args//@OUT@/$out}"
    if ! "$BUILD_DIR/tools/$tool" "${argv[@]}" > "$tmpdir/log" 2>&1; then
        echo "FAIL: $tool ${argv[*]} failed:" >&2
        cat "$tmpdir/log" >&2
        status=1
    elif ! "$STATS" validate "$out" > /dev/null 2>&1; then
        echo "FAIL: $tool ${argv[*]} wrote a document that does not" \
             "validate against its schema" >&2
        status=1
    elif [[ $regen -eq 1 ]]; then
        cp "$out" "$GOLDEN_DIR/$golden"
        echo "regenerated $GOLDEN_DIR/$golden"
    elif ! diff -q "$GOLDEN_DIR/$golden" "$out" > /dev/null; then
        echo "FAIL: $GOLDEN_DIR/$golden drifted from: $tool $args" >&2
        diff "$GOLDEN_DIR/$golden" "$out" | head -20 >&2
        status=1
    else
        echo "ok: $GOLDEN_DIR/$golden reproduced bit-for-bit and validated"
    fi
done

# The resolved dispatch-table call must keep the fixture WCET-bounded (the
# acceptance bar for the value-set resolution: previously this program was
# rejected with "indirect control flow").
if ! python3 - "$tmpdir/ipa_jalr_dispatch.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["wcet"]["bounded"], doc["wcet"]
assert doc["resolution"]["resolved_calls"] == 1, doc["resolution"]
assert len(doc["resolution"]["sites"][0]["targets"]) == 2, doc["resolution"]
EOF
then
    echo "FAIL: jalr dispatch fixture lost its bounded WCET or resolution" >&2
    status=1
else
    echo "ok: jalr dispatch fixture is resolved and WCET-bounded"
fi

if [[ $regen -eq 0 ]]; then
    # The fault-injection regression rides along with the workload gate: the
    # same build tree, the same committed goldens (see ci/faults.sh).
    ci/faults.sh || status=1

    # Crash-safety: SIGKILL'd sweeps/campaigns must resume byte-identically
    # and poisoned jobs must quarantine instead of aborting (ci/resume.sh).
    ci/resume.sh || status=1
fi

exit $status
