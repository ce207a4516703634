#!/usr/bin/env bash
# Regenerate every committed golden report in tests/golden/ in one
# deterministic pass — the single intentional-change workflow the CI gates
# point at.  Each gate owns its golden commands and regenerates them with
# `--regen`, so a clean regen immediately re-passes CI:
#
#   analysis_*, wcet_*, ipa_*,   ci/verify-workloads.sh --regen
#   sampling_*, sweep_*
#   fault_*                      ci/faults.sh --regen
#
# Every document is schema-validated before it replaces the golden.  Run
# from anywhere; requires a completed `cmake --build build`.
set -euo pipefail

cd "$(dirname "$0")/.."
ci/verify-workloads.sh --regen
ci/faults.sh --regen

echo "ci/regen-goldens.sh: all golden families regenerated"
