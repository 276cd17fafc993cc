#!/bin/sh
# Regenerate (or reproduce) the golden mini-sweep baseline.
#
# The golden baseline is the committed report of a small, fully
# deterministic sweep; tests/test_diff.cc and the CI regression gate
# compare freshly produced reports against it with `pes_fleet diff
# --exact`. This script is the single CLI definition of that sweep —
# tests/test_diff.cc (GoldenBaseline.*) replicates the same parameters
# in-process, so keep the two in sync.
#
# A second, solver golden pins the schedule solver's bytes: a tiny
# pes,oracle sweep (tests/test_diff.cc, GoldenBaseline.Solver*). The
# first sweep runs model-free schedulers only and never calls it.
#
# Usage: tools/regen_golden.sh [OUT_JSON [OUT_CSV [OUT_TRACE
#                              [OUT_SOLVER_JSON [OUT_SOLVER_CSV]]]]]
#   PES_FLEET=path/to/pes_fleet   binary to use [build/pes_fleet]
#
# Run with no arguments (e.g. `cmake --build build --target
# regen-golden`) to overwrite the committed baseline after an
# INTENTIONAL result change; commit the new files with the change that
# caused them.
set -eu

out_json="${1:-tests/data/golden/mini_sweep.json}"
out_csv="${2:-tests/data/golden/mini_sweep.csv}"
out_trace="${3:-tests/data/golden/mini_sweep.trace.json}"
out_solver_json="${4:-tests/data/golden/solver_sweep.json}"
out_solver_csv="${5:-tests/data/golden/solver_sweep.csv}"
fleet="${PES_FLEET:-build/pes_fleet}"

"$fleet" \
    --schedulers=ebs,interactive \
    --apps=cnn,social_feed \
    --users=3 \
    --threads=4 \
    --seed=0xf1ee7 \
    --out="$out_json" \
    --csv="$out_csv" \
    --quiet >/dev/null

# The logical-clock trace golden: same mini sweep at --threads=1 (one
# worker drains the queue in canonical order, so every virtual tick is
# fully determined). tests/test_telemetry.cc
# (TraceSink.LogicalClockMatchesCommittedGolden) replicates this
# in-process — keep the two in sync.
"$fleet" run \
    --schedulers=ebs,interactive \
    --apps=cnn,social_feed \
    --users=3 \
    --threads=1 \
    --seed=0xf1ee7 \
    --logical-clock \
    --trace-out="$out_trace" \
    --quiet >/dev/null

# The solver golden: PES plans and the Oracle's whole-trace solves.
"$fleet" \
    --schedulers=pes,oracle \
    --apps=cnn \
    --users=2 \
    --threads=2 \
    --seed=0xf1ee7 \
    --out="$out_solver_json" \
    --csv="$out_solver_csv" \
    --quiet >/dev/null
