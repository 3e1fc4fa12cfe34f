#!/usr/bin/env bash
# Run the forest-training bench and write the machine-readable summary
# to BENCH_train.json (override with BENCH_TRAIN_OUT).
#
# Set BENCH_SMOKE=1 for a quick CI-sized run: tiny datasets, few trees,
# one timing iteration — it exercises the full bench path (both
# splitters, JSON emission) in a few seconds without producing
# publication-grade numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="BENCH_train.json"
out="${BENCH_TRAIN_OUT:-$baseline}"

# The bench writes to a fresh file (an absolute path, so it does not
# depend on the directory cargo runs benches in) that is copied to
# `$out` from the repository root.
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT
BENCH_TRAIN_OUT="$fresh" cargo bench -p strudel-bench --bench train

if [[ ! -s "$fresh" ]]; then
  echo "error: bench did not write its summary" >&2
  exit 1
fi

# A smoke run never replaces the baseline (its numbers are not
# publication-grade); write it out only when the caller asked for an
# explicit destination.
if [[ "${BENCH_SMOKE:-0}" == "1" && -z "${BENCH_TRAIN_OUT:-}" ]]; then
  echo "--- smoke summary (baseline $baseline left untouched) ---"
  cat "$fresh"
  exit 0
fi

cp "$fresh" "$out"
echo "--- $out ---"
cat "$out"
