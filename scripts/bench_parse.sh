#!/usr/bin/env bash
# Run the parse-stage bench and write the machine-readable summary to
# BENCH_parse.json (override with BENCH_PARSE_OUT).
#
# When a committed BENCH_parse.json baseline exists, the run is gated:
# the fresh headlines `speedup_scan_vs_legacy` and `pipeline_speedup`
# (same-machine ratios, so comparable across hosts) must not regress
# more than 20% below the baseline's. The baseline file is only
# overwritten after the gates pass.
#
# Set BENCH_SMOKE=1 for a quick CI-sized run: 1 MiB workloads and few
# timing iterations — it exercises the full bench path (all three parse
# paths, JSON emission, the regression gate) in seconds without
# producing publication-grade numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="BENCH_parse.json"
out="${BENCH_PARSE_OUT:-$baseline}"

fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT
BENCH_PARSE_OUT="$fresh" cargo bench -p strudel-bench --bench parse

if [[ ! -s "$fresh" ]]; then
  echo "error: bench did not write its summary" >&2
  exit 1
fi

field_of() {
  sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" "$1"
}

# Gate a fresh headline against 80% of the committed baseline's value.
gate_ratio() {
  local name="$1"
  local new base floor ok
  new="$(field_of "$fresh" "$name")"
  if [[ -z "$new" ]]; then
    echo "error: no $name in bench output" >&2
    exit 1
  fi
  if [[ -f "$baseline" ]]; then
    base="$(field_of "$baseline" "$name")"
    if [[ -n "$base" ]]; then
      floor="$(awk -v b="$base" 'BEGIN { printf "%.3f", b * 0.8 }')"
      ok="$(awk -v n="$new" -v f="$floor" 'BEGIN { print (n >= f) ? 1 : 0 }')"
      if [[ "$ok" != "1" ]]; then
        echo "error: $name regressed: ${new}x < 80% of baseline ${base}x (floor ${floor}x)" >&2
        exit 1
      fi
      echo "$name ${new}x vs baseline ${base}x: ok (floor ${floor}x)"
    fi
  fi
}

gate_ratio speedup_scan_vs_legacy
gate_ratio pipeline_speedup

# A smoke run gates against the baseline but never replaces it (its
# numbers are not publication-grade); write it out only when the caller
# asked for an explicit destination.
if [[ "${BENCH_SMOKE:-0}" == "1" && -z "${BENCH_PARSE_OUT:-}" ]]; then
  echo "--- smoke summary (baseline $baseline left untouched) ---"
  cat "$fresh"
  exit 0
fi

cp "$fresh" "$out"
echo "--- $out ---"
cat "$out"
