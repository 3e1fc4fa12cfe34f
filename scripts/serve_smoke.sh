#!/usr/bin/env bash
# Smoke-test the `strudel serve` daemon end to end: build, train a tiny
# model, start the server on 2 shards on an ephemeral port, classify a
# file over HTTP, check /healthz, /metrics and keep-alive reuse, check
# that a repeat classify hits the cache and that a chunked upload to
# /classify/stream finishes, then shut down gracefully and assert a
# clean exit. No external HTTP client beyond curl is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p strudel-cli
strudel=target/release/strudel

work="$(mktemp -d)"
server_pid=""
cleanup() {
  if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

"$strudel" synth --dataset SAUS --files 12 --scale 0.2 --out "$work/corpus"
"$strudel" train --trees 12 --corpus "$work/corpus" --out "$work/model.strudel"

printf 'Survey of outcomes,,\n,Rate 1,Rate 2\nKent,12,34\nSurrey,56,78\nTotal,68,112\nSource: statistics office,,\n' \
  > "$work/probe.csv"

"$strudel" serve --model "$work/model.strudel" --port 0 --threads 2 \
  > "$work/serve.log" 2>"$work/serve.err" &
server_pid=$!

# Wait for the handshake line that carries the ephemeral port.
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's#.*listening on http://\([^ ]*\).*#\1#p' "$work/serve.log")"
  [[ -n "$addr" ]] && break
  kill -0 "$server_pid" 2>/dev/null || { echo "error: server died during startup" >&2; cat "$work/serve.err" >&2; exit 1; }
  sleep 0.1
done
if [[ -z "$addr" ]]; then
  echo "error: no handshake line from strudel serve" >&2
  cat "$work/serve.log" "$work/serve.err" >&2
  exit 1
fi
echo "--- serving on $addr ---"

health="$(curl -sS "http://$addr/healthz")"
[[ "$health" == "ok" ]] || { echo "error: /healthz said: $health" >&2; exit 1; }

body="$(curl -sS --data-binary @"$work/probe.csv" "http://$addr/classify")"
echo "$body" | grep -q '"lines"' || { echo "error: classify response lacks structure JSON: $body" >&2; exit 1; }
echo "--- classify OK ---"

metrics="$(curl -sS "http://$addr/metrics")"
echo "$metrics" | grep -q 'strudel_requests_total{endpoint="classify",outcome="ok"} 1' \
  || { echo "error: classify not counted in /metrics" >&2; echo "$metrics" >&2; exit 1; }
echo "$metrics" | grep -q 'strudel_stage_seconds_total' \
  || { echo "error: stage timings missing from /metrics" >&2; exit 1; }

# Keep-alive reuse: two requests in one curl invocation share one TCP
# connection (curl reuses by default when the server allows it). The
# accepted-connection counter must therefore grow by exactly 2 between
# the metrics scrapes: the reused connection plus the scrape below.
conns_before="$(echo "$metrics" | awk '/^strudel_connections_total /{print $2}')"
reuse="$(curl -sS "http://$addr/healthz" "http://$addr/healthz")"
[[ "$reuse" == $'ok\nok' ]] || { echo "error: keep-alive healthz pair said: $reuse" >&2; exit 1; }
conns_after="$(curl -sS "http://$addr/metrics" | awk '/^strudel_connections_total /{print $2}')"
if [[ "$((conns_after - conns_before))" != "2" ]]; then
  echo "error: expected 2 new connections (keep-alive pair + scrape), got $conns_before -> $conns_after" >&2
  exit 1
fi
echo "--- keep-alive reuse OK ($conns_before -> $conns_after connections for 3 requests) ---"

# The repeat classify is answered from the daemon's one result cache,
# whichever of the two shards accepts it.
cache="$(curl -sS -o /dev/null -D - --data-binary @"$work/probe.csv" "http://$addr/classify" \
  | tr -d '\r' | awk -F': ' 'tolower($1) == "x-strudel-cache" {print $2}')"
[[ "$cache" == "hit" ]] || { echo "error: repeat classify answered X-Strudel-Cache: '$cache'" >&2; exit 1; }
echo "--- repeat classify answered from the cache ---"

# A chunked upload to the streaming route ends with its summary event.
events="$(curl -sS -H 'Transfer-Encoding: chunked' --data-binary @"$work/probe.csv" \
  "http://$addr/classify/stream")"
[[ "$(echo "$events" | tail -n 1)" == *'"done": true'* ]] \
  || { echo "error: chunked /classify/stream did not end with a done event: $events" >&2; exit 1; }
echo "--- chunked /classify/stream OK ---"

curl -sS -X POST "http://$addr/admin/shutdown" >/dev/null
wait "$server_pid"
server_pid=""
echo "--- server drained and exited cleanly ---"
