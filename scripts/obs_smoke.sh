#!/usr/bin/env bash
# End-to-end observability smoke. Boot one sempe-serve, run a quick fig10a
# sweep on it, and require its span journal (GET /runs/{id}/events) to hold
# the sweep span and one point span per grid point, and GET /metrics to
# carry every family with the run counted. Then run the same sweep with
# sempe-bench -store, cold and warm: both outputs must be byte-identical to
# the run without a store, the warm run must serve all 12 points from disk,
# and the cold run's -events journal must hold its sweep and point spans and
# the store_scan event. Last, SIGTERM must shut the server down gracefully.
# CI runs this through `make obs-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    kill "${srv_pid:-}" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $1" >&2
    shift
    for f in "$@"; do cat "$f" >&2; done
    exit 1
}

# require_count FILE PATTERN N fails unless PATTERN matches exactly N lines.
require_count() {
    local n
    n=$(grep -c -- "$2" "$1" || true)
    [ "$n" = "$3" ] || fail "$1 has $n lines matching '$2', want $3" "$1"
}

echo "== building binaries"
go build -o "$tmp/bin/" ./cmd/sempe-bench ./cmd/sempe-serve

echo "== starting sempe-serve"
# A port per process, so two smoke runs on one host do not share a server.
addr=127.0.0.1:$((20000 + $$ % 20000))
"$tmp/bin/sempe-serve" -addr "$addr" >"$tmp/serve.log" 2>&1 &
srv_pid=$!
for _ in $(seq 1 100); do
    if curl -fs "http://$addr/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fs "http://$addr/healthz" >/dev/null || fail "server never became healthy" "$tmp/serve.log"

echo "== a quick fig10a run on the server"
curl -fs -X POST "http://$addr/runs" \
    -d '{"scenario": "fig10a", "spec": {"quick": true}, "wait": true}' >"$tmp/run.json" ||
    fail "POST /runs failed" "$tmp/serve.log"
grep -q '"status": "done"' "$tmp/run.json" || fail "run did not finish" "$tmp/run.json"
id=$(sed -n 's/^  "id": "\(run-[0-9]*\)",$/\1/p' "$tmp/run.json")
curl -fs "http://$addr/runs/$id/events" >"$tmp/run-events.json" || fail "GET /runs/$id/events failed"
require_count "$tmp/run-events.json" '"name": "sweep"' 2
require_count "$tmp/run-events.json" '"name": "point"' 24
echo "   $id journaled its sweep span and 12 point spans"

echo "== scraping /metrics"
curl -fs "http://$addr/metrics" >"$tmp/metrics.txt" || fail "server does not serve /metrics"
for fam in sempe_http_requests_total sempe_http_request_seconds_bucket \
           sempe_runs sempe_runs_finished_total sempe_serve_computes_total \
           sempe_sim_semaphore_capacity sempe_pipeline_runs_total \
           sempe_attack_template_hits_total sempe_superblock_builds_total; do
    grep -q "^$fam" "$tmp/metrics.txt" || fail "exposition is missing family $fam" "$tmp/metrics.txt"
done
require_count "$tmp/metrics.txt" '^sempe_serve_computes_total 1$' 1
require_count "$tmp/metrics.txt" '^sempe_runs_finished_total{status="done"} 1$' 1
echo "   all families present; one computed run counted"

echo "== reference run without a store (sempe-bench)"
"$tmp/bin/sempe-bench" -exp fig10a -quick -format json -stable >"$tmp/serial.json" 2>/dev/null

for run in cold warm; do
    echo "== $run -store run"
    "$tmp/bin/sempe-bench" -exp fig10a -quick -format json -stable \
        -store "$tmp/store" -events "$tmp/events-$run.json" \
        >"$tmp/$run.json" 2>"$tmp/$run.log"
    diff -u "$tmp/serial.json" "$tmp/$run.json" || fail "$run -store output differs from the run without a store" "$tmp/$run.log"
    stored=0
    [ "$run" = warm ] && stored=12
    grep -qx "fig10a: 12 points, $stored from store" "$tmp/$run.log" ||
        fail "$run run's provenance line is not '12 points, $stored from store'" "$tmp/$run.log"
    echo "   byte-identical to the run without a store; $stored of 12 points from the store"
done
require_count "$tmp/events-cold.json" '"name": "sweep"' 2
require_count "$tmp/events-cold.json" '"name": "point"' 24
require_count "$tmp/events-cold.json" '"name": "store_scan"' 1
echo "   cold journal holds the sweep span, 12 point spans and the store_scan event"

echo "== graceful shutdown (SIGTERM)"
kill -TERM "$srv_pid"
wait "$srv_pid" || fail "server exited non-zero on SIGTERM" "$tmp/serve.log"
unset srv_pid
grep -q "shutting down" "$tmp/serve.log" || fail "no graceful shutdown log" "$tmp/serve.log"

echo "obs smoke: OK"
