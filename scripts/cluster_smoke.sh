#!/usr/bin/env bash
# End-to-end cluster smoke: boot two local sempe-serve workers, shard a
# quick fig10a sweep across them with sempe-bench -workers, and require the
# merged JSON to be byte-identical to a serial sempe-bench run. Then scrape
# GET /metrics from both live workers and fail on any missing family or a
# shard-point count that disagrees with the sweep, check the dispatch/merge
# span journal the sweep wrote, and re-run against the warm store requiring
# zero dispatches — every point must come from disk. CI runs this;
# `make smoke-cluster` (or `make obs-smoke`) runs it locally.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    kill "${w1_pid:-}" "${w2_pid:-}" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$tmp/bin/" ./cmd/sempe-bench ./cmd/sempe-serve

echo "== starting two workers"
"$tmp/bin/sempe-serve" -addr 127.0.0.1:18081 -worker >"$tmp/w1.log" 2>&1 &
w1_pid=$!
"$tmp/bin/sempe-serve" -addr 127.0.0.1:18082 -worker >"$tmp/w2.log" 2>&1 &
w2_pid=$!
for port in 18081 18082; do
    for _ in $(seq 1 100); do
        if curl -fs "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
            break
        fi
        sleep 0.1
    done
    curl -fs "http://127.0.0.1:$port/healthz" >/dev/null || {
        echo "worker on :$port never became healthy" >&2
        cat "$tmp"/w*.log >&2
        exit 1
    }
done

echo "== serial reference (sempe-bench)"
"$tmp/bin/sempe-bench" -exp fig10a -quick -format json -stable >"$tmp/serial.json" 2>/dev/null

echo "== distributed sweep across 2 workers"
"$tmp/bin/sempe-bench" -exp fig10a -quick -format json -stable -shard 2 \
    -workers http://127.0.0.1:18081,http://127.0.0.1:18082 \
    -store "$tmp/store" -events "$tmp/events.json" \
    >"$tmp/dist.json" 2>"$tmp/sweep-cold.log"
diff -u "$tmp/serial.json" "$tmp/dist.json" || {
    echo "FAIL: distributed output differs from serial run" >&2
    exit 1
}
echo "   byte-identical to serial"

echo "== span journal from the sweep"
for name in cluster_sweep probe dispatch merge; do
    grep -q "\"name\": \"$name\"" "$tmp/events.json" || {
        echo "FAIL: sweep journal has no '$name' span; events were:" >&2
        cat "$tmp/events.json" >&2
        exit 1
    }
done
echo "   dispatch/merge spans journaled"

echo "== scraping /metrics from both live workers"
for port in 18081 18082; do
    curl -fs "http://127.0.0.1:$port/metrics" >"$tmp/metrics-$port.txt" || {
        echo "FAIL: worker on :$port does not serve /metrics" >&2
        exit 1
    }
    for fam in sempe_http_requests_total sempe_http_request_seconds_bucket \
               sempe_shard_requests_total sempe_shard_points_total \
               sempe_runs sempe_sim_semaphore_capacity \
               sempe_attack_template_hits_total sempe_superblock_builds_total; do
        grep -q "^$fam" "$tmp/metrics-$port.txt" || {
            echo "FAIL: worker :$port exposition is missing family $fam" >&2
            cat "$tmp/metrics-$port.txt" >&2
            exit 1
        }
    done
done
# The fleet must account for exactly the sweep's 12 simulated points.
shard_points=$(awk '/^sempe_shard_points_total/ {sum += $2} END {print sum+0}' "$tmp"/metrics-*.txt)
if [ "$shard_points" != "12" ]; then
    echo "FAIL: workers report $shard_points shard points, want 12" >&2
    exit 1
fi
echo "   all families present; 12 shard points accounted for"

echo "== warm-store re-run (must simulate nothing)"
"$tmp/bin/sempe-bench" -exp fig10a -quick -format json -stable -shard 2 \
    -workers http://127.0.0.1:18081,http://127.0.0.1:18082 \
    -store "$tmp/store" >"$tmp/dist2.json" 2>"$tmp/sweep-warm.log"
diff -u "$tmp/serial.json" "$tmp/dist2.json" || {
    echo "FAIL: warm-store output differs from serial run" >&2
    exit 1
}
grep -q "12 points, 12 from store, 0 shards in 0 dispatches" "$tmp/sweep-warm.log" || {
    echo "FAIL: warm re-run dispatched work; provenance was:" >&2
    cat "$tmp/sweep-warm.log" >&2
    exit 1
}
echo "   all 12 points from the store, 0 dispatches"

echo "== graceful shutdown (SIGTERM)"
kill -TERM "$w1_pid"
wait "$w1_pid" || {
    echo "FAIL: worker exited non-zero on SIGTERM" >&2
    cat "$tmp/w1.log" >&2
    exit 1
}
grep -q "shutting down" "$tmp/w1.log" || {
    echo "FAIL: no graceful shutdown log" >&2
    cat "$tmp/w1.log" >&2
    exit 1
}
unset w1_pid

echo "cluster smoke: OK"
