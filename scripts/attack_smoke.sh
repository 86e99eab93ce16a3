#!/usr/bin/env bash
# Attack-lab smoke: a quick spectre run must find that the unprotected
# baseline leaks the secret (recovery + TVLA) and that SeMPE does not; a
# quick 4-bit key extraction must pull the whole key from a leaky victim
# on the baseline and nothing anywhere else; and both the sharded spectre
# and keyextract sweeps must merge byte-identically to their serial runs.
# CI runs this; `make smoke-attack` runs it locally.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    kill "${w1_pid:-}" "${w2_pid:-}" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$tmp/bin/" ./cmd/sempe-attack ./cmd/sempe-bench ./cmd/sempe-serve

echo "== one-off attack check (baseline must leak, SeMPE must not)"
"$tmp/bin/sempe-attack" -trials 40 -check >"$tmp/attack.txt"

echo "== 4-bit key extraction check (baseline pulls the key, SeMPE and the CT control stay secure)"
"$tmp/bin/sempe-attack" -victim keyloop -bits 4 -trials 12 -check >"$tmp/keyextract.txt"
"$tmp/bin/sempe-attack" -victim ctcompare -bits 4 -trials 12 -check >"$tmp/ctcompare.txt"

echo "== starting two workers"
"$tmp/bin/sempe-serve" -addr 127.0.0.1:18087 -worker >"$tmp/w1.log" 2>&1 &
w1_pid=$!
"$tmp/bin/sempe-serve" -addr 127.0.0.1:18088 -worker >"$tmp/w2.log" 2>&1 &
w2_pid=$!
for port in 18087 18088; do
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

echo "== serial spectre reference (sempe-bench)"
"$tmp/bin/sempe-bench" -exp spectre -quick -format json -stable >"$tmp/serial.json" 2>/dev/null

echo "== distributed spectre sweep across 2 workers"
"$tmp/bin/sempe-bench" -exp spectre -quick -format json -stable -shard 1 \
    -workers http://127.0.0.1:18087,http://127.0.0.1:18088 \
    >"$tmp/dist.json" 2>"$tmp/sweep.log"
diff -u "$tmp/serial.json" "$tmp/dist.json" || {
    echo "FAIL: distributed spectre output differs from serial run" >&2
    cat "$tmp/sweep.log" >&2
    exit 1
}
echo "   byte-identical to serial"

keyparams=(-param attackers=bp,cache -param victims=keyloop -param widths=4 -param trials=8)
echo "== serial keyextract reference (sempe-bench)"
"$tmp/bin/sempe-bench" -exp keyextract -quick "${keyparams[@]}" -format json -stable >"$tmp/kserial.json" 2>/dev/null

echo "== distributed 4-bit key extraction across 2 workers"
"$tmp/bin/sempe-bench" -exp keyextract -quick -format json -stable -shard 1 "${keyparams[@]}" \
    -workers http://127.0.0.1:18087,http://127.0.0.1:18088 \
    >"$tmp/kdist.json" 2>"$tmp/ksweep.log"
diff -u "$tmp/kserial.json" "$tmp/kdist.json" || {
    echo "FAIL: distributed keyextract output differs from serial run" >&2
    cat "$tmp/ksweep.log" >&2
    exit 1
}
echo "   byte-identical to serial"

echo "attack smoke: OK"
