#!/usr/bin/env bash
# Attack-lab smoke: a quick spectre run must find that the unprotected
# baseline leaks the secret (recovery + TVLA) and that SeMPE does not; a
# quick 4-bit key extraction must pull the whole key from a leaky victim
# on the baseline and nothing anywhere else; and the spectre and keyextract
# sweeps must render byte-identically with a cold and a warm result store
# to their runs without one. CI runs this; `make smoke-attack` runs it
# locally.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$tmp/bin/" ./cmd/sempe-attack ./cmd/sempe-bench

echo "== one-off attack check (baseline must leak, SeMPE must not)"
"$tmp/bin/sempe-attack" -trials 40 -check >"$tmp/attack.txt"

echo "== 4-bit key extraction check (baseline pulls the key, SeMPE and the CT control stay secure)"
"$tmp/bin/sempe-attack" -victim keyloop -bits 4 -trials 12 -check >"$tmp/keyextract.txt"
"$tmp/bin/sempe-attack" -victim ctcompare -bits 4 -trials 12 -check >"$tmp/ctcompare.txt"

# check_store NAME ARGS... runs a sempe-bench sweep without a store, then
# cold and warm through one, and requires all three outputs byte-identical
# and the warm run to serve every point from the store.
check_store() {
    local name=$1
    shift
    echo "== $name: reference run without a store (sempe-bench)"
    "$tmp/bin/sempe-bench" "$@" -format json -stable >"$tmp/$name-serial.json" 2>/dev/null
    for run in cold warm; do
        echo "== $name: $run -store run"
        "$tmp/bin/sempe-bench" "$@" -format json -stable -store "$tmp/store" \
            >"$tmp/$name-$run.json" 2>"$tmp/$name-$run.log"
        diff -u "$tmp/$name-serial.json" "$tmp/$name-$run.json" || {
            echo "FAIL: $run -store $name output differs from the run without a store" >&2
            cat "$tmp/$name-$run.log" >&2
            exit 1
        }
        echo "   byte-identical to the run without a store"
    done
    grep -Eqx "$name: ([0-9]+) points, \1 from store" "$tmp/$name-warm.log" || {
        echo "FAIL: warm $name run simulated points; provenance was:" >&2
        cat "$tmp/$name-warm.log" >&2
        exit 1
    }
    echo "   warm run served every point from the store"
}

check_store spectre -exp spectre -quick
check_store keyextract -exp keyextract -quick \
    -param attackers=bp,cache -param victims=keyloop -param widths=4 -param trials=8

echo "attack smoke: OK"
