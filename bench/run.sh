#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh -seed 1                       # all four workloads
#   bash bench/run.sh --workload keyextract --seed 3 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the Go toolchain and the
# benchmark write (build cache, temporary files, the binary, stores, traces)
# goes under .bench_build there, and nothing is fetched from the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -buildvcs=false -o "$out/sempe-perf" .
exec "$out/sempe-perf" -work "$out/work" -trace-dir "$out/trace" "$@"
