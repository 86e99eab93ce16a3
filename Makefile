# One-command verification and perf harness for the SeMPE reproduction.

GO ?= go

.PHONY: check fmt vet build test bench-module race bench bench-smoke sweep serve smoke-cluster smoke-attack smoke-keyextract obs-smoke clean

# check is the tier-1 gate plus formatting, the benchmark module and a
# benchmark smoke run.
check: fmt vet build test bench-module bench-smoke

# fmt fails when any tracked Go file, bench/ included, is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-module vets and tests the nested benchmark module (bench/, run with
# `bash bench/run.sh`). `go test ./...` skips it, yet it compiles against
# internal/pipeline and internal/attack, so a removed field it reads would
# otherwise break it silently.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# bench-smoke proves the perf-critical benchmarks still run and that the
# steady-state pipeline loop is allocation-free, in seconds. The attack-trial
# benchmark runs one iteration per config; its allocation gate is the
# TestTrialLoopZeroAlloc test (a 1x bench can't see the steady state).
# The replay gates pin the superblock fetch path: prototype-vended cores
# cycle-identical to New, 0 allocs/op through wrong-path replay, an armed
# spec watch staying on replay, the pipeline's spec-event streams equal to
# their golden files, and every scenario byte-identical to its golden file
# and delivering its recorded spec-event and flush streams. The data-footprint gates
# pin zero-filled program data as a reservation: attack templates carry no
# data bytes, symbol addresses match the recorded layouts, and a .data range
# past the data region is a named error. The trial-engine gates pin the
# attack lab's set-up savings: a template built at one attacked bit and
# patched to every other equals a fresh compile (TestTemplatePatchMatchesFreshCompile),
# a slotted literal fuses into an immediate-form op byte-identically, and
# warm batches reuse pooled runners without building a core.
bench-smoke:
	$(GO) test -run=NONE -bench='SteadyState|MemAccess|SimulatorSpeed' -benchmem -benchtime=1000x
	$(GO) test -run=NONE -bench='AttackTrials' -benchmem -benchtime=1x ./internal/attack
	$(GO) test ./internal/experiments/ -run 'TestSteadyStateZeroAllocSpecDisarmed'
	$(GO) test ./internal/pipeline/ -run 'TestPrototypeMatchesNew|TestWrongPathReplayZeroAlloc|TestSpecWatchStaysOnReplay|TestSpecStreamReplayMatchesWalk|TestSpecStreamHashCoversEveryField'
	$(GO) test ./internal/experiments/ -run 'TestScenarioGoldens|TestSuperblockDifferential|TestWrongPathReplayDifferential'
	$(GO) test ./internal/attack/ -run 'TestTemplatePatchMatchesFreshCompile|TestCompiledDataLayout'
	$(GO) test ./internal/attack/ -run 'TestTrialLoopZeroAlloc|TestParallelMatchesSerial|TestWarmBatchReusesRunners'
	$(GO) test ./internal/compile/ -run 'TestSlottedLiteralFusesImmediate'
	$(GO) test ./internal/asm/ ./internal/compile/ -run 'TestDataRegionBound|TestDataReservesWithoutSegment|TestHugeArrayRejected'

# bench is the full benchmark suite (paper figures + ablations).
bench:
	$(GO) test -bench=. -benchmem

# race runs the suite under the race detector (CI runs this too; the
# sweep engine and sempe-serve are the concurrent pieces).
race:
	$(GO) test -race ./...

# sweep regenerates the paper's figures through the scenario registry.
sweep:
	$(GO) run ./cmd/sempe-bench -exp all

# serve starts the HTTP evaluation service on :8080.
serve:
	$(GO) run ./cmd/sempe-serve

# smoke-cluster boots two local workers, shards a quick fig10a sweep
# across them, and diffs the merged JSON against a serial run (then
# scrapes /metrics from both live workers and re-runs warm from the
# on-disk store). CI runs this too.
smoke-cluster:
	./scripts/cluster_smoke.sh

# obs-smoke exercises the observability layer end to end: the metrics
# registry and journal unit tests, the /metrics + /runs/{id}/events serve
# tests (distributed spans included), the instrumentation-inertness and
# spec-trace differentials with their zero-alloc gates, then the cluster
# smoke's live-fleet /metrics scrape.
obs-smoke:
	$(GO) test ./internal/obs/
	$(GO) test ./internal/serve/ -run 'TestMetrics|TestRunEvents|TestPprof|TestDistributedRunThroughServe'
	$(GO) test ./internal/experiments/ -run 'TestObservabilityDifferential|TestSteadyStateZeroAllocWithMetrics|TestSpecTraceDifferential|TestSteadyStateZeroAllocSpecDisarmed'
	./scripts/cluster_smoke.sh

# smoke-attack runs the attack lab end to end: the baseline must leak the
# secret (recovery + TVLA) and extract a 4-bit key from a leaky victim,
# SeMPE and the constant-time control must not, and the sharded spectre
# and keyextract sweeps must merge byte-identically to the serial runs.
# CI runs this too; smoke-keyextract is an alias for discoverability.
smoke-attack smoke-keyextract:
	./scripts/attack_smoke.sh

clean:
	$(GO) clean ./...
