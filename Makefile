# One-command verification and perf harness for the SeMPE reproduction.

GO ?= go

.PHONY: check fmt vet build test bench-module race bench bench-smoke sweep serve smoke-attack smoke-keyextract obs-smoke clean

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
# The replay gates pin the decode-cache fetch path: prototype-vended cores
# cycle-identical to New, 0 allocs/op through wrong-path replay, an armed
# spec watch staying on replay, the pipeline's spec-event streams equal to
# their golden files, every scenario byte-identical to its golden file and
# delivering its recorded spec-event and flush streams, every scenario's
# armed run equal to its unarmed one (TestSpecTraceDifferential), and the
# instructions of one fetch group address-contiguous, which the cache's
# per-address IL1 line dedup relies on. The data-footprint gates
# pin zero-filled program data as a reservation: attack templates carry no
# data bytes, symbol addresses match the recorded layouts, and a .data range
# past the data region is a named error. The trial-engine gates pin the
# attack lab's set-up savings: a template built at one attacked bit and
# patched to every other equals a fresh compile (TestTemplatePatchMatchesFreshCompile),
# a slotted literal fuses into an immediate-form op byte-identically, and
# warm batches reuse pooled runners without building a core, a
# spectre assessment equals a 1-bit extraction's per-bit statistics
# (RunAssessment and ExtractKey share one trial engine), and a failed batch
# names its lowest-indexed failing trial at any worker count (trials run on
# scenario.Grid); the superblock metric families count a sweep's cores. The sweep gates
# pin the engine's input boundary: every registered parameter is
# range-checked at both ends before any point runs (the fuzz target's seed
# corpus included), a grid past scenario.MaxPoints is rejected (engine and
# serve run), a panicking grid point fails its run while the process keeps
# serving, and the shared row cache keeps a bounded number of specs; the
# POST /runs seed corpus gets a 4xx naming the problem or waits for a slot,
# never a panic. The attack and CLI gates reject an out-of-range gap, width or bit
# and every workload flag that used to panic, exhaust memory or run for
# hours, with exit 1; the CLIs share one program front end (internal/cli).
# sempe-bench's store path serves a warm sweep from disk byte-identically,
# its bad sweep flags exit 1, and a failed sweep still writes its -events
# journal. The one-sweep-path gates pin the store as the engine's row
# source: a grid that several scenarios render is simulated once, from
# sempe-bench and from a server, a store-backed run reports progress as its
# rows land, and every registered sweep's rows round-trip the store.
# The fuzz seed corpora hold the assembler and the store's entry decoding
# to an error or a miss, never a panic, and djpeg's wrong-path touch sets
# do not depend on the image under SeMPE. The API gate fails on an exported
# internal/ declaration that only tests use, a run that joins another run's
# in-flight computation reads its progress (engine and serve), and an sJMP
# fetched down a mispredicted path is flushed before it renames, so the
# jbTable and the SPM need no unwind. A run canceled while queued is
# counted, journaled and logged like a run canceled while running.
# The fork and idle-skip gates pin the calibration fork and the idle-clock
# skip as exact: a forked c1 equals its full run for every attacker,
# victim, architecture, gap and seed (and a core-level pair), the
# emulator's self-check refuses a pair whose prefixes differ, markers emit
# no code under any backend and need unique names, the skip equals
# stepping every stage on the pipeline's programs and on attack trials and
# honours the cycle budgets, the pooled emulator equals a new one,
# predictor copy and reset visit only written slots, cache digests
# allocate nothing, the run counters count a fork's shared prefix once, and
# /metrics exports them. The emulator gates hold it to the core: both
# decode the program image, so a store into code changes data only, and
# both give one answer (halt state, or the same sempe error) on a jump
# outside the image, an eosJMP without sJMP and overflowing nesting; the
# completion wheel covers every latency execute can charge.
bench-smoke:
	$(GO) test -run=NONE -bench='SteadyState|MemAccess|SimulatorSpeed' -benchmem -benchtime=1000x
	$(GO) test -run=NONE -bench='AttackTrials' -benchmem -benchtime=1x ./internal/attack
	$(GO) test ./internal/experiments/ -run 'TestSteadyStateZeroAllocSpecDisarmed|TestSpecTraceDifferential'
	$(GO) test ./internal/pipeline/ -run 'TestPrototypeMatchesNew|TestWrongPathReplayZeroAlloc|TestSpecWatchStaysOnReplay|TestSpecStreamReplayMatchesWalk|TestSpecStreamHashCoversEveryField'
	$(GO) test ./internal/experiments/ -run 'TestScenarioGoldens|TestSuperblockDifferential|TestWrongPathReplayDifferential'
	$(GO) test ./internal/attack/ -run 'TestTemplatePatchMatchesFreshCompile|TestCompiledDataLayout'
	$(GO) test ./internal/attack/ -run 'TestTrialLoopZeroAlloc|TestParallelMatchesSerial|TestWarmBatchReusesRunners|TestWidthOneMatchesSpectre|TestFailedBatchNamesLowestTrial'
	$(GO) test ./internal/experiments/ -run 'TestSuperblockMetricsCountEveryCore'
	$(GO) test ./internal/compile/ -run 'TestSlottedLiteralFusesImmediate'
	$(GO) test ./internal/asm/ ./internal/compile/ -run 'TestDataRegionBound|TestDataReservesWithoutSegment|TestHugeArrayRejected'
	$(GO) test ./internal/experiments/ -run 'TestEveryParamBoundedAtBothEnds|TestGridBoundedThroughEngine|FuzzScenarioPlan'
	$(GO) test ./internal/scenario/ -run 'TestRunRecoversPointPanic|TestGridSize|TestRowCacheBounded'
	$(GO) test ./internal/serve/ -run 'TestPointPanicFailsRunServerLives|TestOversizedGridIsBadRequest|FuzzRunRequest'
	$(GO) test ./internal/attack/ -run 'TestRunRejectsBadParams|TestKeyParamsValidation'
	$(GO) test ./cmd/sempe-run/ ./cmd/sempe-trace/ ./cmd/sempe-leak/ ./cmd/sempe-attack/ ./cmd/sempe-bench/ ./internal/cli/
	$(GO) test ./cmd/sempe-bench/ ./internal/serve/ ./internal/store/ -run 'TestSharedSweepDispatchedOnce|TestFrontEndDispatchesSharedSweepOnce|TestRowsReportProgress|TestStoreRoundTripsEverySweep'
	$(GO) test ./internal/asm/ ./internal/store/ -run 'FuzzAssemble|FuzzStoreEntry|TestRejectsNonUTF8Key'
	$(GO) test ./internal/leak/ -run 'TestDjpegWrongPathTouchSets'
	$(GO) test . -run 'TestNoTestOnlyAPI'
	$(GO) test ./internal/scenario/ ./internal/serve/ -run 'TestJoinedRunSeesProgress|TestJoinedRunReportsProgress'
	$(GO) test ./internal/pipeline/ -run 'TestMispredictedSJmpNeverRenames|TestFetchGroupsAreContiguous'
	$(GO) test ./internal/serve/ -run 'TestQueuedCancelIsCountedAndJournaled'
	$(GO) test ./internal/pipeline/ -run 'TestIdleSkipMatchesEveryStage|TestIdleSkipHonorsBudgets|TestForkMatchesFullRun'
	$(GO) test ./internal/attack/ -run 'TestForkMatchesFullCalibration|TestForkRefusesDivergedPrefix|TestForkCountsSharedPrefixOnce|TestForkMarksEmitNoCode|TestIdleSkipMatchesEveryStageOnTrials'
	$(GO) test ./internal/emu/ ./internal/bpred/ ./internal/cache/ -run 'TestPooledResetMatchesNew|TestStoreIntoCodeChangesDataOnly|TestRunToStopsAtCount|TestUnitCopyAndResetTrackWrites|TestDigestAllocationFreeAndUnchanged'
	$(GO) test ./internal/pipeline/ -run 'TestEmulatorMatchesCoreOnEdgePrograms|TestWheelCoversEveryLatency'
	$(GO) test ./internal/lang/ ./internal/compile/ -run 'TestValidateRejectsBadMarkers|TestMarksEmitNoCode'
	$(GO) test ./internal/serve/ -run 'TestMetricsExportRunCounters'

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

# obs-smoke exercises the observability layer end to end: the metrics
# registry and journal unit tests, the /metrics + /runs/{id}/events serve
# tests, the instrumentation-inertness and spec-trace differentials with
# their zero-alloc gates, then scripts/obs_smoke.sh: a live server's run
# journal, /metrics scrape and graceful shutdown, and sempe-bench -store
# cold and warm runs byte-identical to the run without a store. CI runs
# this too.
obs-smoke:
	$(GO) test ./internal/obs/
	$(GO) test ./internal/serve/ -run 'TestMetrics|TestRunEvents|TestPprof|TestFrontEndDispatchesSharedSweepOnce'
	$(GO) test ./internal/experiments/ -run 'TestObservabilityDifferential|TestSteadyStateZeroAllocWithMetrics|TestSpecTraceDifferential|TestSteadyStateZeroAllocSpecDisarmed'
	./scripts/obs_smoke.sh

# smoke-attack runs the attack lab end to end: the baseline must leak the
# secret (recovery + TVLA) and extract a 4-bit key from a leaky victim,
# SeMPE and the constant-time control must not, and the spectre and
# keyextract sweeps must render byte-identically through a cold and a warm
# result store.
# CI runs this too; smoke-keyextract is an alias for discoverability.
smoke-attack smoke-keyextract:
	./scripts/attack_smoke.sh

clean:
	$(GO) clean ./...
