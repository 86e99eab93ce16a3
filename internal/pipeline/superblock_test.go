package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// obs is one observation from a watch hook, comparable for exact diffing.
type obs struct {
	a, b  uint64
	flag1 bool
	flag2 bool
}

// runGolden executes prog on a new core and requires its complete
// observable surface — final registers, every pipeline statistic, the
// commit, memory and predictor digests, per-level cache statistics — to
// equal testdata/runs/<name>.json. The files were recorded from the
// per-instruction decode walk the replay engine replaced; -update rewrites
// them from the replay engine. It returns the core for engagement
// assertions.
func runGolden(t *testing.T, name string, cfg Config, prog *isa.Program) *Core {
	t.Helper()
	c := New(cfg, prog)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "runs/"+name, surfaceOf(c))
	return c
}

// TestSuperblockSecBlockBoundaryMidTrace: the sJMP and the eosJMP marker sit
// in the middle of straight-line runs, so superblocks span SecBlock
// boundaries. Replay must reproduce the drains, the jump-back redirect, and
// the register restores exactly — for both secret values.
func TestSuperblockSecBlockBoundaryMidTrace(t *testing.T) {
	for _, secret := range []int64{0, 1} {
		on := runGolden(t, fmt.Sprintf("secure_secure%d", secret), SecureConfig(), secureBranchProg(secret))
		if on.SBStats.Replays == 0 {
			t.Errorf("secret=%d: engine never engaged (0 replays)", secret)
		}
		if on.Stats.SJmps != 1 || on.Stats.EOSJmps != 2 {
			t.Errorf("secret=%d: sjmp=%d eosjmp=%d, want 1,2",
				secret, on.Stats.SJmps, on.Stats.EOSJmps)
		}
	}
}

// TestSuperblockMispredictHeavy: a data-dependent branch pattern exercises
// redirects that land mid-superblock, dropping and re-validating the replay
// cursor continuously.
func TestSuperblockMispredictHeavy(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 0
			li   r9, 200
			li   r10, 0
		loop:
			andi r11, r9, 5
			beq  r11, rz, skip
			addi r10, r10, 3
		skip:
			add  r8, r8, r9
			addi r9, r9, -1
			bne  r9, rz, loop
			halt
	`)
	on := runGolden(t, "default_mispredict", DefaultConfig(), prog)
	if on.SBStats.Replays == 0 {
		t.Error("engine never engaged")
	}
	if on.Stats.BranchMispredicts == 0 {
		t.Error("workload produced no mispredicts; the redirect edge is untested")
	}
}

// TestSuperblockProgramChangeAcrossRuns: two different programs whose
// instructions occupy the same addresses run back to back on fresh cores.
// Each pipeline.New starts with an empty superblock cache, so no trace from
// the first program can replay into the second; both runs must match their
// own goldens exactly.
func TestSuperblockProgramChangeAcrossRuns(t *testing.T) {
	progA := asm.MustAssemble(`
		main:
			li   r8, 10
			li   r9, 20
			add  r10, r8, r9
			halt
	`)
	progB := asm.MustAssemble(`
		main:
			li   r8, 10
			li   r9, 20
			mul  r10, r8, r9
			halt
	`)
	if progA.CodeBase != progB.CodeBase {
		t.Fatal("programs must share a code base for the test to bite")
	}
	a := runGolden(t, "default_progA", DefaultConfig(), progA)
	b := runGolden(t, "default_progB", DefaultConfig(), progB)
	if a.ArchRegs()[10] != 30 || b.ArchRegs()[10] != 200 {
		t.Errorf("r10: progA=%d progB=%d, want 30, 200 — a stale trace replayed",
			a.ArchRegs()[10], b.ArchRegs()[10])
	}
}

// TestSuperblockWatchHooksMidRun: the commit-time observations — MemWatch
// and the spec watch's conditional-branch predictor updates — armed mid-run
// must produce the exact event streams — addresses AND cycle stamps — pinned
// in testdata/watchhooks_midrun.json, which the per-instruction decode walk
// recorded before the replay engine replaced it.
func TestSuperblockWatchHooksMidRun(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 0
			li   r9, 50
			li   r12, 4096
		loop:
			st   r9, [r12+0]
			ld   r10, [r12+0]
			add  r8, r8, r10
			addi r9, r9, -1
			bne  r9, rz, loop
			halt
	`)
	const armAt = 100
	c := New(DefaultConfig(), prog)
	var rec *recorder
	for !c.Halted() {
		if rec == nil && c.Cycles() >= armAt {
			rec = armRecorder(c)
		}
		if err := c.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if rec == nil {
		t.Fatalf("program halted before cycle %d", armAt)
	}
	if len(rec.mems) == 0 || len(rec.branches) == 0 {
		t.Fatalf("hooks observed nothing after arming (mem=%d, branch=%d)", len(rec.mems), len(rec.branches))
	}
	checkGolden(t, "watchhooks_midrun", struct {
		Stats        Stats
		CommitDigest string
		Mems         obsStream
		Branches     obsStream
	}{c.Stats, hex64(c.CommitDigest()), obsStreamOf(rec.mems), obsStreamOf(rec.branches)})
}

// TestSuperblockRepeatedRunsDeterministic: the same program on consecutive
// fresh cores (arena pools, trace caches, and predictor state all rebuilt by
// pipeline.New) is bit-for-bit deterministic — replay caches carry nothing
// across constructions.
func TestSuperblockRepeatedRunsDeterministic(t *testing.T) {
	prog := secureBranchProg(1)
	var first *Core
	for i := 0; i < 3; i++ {
		c := New(SecureConfig(), prog)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = c
			continue
		}
		if c.Stats != first.Stats || c.CommitDigest() != first.CommitDigest() ||
			c.MemDigest() != first.MemDigest() || c.BP.Digest() != first.BP.Digest() {
			t.Fatalf("run %d diverged from run 0", i)
		}
		if c.SBStats != first.SBStats {
			t.Fatalf("run %d superblock stats diverged: %+v vs %+v", i, c.SBStats, first.SBStats)
		}
	}
}
